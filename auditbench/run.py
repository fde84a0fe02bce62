#!/usr/bin/env python3
"""Audit benchmark for chronolab: time to verified audit reports.

Usage, from the root of a chronolab checkout:

    python3 auditbench/run.py --workload {bundled,dense_grid,wide_clock} \
        --seed N --seconds S --trace {0,1}

Each workload runs as a closed loop of back-to-back passes in one worker
process; a pass replays the workload's scenarios once through the public
API (`run_scenario` with `out_dir` and CSV output, as `chronolab all --out
D --format csv` does).  The only threads are OpenBLAS's.

Every pass is gated: a pass fails if it raises, if any audit check fails,
or if its artifacts (report timestamps stripped) differ from the first
pass's.  Any failed pass makes the run incorrect and the exit code 1.

`--trace 0` reports the end-to-end metrics:
  setup_s       median over SETUP_SAMPLES fresh interpreters of the time up
                to the first timed pass (import, config load, warm-up eigh)
  pass_s.p50/p90  wall seconds per pass
  checks_per_s  audit checks completed per second of pass time
  peak_rss_mb   peak resident memory of the worker process
`--trace 1` alternates untraced and traced passes and reports per-layer
self times, work counts, dominant-layer shares and the tracing overhead
(traced minus untraced median pass time).

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; attempted/failed count passes.  Full results, metadata and, when
traced, the spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5  # SETUP_SAMPLES - 1 set-up-only probes plus the measuring worker
RUN_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s.p50": "s",
    "pass_s.p90": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Which workload each dominant-layer share speaks for.
DOMINANT_SHARE = {
    "bundled": ("share.classical_eigensystem", "classical + quantum.eigensystem"),
    "dense_grid": ("share.quantum_dense",
                   "dense quantum (eigh, H_ex build, spectrum check, dense evolution)"),
    "wide_clock": ("share.pm_violation_report", "povm.pm_violation_report"),
}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".p50")):
        return "s"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith(("bytes", "bytes_written")):
        return "B"
    if name.endswith("ratio") or name.startswith("share."):
        return "ratio"
    return "count"


class Worker:
    """A worker process whose set-up time is measured from spawn to READY."""

    def __init__(self, args, seconds: float, out: Path, deadline: float):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace), "--out", str(out)]
        if args.toy:
            cmd.append("--toy")
        self.out = out
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - start
            self.proc.stdout.close()
            if ready.strip() != "READY":
                raise RuntimeError("worker failed during set-up")
        except BaseException:
            self.stop()
            raise

    def wait(self):
        """Wait for the worker to end; a worker past the deadline is killed."""
        try:
            code = self.proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        except BaseException:
            self.stop()
            raise
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")

    def result(self) -> dict:
        self.wait()
        return json.loads((self.out / "worker.json").read_text(encoding="utf-8"))

    def stop(self):
        self.proc.kill()
        self.proc.wait()


def percentile(values, q: int) -> float:
    """q-th percentile by statistics.quantiles (inclusive); one sample is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def gate(passes):
    """Correctness ratios over all passes, every one of which must be 0, and
    the number of passes that failed: raised, failed a check or drifted."""
    checks = sum(p["checks"] for p in passes)
    failed_checks = sum(len(p["failed_checks"]) for p in passes)
    drifted = [p["digest"] != passes[0]["digest"] for p in passes]
    ratios = {
        "check_fail_ratio": failed_checks / checks if checks else 1.0,
        "error_ratio": sum(p["error"] is not None for p in passes) / len(passes),
        "report_drift": sum(drifted) / len(passes),
    }
    failed = sum(bool(p["error"] or p["failed_checks"]) or drift
                 for p, drift in zip(passes, drifted))
    return ratios, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="reduced generated sizes, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chronolab" / "__init__.py").is_file():
        print(f"no chronolab source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out = root / ".bench_out" / f"{args.workload}.seed{args.seed}.trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + RUN_TIMEOUT_S

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = Worker(args, 0, out, deadline)
            setup_samples.append(probe.setup_s)
            probe.wait()
    worker = Worker(args, args.seconds, out, deadline)
    setup_samples.append(worker.setup_s)
    result = worker.result()

    passes = result["passes"]
    ratios, failed = gate(passes)
    correct = not any(ratios.values())
    times = [p["seconds"] for p in passes if not p["traced"]]
    if args.trace:
        metrics = result["layers"]
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "pass_s.p50": statistics.median(times),
            "pass_s.p90": percentile(times, 90),
            "checks_per_s": sum(p["checks"] for p in passes) / sum(times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, closed loop, 1 worker process; "
          f"pass_s over the {len(times)} untraced passes")
    for name, value in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {units[name]}")
    for name, value in ratios.items():
        print(f"  {name:<45} {value:>14.6g} ratio")
    meta = result["metadata"]
    print(f"  nproc {meta['nproc']}, python {meta['python']}, numpy {meta['numpy']}, "
          f"BLAS {meta['blas']['library']} {meta['blas']['version']} "
          f"({meta['blas']['threads']} threads), warm-up eigh {meta['warmup_eigh_s']:.4f} s "
          f"at dim {meta['warmup_eigh_dim']} (in setup_s)")
    if args.trace:
        key, label = DOMINANT_SHARE[args.workload]
        print(f"  dominant layer on {args.workload}: {label} = {metrics[key]:.1%} "
              "of traced pass time")
        print("  quantum.build_extended.bytes is computed as 16*(n*M)^2 per call, not measured")
        print("  no layer queues or waits, so no waiting-time metric is reported")
    for p in passes:
        if p["error"] or p["failed_checks"]:
            print(f"  FAILED pass: {p['error'] or p['failed_checks']}", file=sys.stderr)

    (out / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "units": units, "gate": ratios,
        "setup_samples": setup_samples, "metadata": meta, "passes": passes,
    }, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
