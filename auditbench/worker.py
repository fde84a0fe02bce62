"""One benchmark process: set up, signal READY, then run timed passes.

Started by run.py in a fresh interpreter, from the root of a chronolab
checkout, so that its set-up time covers interpreter start, `import
chronolab`, loading the workload's configs and one warm-up dense `eigh`.
It prints `READY` when set-up ends and, after its passes, writes one JSON
document to OUT/worker.json: per-pass records, metadata and (when traced)
per-layer metrics.  With `--seconds 0` it stops after set-up: run.py uses
that to sample set-up time several times per run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

WARMUP_DIM = 128


def _blas_info(np) -> dict:
    """BLAS library name/version from numpy's build info and its live thread count."""
    info = {"library": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        return info
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return info
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _artifact_digest(out_dir: Path):
    """Digest of every artifact with report timestamps stripped, and total bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        total += len(data)
        if path.name.endswith(".report.json"):
            doc = json.loads(data)
            doc.pop("timestamp")
            data = json.dumps(doc, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest(), total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import chronolab
    if Path(chronolab.__file__).resolve().parent != (src / "chronolab").resolve():
        print(f"chronolab imported from {chronolab.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    configs, seed_override = workloads.load(chronolab, args.workload, args.seed, args.toy)
    rng = np.random.default_rng(args.seed % workloads.SEED_MODULUS)
    a = rng.normal(size=(WARMUP_DIM, WARMUP_DIM)) + 1j * rng.normal(size=(WARMUP_DIM, WARMUP_DIM))
    start = time.perf_counter()
    np.linalg.eigh(a + a.conj().T)
    warmup_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    print("READY", flush=True)

    metadata = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "warmup_eigh_dim": WARMUP_DIM,
        "warmup_eigh_s": warmup_s,
    }
    if args.seconds <= 0:
        return 0

    out_dir = args.out / "artifacts"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    passes = []
    traced_passes: dict[int, float] = {}
    untraced_times: list[float] = []
    # traced runs alternate untraced and traced passes, so drift hits both
    min_passes = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    # start a pass only if it should end within half a pass of the deadline,
    # so a run measures about --seconds whatever the pass length
    while (len(passes) < min_passes or time.perf_counter()
           + 0.5 * statistics.median(p["seconds"] for p in passes) < deadline):
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.pass_id = index
            tracer.install()
        error = None
        reports = []
        start = time.perf_counter()
        try:
            for cfg in configs:
                reports.append(chronolab.run_scenario(
                    cfg, out_dir=out_dir, formats=("json", "csv"), seed=seed_override))
        except Exception:  # a raising pass is counted, not fatal
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            traced_passes[index] = elapsed
        else:
            untraced_times.append(elapsed)
        digest, size = _artifact_digest(out_dir)
        records = [rec for report in reports for rec in report.records]
        passes.append({
            "seconds": elapsed,
            "traced": traced,
            "checks": len(records),
            "failed_checks": [rec.check_id for rec in records if not rec.passed],
            "error": error,
            "digest": digest,
            "bytes_written": size,
        })

    result = {
        "metadata": metadata,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        layers = tracing.layer_metrics(tracer, traced_passes, untraced_times)
        layers["serialize.bytes_written"] = max(p["bytes_written"] for p in passes)
        result["layers"] = layers
        tracer.write(args.out / "spans.jsonl")
    (args.out / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
