#!/usr/bin/env python3
"""Quick self-test of the audit benchmark.  Run from the checkout root:

    python3 auditbench/selftest.py

It checks that
  * the config generator is deterministic, yields valid configs of the
    advertised shape for many seeds at full size, and configs whose audits
    all pass for many seeds at toy size;
  * run.py emits exactly the BENCHMARK.json metrics, with their units, for
    every workload at toy size, untraced and traced;
  * run.py fails, without printing a result, where there is no chronolab
    source to benchmark.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

GENERATOR_SEEDS = range(200)
TOY_AUDIT_SEEDS = range(25)


def check(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_generator():
    import chronolab

    for name, grid in workloads.GRIDS.items():
        texts = set()
        for seed in GENERATOR_SEEDS:
            text = workloads.grid_config_text(name, grid, seed)
            check(text == workloads.grid_config_text(name, grid, seed),
                  f"{name} seed {seed}: generator is not deterministic")
            texts.add(text)
            cfg = chronolab.parse_config(text)
            energies = cfg.system.energies
            check(len(set(energies)) == grid.n_levels,
                  f"{name} seed {seed}: expected {grid.n_levels} distinct energies")
            check(cfg.clock.M == grid.M and cfg.constraint.expected_dim == grid.n_levels,
                  f"{name} seed {seed}: wrong grid size or expected_dim")
            check(cfg.suites == grid.suites, f"{name} seed {seed}: wrong suites")
        check(len(texts) == len(GENERATOR_SEEDS), f"{name}: seeds collide")

    for name, grid in workloads.TOY_GRIDS.items():
        for seed in TOY_AUDIT_SEEDS:
            (cfg,), _ = workloads.load(chronolab, name, seed, toy=True)
            report = chronolab.run_scenario(cfg)
            failed = [r.check_id for r in report.records if not r.passed]
            check(not failed, f"toy {name} seed {seed}: failed checks {failed}")
    print(f"generator: {len(GENERATOR_SEEDS)} seeds parsed per workload, "
          f"{len(TOY_AUDIT_SEEDS)} toy audits passed per workload")


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "auditbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            check(proc.returncode == 0,
                  f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload} trace {trace}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: incorrect run {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected[trace],
                  f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(expected[trace]) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected[trace]))}")
            print(f"metrics: {workload} trace {trace}: {len(got)} metrics emitted")


def test_fails_without_source():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "auditbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "dense_grid", 0)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py must fail without printing a result when src/chronolab is absent")
    shutil.rmtree(bare)
    print("bare directory: run.py exits", proc.returncode, "without a result")


if __name__ == "__main__":
    test_generator()
    test_metrics_emitted()
    test_fails_without_source()
    print("selftest passed")
