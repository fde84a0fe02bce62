import collections
import contextlib
import gc
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chronolab import (ChronolabError, ClockSpace, ConfigError, ExtendedSpace, ScenarioConfig,
                       classical, constraint, parse_config, povm, quantum, serialize_config)
from chronolab import config, scenarios
from chronolab.cli import _run_isolated, main
from chronolab.config import SUITE_NAMES, SYSTEM_KINDS
from chronolab.scenarios import AuditReport, CheckRecord, bundled_scenarios, run_scenario

QUBIT = """
scenario = qubit_test
suites = constraint-solve, povm-audit, time-distribution, covariance
seed = 7
system.kind = qubit
system.energies = 0.0, 3.141592653589793
clock.M = 64
clock.deltaT = 0.25
constraint.expected_dim = 2
"""


@contextlib.contextmanager
def address_space_cap(headroom: int):
    """Cap this process's address space at its current size plus
    `headroom` bytes, so a larger allocation raises MemoryError; uncapped
    where /proc/self/statm cannot be read."""
    import resource
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + headroom if hard == resource.RLIM_INFINITY else min(size + headroom, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def test_bundled_scenarios_parse():
    configs = bundled_scenarios()
    assert len(configs) == 6
    names = [cfg.scenario for cfg in configs]
    assert names == sorted(set(names), key=names.index)  # unique, stable order
    assert "qubit_commensurate" in names
    assert "incommensurate_demo" in names


def test_run_scenario_passes_and_is_deterministic(tmp_path):
    cfg = parse_config(QUBIT)
    a = run_scenario(cfg, out_dir=tmp_path / "a", formats=("json", "csv"))
    b = run_scenario(cfg, out_dir=tmp_path / "b", formats=("json", "csv"))
    assert a.passed and b.passed
    text_a = (tmp_path / "a" / "qubit_test.report.json").read_text()
    text_b = (tmp_path / "b" / "qubit_test.report.json").read_text()
    assert strip_timestamp(text_a) == strip_timestamp(text_b)


def test_report_structure(tmp_path):
    cfg = parse_config(QUBIT)
    report = run_scenario(cfg, out_dir=tmp_path)
    doc = json.loads((tmp_path / "qubit_test.report.json").read_text())
    assert doc["scenario"] == "qubit_test"
    assert doc["passed"] is True
    ids = [r["check_id"] for r in doc["records"]]
    assert len(ids) == len(set(ids))  # unique check ids
    assert len(doc["config_digest"]) == 64
    # povm summary artifact carries the headline numbers
    povm_doc = json.loads((tmp_path / "qubit_test.povm.json").read_text())
    assert povm_doc["d"] == 2
    assert povm_doc["M"] == 64
    assert povm_doc["sigma"] == 1
    assert povm_doc["defects"]["orthogonality_defect"] > 1e-6
    assert povm_doc["completeness_residual"] < 1e-10
    sub_doc = json.loads((tmp_path / "qubit_test.subspace.json").read_text())
    assert sub_doc["d"] == 2


REPORT_JSON = """{
  "config_digest": "abababababababababababababababababababababababababababababababab",
  "environment": {
    "numpy": "1.26.4",
    "python": "3.11.7"
  },
  "passed": false,
  "records": [
    {
      "check_id": "povm.completeness_residual",
      "comparator": "<=",
      "note": "",
      "passed": true,
      "threshold": 1e-10,
      "value": 2.5e-16
    },
    {
      "check_id": "povm.physical_dim",
      "comparator": ">=",
      "note": "the physical subspace is empty",
      "passed": false,
      "threshold": 1.0,
      "value": 0.0
    }
  ],
  "scenario": "tiny",
  "seed": 7,
  "suites": [
    "povm-audit",
    "covariance"
  ],
  "timestamp": "2026-01-01T00:00:00+00:00"
}
"""


def test_report_json_is_pinned():
    # the report's fields, each record's fields and the derived `passed`
    report = AuditReport(
        scenario="tiny", suites=("povm-audit", "covariance"),
        records=(CheckRecord("povm.completeness_residual", 2.5e-16, 1e-10, "<=", True),
                 CheckRecord("povm.physical_dim", 0.0, 1.0, ">=", False,
                             note="the physical subspace is empty")),
        config_digest="ab" * 32, seed=7,
        environment={"python": "3.11.7", "numpy": "1.26.4"},
        timestamp="2026-01-01T00:00:00+00:00")
    assert report.to_json() == REPORT_JSON


def test_run_scenario_seed_override():
    cfg = parse_config(QUBIT)
    report = run_scenario(cfg, seed=99)
    assert report.seed == 99
    assert report.passed


def test_run_scenario_rejects_a_negative_seed_override(tmp_path):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        run_scenario(parse_config(QUBIT), out_dir=tmp_path / "out", seed=-1)
    assert list(tmp_path.iterdir()) == []


def test_run_scenario_rejects_an_unvalidated_config(tmp_path):
    # built in code, not parsed: the name would put artifacts beside `out`
    cfg = ScenarioConfig(scenario="../escaped", suites=("constraint-solve",))
    with pytest.raises(ConfigError, match="file-name stem"):
        run_scenario(cfg, out_dir=tmp_path / "out", formats=("json", "csv"))
    assert list(tmp_path.iterdir()) == []


def test_run_scenario_requires_suites():
    cfg = parse_config("scenario = bare\nsystem.kind = qubit\n")
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_suite_mismatch_raises_config_error():
    cfg = parse_config("scenario = x\nsystem.kind = qubit\n")
    with pytest.raises(ConfigError):
        run_scenario(cfg, suites=("classical-equivalence",))


def test_expected_dim_failure_is_reported_not_raised():
    cfg = parse_config(QUBIT.replace("constraint.expected_dim = 2",
                                     "constraint.expected_dim = 3"))
    report = run_scenario(cfg, suites=("constraint-solve",))
    assert not report.passed
    failing = [r for r in report.records if not r.passed]
    assert any("expected_dim" in r.check_id for r in failing)


# --- command line ----------------------------------------------------------------

def test_cli_single_suite_pass(tmp_path, capsys):
    cfg_path = tmp_path / "qubit.cfg"
    cfg_path.write_text(QUBIT)
    code = main(["constraint-solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "[PASS]" in captured.out
    assert (tmp_path / "out" / "qubit_test.report.json").exists()


def test_cli_check_failure_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(QUBIT.replace("constraint.expected_dim = 2",
                                      "constraint.expected_dim = 5"))
    code = main(["constraint-solve", "--config", str(cfg_path)])
    assert code == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    # removed keys: hex_drift set the threshold of a check that repeated
    # constraint_drift, every nonzero t0 failed time_mismatch by construction,
    # and the two classical thresholds had one value in use
    for line in ("foo = 1", "tolerances.hex_drift = 1e-8", "classical.t0 = 0.5",
                 "tolerances.state_deviation = 1e-9", "tolerances.time_residual = 1e-10"):
        cfg_path = tmp_path / "broken.cfg"
        cfg_path.write_text(f"scenario = broken\nsystem.kind = qubit\n{line}\n")
        code = main(["constraint-solve", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown key" in captured.err


def test_cli_missing_config_file(tmp_path):
    code = main(["povm-audit", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


STIFF = """
scenario = stiff
suites = classical-equivalence
system.kind = oscillator
system.omega = 100.0
classical.dt = 0.1
classical.t_end = 1.0
"""
# pi/deltaT is finite, but the dense S_op overflows and eigh cannot converge
FINEST_GRID = """
scenario = finest_grid
system.kind = qubit
clock.deltaT = 2e-308
"""


@pytest.mark.parametrize("command, text", [
    ("classical-equivalence", STIFF),
    ("quantum-equivalence", FINEST_GRID),
    ("constraint-solve", FINEST_GRID),
], ids=["stiff-oscillator", "finest-grid-quantum", "finest-grid-constraint"])
def test_cli_numerical_failure_exit_code(tmp_path, capsys, command, text):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(text)
    code = main([command, "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err and "Traceback" not in err


@pytest.mark.parametrize("dt, t_end, steps", [
    ("5e-324", "1e308", "inf"),
    ("1e-12", "6.283185307179586", "6.28319e+12"),
], ids=["overflowing-step-count", "oversized-step-count"])
def test_cli_rejects_a_classical_run_past_the_step_budget(tmp_path, monkeypatch, capsys,
                                                          dt, t_end, steps):
    # a missed check would queue the steps, so entering the loop fails at once
    def no_stepping(*args, **kwargs):
        raise AssertionError("the midpoint loop was entered")

    monkeypatch.setattr(classical, "_midpoint", no_stepping)
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text("scenario = long\nsuites = classical-equivalence\n"
                        f"system.kind = oscillator\nclassical.dt = {dt}\n"
                        f"classical.t_end = {t_end}\n")
    start = time.perf_counter()
    code = main(["classical-equivalence", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert f"at most {classical.MAX_CLASSICAL_STEPS} steps; got {steps}" in err
    assert "Traceback" not in err
    assert elapsed < 5.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.cfg"]


CONFIG_DIR = Path(quantum.__file__).parent / "configs"


def bundled_with(name, key, value):
    """The text of bundled config `name` with `key` set to `value`."""
    lines = (CONFIG_DIR / name).read_text(encoding="utf-8").splitlines()
    return "\n".join([line for line in lines if not line.startswith(key + " ")]
                     + [f"{key} = {value}"]) + "\n"


# E theta overflows for the sampled evolution parameters |theta| > 1.8
OVERFLOWING_PHASE = """
scenario = overflowing_phase
system.kind = explicit-matrix
system.energies = 1e308, 0
"""


@pytest.mark.parametrize("command, text, message", [
    ("constraint-solve", """
scenario = oversized
system.kind = oscillator
system.n_levels = 100
clock.M = 1024
""", "exceeds the dense-solver budget"),
    ("quantum-equivalence", """
scenario = tiny_step
system.kind = qubit
clock.deltaT = 1e-308
""", "clock grid leaves the float range"),
    # refused on the level count: the 10**9 x 10**9 draw is never asked for
    ("covariance", """
scenario = huge_system
system.kind = random-hermitian
system.n_levels = 1000000000
""", "exceeds the dense-solver budget"),
    # nor the 10**9 ladder energies
    ("constraint-solve", """
scenario = huge_ladder
system.kind = oscillator
system.n_levels = 1000000000
""", "exceeds the dense-solver budget"),
    # every snapped level matches every frequency: d = n M = 8192, so the
    # dense (8192, 8192) spectral basis is refused before it is built
    ("constraint-solve", bundled_with("04_oscillator_snapped.cfg", "clock.M", "1024")
     + "tolerances.eps_match = 1e12\n", "exceeds the dense-basis bound"),
    ("quantum-equivalence", OVERFLOWING_PHASE, "phase theta * energy leaves the float range"),
    ("constraint-solve", OVERFLOWING_PHASE, "phase theta * energy leaves the float range"),
    # the one-bin step of the conditional-propagator check: 1e308 * deltaT overflows
    ("time-distribution", """
scenario = overflowing_step
suites = time-distribution
system.kind = explicit-matrix
system.energies = 0.0, 0.39269908169872414, 1e308
clock.M = 64
clock.deltaT = 2.0
""", "phase theta * energy leaves the float range"),
], ids=["oversized", "tiny-deltaT", "huge-n-levels", "huge-oscillator",
        "every-level-matches-every-frequency", "overflowing-phase-quantum",
        "overflowing-phase-constraint", "overflowing-phase-time-distribution"])
def test_cli_invalid_input_exit_code(tmp_path, capsys, command, text, message):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(text)
    # an input refused only after a large allocation fails here with a
    # MemoryError instead of taking the memory
    with address_space_cap(512 * 2 ** 20):
        code = main([command, "--config", str(cfg_path)])
    assert code == 2
    assert message in capsys.readouterr().err


# an initial point whose energy overflows: numpy only warns on the overflow,
# so the warning must neither escape nor change the exit code
@pytest.mark.parametrize("text", [
    "scenario = far\nsystem.kind = oscillator\nclassical.q0 = 1e200\n",
    "scenario = fast\nsystem.kind = free-particle\nclassical.p0 = 1e200\n",
], ids=["oscillator-q0", "free-particle-p0"])
def test_cli_overflowing_initial_energy_exits_2(tmp_path, capsys, text):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under PYTHONWARNINGS=error
        code = main(["classical-equivalence", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "overflows the float range" in err
    assert "Traceback" not in err


SNAPPED_COLLISION = bundled_with("04_oscillator_snapped.cfg", "system.omega", "0.01")
INCOMMENSURATE_EMPTY = bundled_with("05_incommensurate_demo.cfg", "system.energies",
                                    "0.19634954084936207, 0.5890486225480862")


# valid configs whose physics leaves no time POVM: "invalid input" means the
# config, so each is one failing check with a note (exit 1), not exit 2; every
# warning is an error under pytest, as under PYTHONWARNINGS=error
@pytest.mark.parametrize("command, text, check_id", [
    ("povm-audit", """
scenario = colliding
system.kind = qubit
system.energies = 0.0, 0.0
clock.M = 16
clock.deltaT = 0.5
""", "povm.shared_matched_frequencies"),
    ("time-distribution", """
scenario = empty
system.kind = qubit
system.energies = 0.3, 0.7
clock.M = 16
clock.deltaT = 0.5
tolerances.eps_match = 0.01
""", "distribution.physical_dim"),
    ("povm-audit", SNAPPED_COLLISION, "povm.shared_matched_frequencies"),
    ("time-distribution", SNAPPED_COLLISION, "distribution.shared_matched_frequencies"),
    ("povm-audit", INCOMMENSURATE_EMPTY, "povm.physical_dim"),
    ("time-distribution", INCOMMENSURATE_EMPTY, "distribution.physical_dim"),
], ids=["colliding-frequencies", "empty-subspace", "snapped-collision-povm",
        "snapped-collision-distribution", "incommensurate-empty-povm",
        "incommensurate-empty-distribution"])
def test_cli_degenerate_physics_is_a_failing_check(tmp_path, capsys, command, text,
                                                   check_id):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(text)
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(next((tmp_path / "out").glob("*.report.json")).read_text())
    failed = [r for r in report["records"] if not r["passed"]]
    assert [r["check_id"] for r in failed] == [check_id]
    assert "no time POVM" in failed[0]["note"]
    assert f"[FAIL] {check_id}" in captured.out
    assert not list((tmp_path / "out").glob("*.povm.json"))


# the upper level matches the edge frequency k = -M/2, which has no partner
# +M/2 under the opposite sign: one failing check with both pair counts
EDGE_SIGN_PAIR = bundled_with("06_sign_pair.cfg", "system.energies", "0.0, 12.566370614359172")


def test_cli_sign_pair_on_the_edge_frequency_is_a_failing_check(tmp_path, capsys):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(EDGE_SIGN_PAIR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under PYTHONWARNINGS=error
        code = main(["povm-audit", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(next((tmp_path / "out").glob("*.report.json")).read_text())
    failed = [r for r in report["records"] if not r["passed"]]
    assert [(r["check_id"], r["value"], r["threshold"]) for r in failed] == [
        ("povm.sigma_pair_matched_pairs", 1.0, 2.0)]
    assert "2 matched pairs under sigma = 1, 1 under the opposite sign" in failed[0]["note"]
    ids = [r["check_id"] for r in report["records"]]
    assert not any(i.startswith("povm.sigma_pair_") and i != failed[0]["check_id"] for i in ids)


# two levels half a grid step off the grid, one step apart: each distance tie
# resolves to the lower frequency index under either sign, so sigma = -1
# matches k = 0 and 1 but sigma = +1 matches k = -1 twice, with no mirrors
HALF_SPACING_SIGN_PAIR = """
scenario = half_spacing_pair
suites = povm-audit
seed = 50
system.kind = oscillator
system.n_levels = 2
system.omega = 1.3089969389957472
clock.M = 16
clock.deltaT = 0.3
clock.sigma = -1
compare_sigmas = true
"""


def test_cli_sign_pair_on_a_half_spacing_tie_is_a_failing_check(tmp_path, capsys):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(HALF_SPACING_SIGN_PAIR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under PYTHONWARNINGS=error
        code = main(["povm-audit", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(next((tmp_path / "out").glob("*.report.json")).read_text())
    failed = [r for r in report["records"] if not r["passed"]]
    assert [(r["check_id"], r["value"], r["threshold"]) for r in failed] == [
        ("povm.sigma_pair_matched_pairs", 1.0, 2.0)]
    assert "2 matched pairs under sigma = -1, 2 under the opposite sign" in failed[0]["note"]


# one level matched twice under a wide eps_match: k = -1 and 0 under
# sigma = +1, k = 0 and 1 under sigma = -1, so the mirrors run in reverse
MIRRORED_SIGN_PAIR = """
scenario = mirrored_pair
suites = povm-audit
seed = 51
compare_sigmas = true
system.kind = explicit-matrix
system.energies = 0.11780972450961724
clock.M = 16
clock.deltaT = 1.0
tolerances.eps_match = 0.29452431127404311
"""


def test_cli_sign_pair_compares_effects_in_mirror_order(tmp_path, capsys):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(MIRRORED_SIGN_PAIR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under PYTHONWARNINGS=error
        code = main(["povm-audit", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    report = json.loads(next((tmp_path / "out").glob("*.report.json")).read_text())
    sign_pair = {r["check_id"]: r for r in report["records"]
                 if r["check_id"].startswith("povm.sigma_pair_")}
    assert set(sign_pair) == {"povm.sigma_pair_conjugate_effects",
                              "povm.sigma_pair_real_distribution"}
    assert all(r["passed"] for r in sign_pair.values())


# the level above matched twice (k = -1 and 0), and one grid level matched once (k = -3)
TWICE_MATCHED = MIRRORED_SIGN_PAIR.replace("povm-audit", "time-distribution").replace(
    "system.energies = 0.11780972450961724", "system.energies = 0.11780972450961724, "
                                              "1.1780972450961724")


def test_population_check_skips_a_level_matched_twice(monkeypatch):
    system = quantum.build_system_space(np.diag([0.11780972450961724, 1.1780972450961724]))
    ext = quantum.build_extended(system, quantum.build_clock(16, 1.0))
    pairs = constraint.solve_constraint_spectral(ext, 0.29452431127404311).pairs
    assert [(p.i, p.k) for p in pairs] == [(0, -1), (0, 0), (1, -3)]
    events = []

    def recording(*args, _original=povm.EventOperator, **kwargs):
        events.append(_original(*args, **kwargs))
        return events[-1]

    monkeypatch.setattr(povm, "EventOperator", recording)
    records = {r.check_id: r for r in run_scenario(parse_config(TWICE_MATCHED)).records}
    assert list(records)[-1] == "distribution.population_clock_independence"
    assert records["distribution.population_clock_independence"].passed
    # one event, on the level matched once
    assert len(events) == 1
    assert np.array_equal(events[0].projector, np.diag([0.0, 1.0]))

    events.clear()
    twice_only = MIRRORED_SIGN_PAIR.replace("povm-audit", "time-distribution")
    ids = [r.check_id for r in run_scenario(parse_config(twice_only)).records]
    assert "distribution.two_pair_fringe" in ids  # d = 2, on one level
    assert "distribution.population_clock_independence" not in ids
    assert events == []


def test_conditional_fidelity_names_the_levels_matched_twice():
    records = {r.check_id: r for r in run_scenario(parse_config(TWICE_MATCHED)).records}
    fidelity = records["distribution.conditional_propagator_fidelity"]
    # the failure stands: level 0's second pair sits off the kernel by its mismatch
    assert not fidelity.passed
    assert abs(fidelity.value - 0.565) < 1e-3
    assert fidelity.threshold == 1.0 - 1e-10
    assert fidelity.note.startswith("levels [0] matched more than once")
    # a run whose levels are each matched once keeps an empty note
    records = {r.check_id: r for r in run_scenario(parse_config(QUBIT)).records}
    assert records["distribution.conditional_propagator_fidelity"].note == ""


# two levels matched once each, both off the grid by less than eps_match
OFF_GRID = """
scenario = off_grid
suites = time-distribution
system.kind = explicit-matrix
system.energies = 0.1, 1.2
clock.M = 16
clock.deltaT = 1.0
tolerances.eps_match = 0.19
"""


def test_cli_conditional_fidelity_names_the_levels_matched_off_the_grid(tmp_path, capsys):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(OFF_GRID)
    code = main(["time-distribution", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 1  # the failure stands: each pair steps by its clock frequency
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(next((tmp_path / "out").glob("*.report.json")).read_text())
    fidelity, = (r for r in report["records"]
                 if r["check_id"] == "distribution.conditional_propagator_fidelity")
    assert not fidelity["passed"]
    assert abs(fidelity["value"] - 0.999238) < 1e-6
    assert fidelity["note"].startswith("levels [0, 1] matched off the grid")


# the same off-grid pairs fail the constraint checks by their mismatch, and
# M = 16 puts the default clock packet (width M*deltaT/20 = 0.8) below one
# grid step; each failure stands and its note says why
@pytest.mark.parametrize("command, notes", [
    ("quantum-equivalence", {
        "quantum.commutator_residual_gaussian":
            "the default packet width M*deltaT/20 = 0.8 is below the clock step deltaT = 1"}),
    ("constraint-solve", {
        check_id: "levels [0, 1] matched off the grid: each pair sits off the kernel"
        for check_id in ("constraint.basis_residual", "constraint.restricted_s_matrix",
                         "constraint.stationarity_fidelity")}),
])
def test_cli_failures_on_a_coarse_off_grid_run_carry_notes(tmp_path, capsys, command, notes):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(OFF_GRID)
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == ""
    report = json.loads(next((tmp_path / "out").glob("*.report.json")).read_text())
    failed = {r["check_id"]: r["note"] for r in report["records"] if not r["passed"]}
    assert set(failed) == set(notes)
    for check_id, note in notes.items():
        assert failed[check_id].startswith(note)
    passed_notes = [r["note"] for r in report["records"] if r["passed"]]
    assert passed_notes == [""] * len(passed_notes)


# one level matching every clock frequency: d = M = 1024, so the dense
# (M, d, d) effect stack would take 16 GiB
WIDE_EPS = """
scenario = wide_eps
suites = povm-audit
system.kind = explicit-matrix
system.energies = 0.0
clock.M = 1024
clock.deltaT = 0.25
tolerances.eps_match = 1000000.0
"""


def test_no_run_reads_the_effect_stack(monkeypatch, tmp_path, capsys):
    bundled = {cfg.scenario: cfg for cfg in bundled_scenarios()}
    names = ("qubit_commensurate", "oscillator_snapped", "sign_pair")
    flags = {name: [(r.check_id, r.passed) for r in run_scenario(bundled[name]).records]
             for name in names}

    def refuse(self):
        raise AssertionError("the dense effect stack was read")

    monkeypatch.setattr(povm.TimePOVM, "effects", property(refuse))
    for name in names:
        assert [(r.check_id, r.passed) for r in run_scenario(bundled[name]).records] \
            == flags[name]
    cfg_path = tmp_path / "wide_eps.cfg"
    cfg_path.write_text(WIDE_EPS)
    assert main(["povm-audit", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert "OK: wide_eps (5/5 checks)" in captured.out
    assert "Traceback" not in captured.err


# one grid step on a fine clock: S_op's eigenvalues reach pi/deltaT ~ 1.6e4,
# and eigvalsh rounds them by more than an absolute 1e-10
FINE_CLOCK = """
scenario = fine_clock
system.kind = qubit
system.energies = 0.0, 30.679615757712824
clock.M = 1024
clock.deltaT = 0.0002
clock.sigma = -1
"""


@pytest.mark.parametrize("command", ["quantum-equivalence", "constraint-solve"])
def test_cli_fine_clock_passes_the_s_op_spectrum_guard(tmp_path, capsys, command):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(FINE_CLOCK)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under PYTHONWARNINGS=error
        code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert capsys.readouterr().err == ""
    assert code == 0


# 602 levels on M = 8 (dimension 4816, within the dense-solver budget); the
# defect sweep snaps them onto M = 16, 32 and 64, past it, where the
# spectral route reads no dense view
MANY_LEVELS = "\n".join((
    "scenario = many_levels",
    "suites = povm-audit",
    "system.kind = explicit-matrix",
    "system.energies = " + ", ".join(map(repr, [0.0, math.pi] + [1000.0 + j for j in range(600)])),
    "clock.M = 8",
    "clock.deltaT = 0.25",
)) + "\n"


def test_cli_defect_sweep_runs_past_the_dense_budget(tmp_path, capsys):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(MANY_LEVELS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under PYTHONWARNINGS=error
        code = main(["povm-audit", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""


# oscillator ladders at whole and half grid spacings put levels on grid
# frequencies, on half-spacing ties and on the edge k = -M/2: every sign
# pair and every defect sweep must end in a check, never in exit 2
@settings(deadline=None, derandomize=True, max_examples=40)
@given(n=st.integers(1, 8), M=st.integers(4, 32).map(lambda half: 2 * half),
       spacing=st.integers(1, 5).map(lambda halves: halves / 2),
       deltaT=st.sampled_from((0.25, 0.3, 0.5)), sigma=st.sampled_from((1, -1)),
       snap=st.booleans())
@example(n=2, M=16, spacing=1.0, deltaT=0.3, sigma=-1, snap=False)  # the half-spacing tie
def test_grid_ladders_compare_both_signs_without_exit_2(n, M, spacing, deltaT, sigma, snap):
    text = (f"scenario = ladder\nsystem.kind = oscillator\nsystem.n_levels = {n}\n"
            f"system.omega = {spacing * 2 * math.pi / (M * deltaT)!r}\nclock.M = {M}\n"
            f"clock.deltaT = {deltaT!r}\nclock.sigma = {sigma}\ncompare_sigmas = true\n"
            f"system.snap = {str(snap).lower()}\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ladder.cfg"
        path.write_text(text, encoding="utf-8")
        for command in ("povm-audit", "time-distribution"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path)])
            assert code in (0, 1), err.getvalue()


def test_time_distribution_alone_writes_what_it_computed(tmp_path):
    code = main(["time-distribution", "--config", str(CONFIG_DIR / "03_qubit_commensurate.cfg"),
                 "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "qubit_commensurate.dist.single_pair.csv", "qubit_commensurate.dist.two_pair.csv",
        "qubit_commensurate.report.json", "qubit_commensurate.subspace.json"]


@pytest.mark.parametrize("name, out, message", [
    ("sub/dir", "out", "scenario must be a file-name stem"),
    ("../escaped", "out", "scenario must be a file-name stem"),
    ("qubit_test", "afile/x", "cannot write artifacts to afile/x"),
], ids=["separator-in-name", "parent-dir-name", "out-below-a-file"])
def test_cli_artifact_path_error_exit_code(tmp_path, monkeypatch, capsys, name, out, message):
    # nothing may be written, least of all outside --out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("not a directory")
    (tmp_path / "input.cfg").write_text(QUBIT.replace("scenario = qubit_test",
                                                      f"scenario = {name}"))
    code = main(["constraint-solve", "--config", "input.cfg", "--out", out])
    assert code == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "input.cfg"]


@pytest.mark.parametrize("text, code, message", [
    ("""
scenario = bad
suites = constraint-solve
system.kind = oscillator
system.n_levels = 100
clock.M = 1024
""", 2, "exceeds the dense-solver budget"),
    ("scenario = broken\nsystem.kind = qubit\nfoo = 1\n", 2, "unknown key"),
    (QUBIT.replace("constraint.expected_dim = 2", "constraint.expected_dim = 5"), 1, ""),
    ("""
scenario = degenerate
suites = povm-audit
system.kind = explicit-matrix
system.energies = 0.0, 0.0
clock.M = 16
clock.deltaT = 0.5
""", 1, ""),
], ids=["invalid-input", "config-error", "check-failure", "degenerate-physics"])
def test_cli_all_isolates_the_extra_scenario(tmp_path, capsys, text, code, message):
    cfg_path = tmp_path / "extra.cfg"
    cfg_path.write_text(text)
    assert main(["all", "--config", str(cfg_path)]) == code  # the worst outcome
    captured = capsys.readouterr()
    assert captured.out.count("OK:") == 6  # every bundled report still printed
    if message:
        assert message in captured.err and str(cfg_path) in captured.err


def test_cli_all_runs_bundled(tmp_path, capsys):
    code = main(["all", "--out", str(tmp_path), "--format", "csv", "--seed", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("OK:") == 6
    assert (tmp_path / "qubit_commensurate.report.json").exists()
    assert (tmp_path / "classical_harmonic.original.csv").exists()
    assert (tmp_path / "qubit_commensurate.dist.two_pair.csv").exists()
    sweep = (tmp_path / "qubit_commensurate.defects.csv").read_text().splitlines()
    assert sweep[0] == "M,orthogonality_defect,idempotency_defect"
    assert len(sweep) == 4  # M = 16, 32, 64


@pytest.mark.parametrize("command", ["all", "covariance"])
def test_cli_negative_seed_is_a_config_error(tmp_path, command):
    cfg_path = tmp_path / "qubit.cfg"
    cfg_path.write_text(QUBIT)
    config = [] if command == "all" else ["--config", str(cfg_path)]
    result = subprocess.run(
        [sys.executable, "-m", "chronolab", command, *config, "--seed", "-1",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert "seed must be >= 0" in result.stderr
    assert "Traceback" not in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["qubit.cfg"]


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


WIDE_CLOCK = """
scenario = wide
suites = povm-audit, time-distribution, covariance
seed = 3
compare_sigmas = true
system.kind = explicit-matrix
system.energies = 0.0, 1.2
system.snap = true
clock.M = 512
clock.deltaT = 0.05
constraint.expected_dim = 2
"""


def test_spectral_suites_build_no_dense_view(monkeypatch):
    def refuse(self):
        raise AssertionError("dense view built")

    monkeypatch.setattr(ExtendedSpace, "eigensystem", refuse)
    monkeypatch.setattr(ExtendedSpace, "hamiltonian", property(refuse))
    monkeypatch.setattr(ClockSpace, "S_op", property(refuse))
    report = run_scenario(parse_config(WIDE_CLOCK))
    assert report.passed
    ids = {r.check_id for r in report.records}
    assert {"povm.sigma_pair_conjugate_effects", "distribution.conditional_propagator_fidelity",
            "covariance.physical_marginal_invariance"} <= ids


STEP = 2 * math.pi / (32 * 0.25)
TOY_GRID = f"""
scenario = toy_grid
suites = quantum-equivalence, constraint-solve, povm-audit, time-distribution, covariance
seed = 11
system.kind = explicit-matrix
system.energies = {', '.join(repr(-k * STEP) for k in (-9, -2, 3, 8))}
clock.M = 32
clock.deltaT = 0.25
constraint.expected_dim = 4
"""

RANDOM_PAIR = """
scenario = random_pair
suites = quantum-equivalence, constraint-solve
seed = 5
system.kind = random-hermitian
system.n_levels = 3
system.snap = true
"""


@pytest.fixture
def decompositions(monkeypatch):
    """Extended spaces whose eigh ran, one entry per decomposition."""
    filled = []
    original = ExtendedSpace.eigensystem

    def eigensystem(self):
        if self._eig is None:
            filled.append(self)
        return original(self)

    monkeypatch.setattr(ExtendedSpace, "eigensystem", eigensystem)
    return filled


def test_one_decomposition_per_distinct_space_per_run(decompositions):
    cfg = parse_config(TOY_GRID)
    for runs in (1, 2):  # nothing is cached across calls
        assert run_scenario(cfg).passed
        assert len(decompositions) == runs
    decompositions.clear()
    # a random-hermitian matrix is drawn once per run, from a stream of its
    # own, so both suites read the one space that holds it
    cfg = parse_config(RANDOM_PAIR)
    assert run_scenario(cfg).passed
    assert len(decompositions) == 1
    rng = np.random.default_rng((cfg.seed, 6))  # past the six suites' streams
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    drawn, _ = constraint.snap_energies(quantum.build_system_space(0.5 * (raw + raw.conj().T)),
                                        decompositions[0].clock)
    assert decompositions[0].system.matrix.tobytes() == drawn.matrix.tobytes()


def test_appending_a_suite_keeps_the_random_hermitian_draw(monkeypatch):
    cfg = parse_config(RANDOM_PAIR)
    drawn = scenarios._system_matrix(cfg, cfg.seed)
    monkeypatch.setattr(scenarios, "SUITE_NAMES", SUITE_NAMES + ("correspondence",))
    assert scenarios._system_matrix(cfg, cfg.seed).tobytes() == drawn.tobytes()


def test_every_check_id_has_one_row_in_the_readme_claim_table():
    source = Path(scenarios.__file__).read_text(encoding="utf-8")
    ids = re.findall(r'\b(?:run|self)\.add\(\s*"(\w+)"', source)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n### Check claims\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert len(ids) == len(set(ids)) > 40
    assert len(rows) == len(set(rows))
    assert set(rows) == set(ids)


def test_one_setup_per_run(monkeypatch):
    calls = []
    for module, name in ((quantum, "build_extended"),
                         (constraint, "solve_constraint_spectral"),
                         (povm, "build_time_povm")):
        def counted(*args, _original=getattr(module, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    cfg = parse_config(TOY_GRID)
    assert not cfg.compare_sigmas  # so no sigma-pair space
    # povm-audit's defect sweep builds, solves and measures M = 16, 32, 64 itself
    sweep = 3
    for _ in range(2):
        calls.clear()
        assert run_scenario(cfg).passed
        assert collections.Counter(calls) == {"build_extended": 1 + sweep,
                                              "solve_constraint_spectral": 1 + sweep,
                                              "build_time_povm": 1 + sweep}


RANDOM_ALL = RANDOM_PAIR.replace(
    "quantum-equivalence, constraint-solve",
    "quantum-equivalence, constraint-solve, povm-audit, time-distribution, covariance")


def is_snap(record):
    return record.check_id.endswith(".snap_max_shift")


@pytest.mark.parametrize("text", [
    RANDOM_ALL,
    (Path(quantum.__file__).parent / "configs" / "04_oscillator_snapped.cfg").read_text(),
], ids=["random-hermitian", "oscillator-snapped"])
def test_a_suite_records_the_same_alone_or_with_the_others(text):
    cfg = parse_config(text)
    together = run_scenario(cfg).records
    snaps = [r for r in together if is_snap(r)]
    assert len(snaps) == 1  # by the suite that builds the system
    for name in cfg.suites:
        alone = run_scenario(cfg, suites=(name,)).records
        prefix = alone[-1].check_id.split(".")[0] + "."
        assert [r for r in alone if not is_snap(r)] == \
            [r for r in together if r.check_id.startswith(prefix) and not is_snap(r)]
        assert [(r.value, r.note) for r in alone if is_snap(r)] == [(snaps[0].value, snaps[0].note)]


def assemble_hex(ext, mutate):
    """H_ex written block by block, independently of the package, with
    `mutate(blocks, system matrix, clock)` applied to the (n, M, n, M) blocks."""
    matrix, clock = ext.system.matrix, ext.clock
    n, M = matrix.shape[0], clock.M
    blocks = np.zeros((n, M, n, M), dtype=complex)
    for i in range(n):
        for j in range(n):
            blocks[i, :, j, :] = matrix[i, j] * np.eye(M)
        blocks[i, :, i, :] += clock.sigma * clock.S_op
    if mutate is not None:
        mutate(blocks, matrix, clock)
    return blocks.reshape(n * M, n * M)


def flip_one_clock_sign(blocks, matrix, clock):
    blocks[0, :, 0, :] -= 2 * clock.sigma * clock.S_op  # level 0 sees -sigma S


def one_energy_on_one_bin(blocks, matrix, clock):
    blocks[1, 1:, 1, 1:] -= matrix[1, 1] * np.eye(clock.M - 1)  # H_s[1, 1] on bin 0 only


def flip_last_clock_sign(blocks, matrix, clock):
    blocks[-1, :, -1, :] -= 2 * clock.sigma * clock.S_op  # the last level, served by reuse, sees -sigma S


@pytest.mark.parametrize("mutate", [None, flip_one_clock_sign, one_energy_on_one_bin,
                                    flip_last_clock_sign])
def test_the_dense_oracle_catches_a_mis_assembled_hex(monkeypatch, mutate):
    # the mutants keep the level blocks decoupled, so eigensystem() still
    # splits H_ex; only its reading of the assembled entries can catch them
    def blocks(ext):
        H = assemble_hex(ext, mutate)
        return [(rows, H[np.ix_(rows, rows)]) for rows in quantum._connected_components(H)]

    monkeypatch.setattr(ExtendedSpace, "_blocks", blocks)
    cfg = parse_config(TOY_GRID)
    system = quantum.build_system_space(np.diag(cfg.system.energies))
    ext = quantum.build_extended(system, quantum.build_clock(cfg.clock.M, cfg.clock.deltaT))
    deviation = quantum.verify_kronecker_spectrum(ext)
    # whatever was assembled, every block's values ascend: readers take
    # column 0 of a block as its lowest eigenvector
    assert all(np.all(np.diff(values) >= 0) for _, values, _ in ext.eigensystem())
    report = run_scenario(cfg, suites=("constraint-solve",))
    failed = [r.check_id for r in report.records if not r.passed]
    if mutate is None:  # the independent assembly itself is sound
        assert deviation < 1e-9 and not failed
    else:
        assert deviation > 1e-9
        assert failed and all(check.startswith("constraint.") for check in failed)


def test_the_dense_oracle_holds_no_dense_hex():
    # 16 levels on 64 bins: dim 1024, so one dense complex H_ex is 16 dim^2
    # bytes (16.8 MB); the oracle reads its blocks from the two factors
    step = 2 * math.pi / (64 * 0.25)
    cfg = parse_config("\n".join((
        "scenario = dense_memory",
        "suites = quantum-equivalence, constraint-solve",
        "seed = 3",
        "system.kind = explicit-matrix",
        "system.energies = " + ", ".join(repr(-k * step) for k in range(-8, 8)),
        "clock.M = 64",
        "clock.deltaT = 0.25",
        "constraint.expected_dim = 16",
    )) + "\n")
    dim = 16 * 64
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * dim ** 2


def test_extended_spaces_die_with_the_run(monkeypatch):
    built = []
    original = quantum.build_extended

    def build_extended(system, clock):
        ext = original(system, clock)
        built.append(weakref.ref(ext))
        return ext

    monkeypatch.setattr(quantum, "build_extended", build_extended)
    assert run_scenario(parse_config(TOY_GRID)).passed
    gc.collect()
    assert built and all(ref() is None for ref in built)


def test_quantum_equivalence_keeps_the_draw_order(monkeypatch):
    calls = []
    evolve_extended, evolve_factored = quantum.evolve_extended, quantum.evolve_factored

    def capture_extended(ext, psi, theta, method="kron"):
        calls.append((method, psi, theta))
        return evolve_extended(ext, psi, theta, method)

    def capture_factored(system, clock, psi_s, psi_T, t):
        calls.append(("factored", psi_s, psi_T, t))
        return evolve_factored(system, clock, psi_s, psi_T, t)

    monkeypatch.setattr(quantum, "evolve_extended", capture_extended)
    monkeypatch.setattr(quantum, "evolve_factored", capture_factored)
    cfg = parse_config(TOY_GRID)
    assert run_scenario(cfg, suites=("quantum-equivalence",)).passed

    # reference: the same draws as a plain loop, one state and its 5 thetas at a time
    rng = np.random.default_rng((cfg.seed, SUITE_NAMES.index("quantum-equivalence")))
    states_s, states_T, states, thetas = [], [], [], []
    for _ in range(20):
        psi_s = quantum.unit(rng.normal(size=4) + 1j * rng.normal(size=4))
        psi_T = quantum.unit(rng.normal(size=32) + 1j * rng.normal(size=32))
        states_s.append([psi_s])
        states_T.append([psi_T])
        states.append([np.kron(psi_s, psi_T)])
        thetas.append(rng.uniform(-10, 10, size=5))
    dense, factored, kron = calls[:3]
    for method, psi, theta in (dense, kron):
        assert psi.tobytes() == np.array(states).tobytes() and psi.shape == (20, 1, 128)
        assert theta.tobytes() == np.array(thetas).tobytes() and theta.shape == (20, 5)
    assert (dense[0], factored[0], kron[0]) == ("dense", "factored", "kron")
    assert factored[1].tobytes() == np.array(states_s).tobytes()
    assert factored[2].tobytes() == np.array(states_T).tobytes()
    assert factored[3] is dense[2]


# Random config text through the CLI: fresh lines, and mutations of the
# bundled configs.  Runs are bounded (M <= 64, <= 10**4 classical steps,
# <= 8 levels) so each example stays cheap.
CONFIG_KEYS = [line.split(" = ")[0] for line in serialize_config(ScenarioConfig()).splitlines()]
BUNDLED_TEXTS = [path.read_text(encoding="utf-8") for path in
                 sorted((Path(quantum.__file__).parent / "configs").glob("*.cfg"))]
config_values = st.one_of(
    st.integers(-2, 70).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.lists(st.floats(-10, 10), max_size=5).map(lambda xs: ", ".join(map(repr, xs))),
    st.sampled_from(SYSTEM_KINDS + SUITE_NAMES + ("true", "false")),
    st.text(max_size=10) | st.sampled_from(("inf", "nan", "")),
    st.sampled_from(("1e200", "-1e300", "1.7e308", "2e-308", "5e-324")),
)
config_edits = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(CONFIG_KEYS), config_values),
    st.tuples(st.just("drop"), st.integers(0, 20)),
    st.tuples(st.just("add"), st.text(max_size=24)),
)


@st.composite
def config_texts(draw):
    lines = draw(st.sampled_from(BUNDLED_TEXTS + [""])).splitlines()
    for edit in draw(st.lists(config_edits, max_size=4)):
        if edit[0] == "set":
            _, key, value = edit
            lines = [line for line in lines if not line.startswith(key + " ")]
            lines.append(f"{key} = {value}")
        elif edit[0] == "drop" and lines:
            del lines[edit[1] % len(lines)]
        elif edit[0] == "add":
            lines.append(edit[1])
    return "\n".join(lines)


def _bounded(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return True
    return (cfg.clock.M <= 64 and cfg.classical.t_end / cfg.classical.dt <= 1e4
            and cfg.system.n_levels <= 8 and len(cfg.system.energies) <= 8)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(command=st.sampled_from(SUITE_NAMES), text=config_texts())
# well-formed but degenerate physics: colliding levels and an empty
# physical subspace (failing checks, exit 1), a stiff oscillator (exit 3);
# and a level at the float limit, snapped onto the grid
@example(command="povm-audit", text=QUBIT.replace("0.0, 3.141592653589793", "0.0, 0.0"))
@example(command="povm-audit",
         text=QUBIT.replace("0.0, 3.141592653589793", "1e308, 0.0") + "system.snap = true\n")
@example(command="time-distribution",
         text=QUBIT.replace("0.0, 3.141592653589793", "0.3, 0.7") + "tolerances.eps_match = 0.01\n")
@example(command="classical-equivalence", text="scenario = stiff\nsystem.kind = oscillator\n"
         "system.omega = 100.0\nclassical.dt = 0.1\nclassical.t_end = 1.0\n")
# energies beyond the float range, and a clock packet whose width squares to 0
@example(command="classical-equivalence",
         text="scenario = far\nsystem.kind = oscillator\nclassical.q0 = 1e200\n")
@example(command="classical-equivalence",
         text="scenario = fast\nsystem.kind = free-particle\nclassical.p0 = 1e200\n")
@example(command="covariance", text=QUBIT.replace("clock.deltaT = 0.25", "clock.deltaT = 2e-308"))
def test_fuzzed_config_text_only_yields_documented_exit_codes(command, text):
    assume(_bounded(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.cfg"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


FLOAT_KEYS = [key for key, (_, _, parser) in config._KEYS.items()
              if parser in (config._parse_float, config._parse_float_list)]
FLOAT_EXTREMES = ("1e200", "-1e300", "1.7e308", "2e-308", "5e-324", "1e153")


@pytest.mark.parametrize("text", BUNDLED_TEXTS,
                         ids=[parse_config(text).scenario for text in BUNDLED_TEXTS])
def test_float_extremes_only_yield_documented_exit_codes(text):
    # every float key of a bundled config at each extreme, through the CLI's
    # error mapping; an overflow warning is an error, as under PYTHONWARNINGS=error
    failures = []
    for key in FLOAT_KEYS:
        kept = [line for line in text.splitlines() if not line.startswith(key + " ")]
        for value in FLOAT_EXTREMES:
            edited = "\n".join(kept + [f"{key} = {value}"])
            try:
                with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
                      contextlib.redirect_stderr(io.StringIO())):
                    warnings.simplefilter("error")
                    code = _run_isolated(key, lambda: parse_config(edited))
            except Exception as exc:
                failures.append(f"{key} = {value}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1, 2, 3):
                failures.append(f"{key} = {value}: exit {code}")
    assert failures == []


# every config key, in turn, at each value of its type's pool; a value that
# takes a run past _bounded's caps (M <= 64, <= 8 levels) is left out
FLOAT_POOL = ("0.0", "-0.0", "5e-324", "1e-308", "0.5", "1.0", "-1.0", "1e154", "1e308",
              "-1.7e308")
KEY_POOLS = {
    config._parse_float: FLOAT_POOL,
    config._parse_float_list: FLOAT_POOL + ("", "0.0, 3.141592653589793"),
    int: ("-1", "0", "1", "2", "8", "64", str(2 ** 31)),
    config._parse_bool: ("true", "false"),
    str: SYSTEM_KINDS,
    config._parse_name_list: ("", "covariance", ", ".join(SUITE_NAMES)),
}
SWEPT_TEXTS = [(CONFIG_DIR / name).read_text(encoding="utf-8")
               for name in ("01_classical_harmonic.cfg", "03_qubit_commensurate.cfg")]


@pytest.mark.parametrize("text", SWEPT_TEXTS,
                         ids=[parse_config(text).scenario for text in SWEPT_TEXTS])
def test_every_key_at_each_pool_value_ends_in_a_report_or_a_typed_error(text):
    # one run per (key, value), with the config's own suites; a warning is
    # an error, as under PYTHONWARNINGS=error
    failures = []
    for key, (_, _, parser) in config._KEYS.items():
        kept = [line for line in text.splitlines() if not line.startswith(key + " ")]
        for value in KEY_POOLS[parser]:
            edited = "\n".join(kept + [f"{key} = {value}"])
            if not _bounded(edited):
                continue
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    run_scenario(parse_config(edited))
            except ChronolabError:
                continue
            except Exception as exc:
                failures.append(f"{key} = {value}: {type(exc).__name__}: {exc}")
    assert failures == []
