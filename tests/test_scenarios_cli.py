import contextlib
import gc
import io
import json
import math
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chronolab import (ClockSpace, ConfigError, ExtendedSpace, ScenarioConfig, parse_config,
                       quantum, serialize_config)
from chronolab.cli import main
from chronolab.config import SUITE_NAMES, SYSTEM_KINDS
from chronolab.scenarios import bundled_scenarios, emit_plotdata, run_scenario

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


def test_emit_plotdata_dispatch(tmp_path):
    from chronolab import PhaseState, free_particle, integrate_original

    traj = integrate_original(free_particle(), PhaseState(q=[0.0], p=[1.0]), 1.0, 0.1)
    emit_plotdata(traj, tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_text().startswith("param,q1,p1")

    emit_plotdata((np.array([0.0, 1.0]), np.array([0.5, 0.5])), tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_text().startswith("m,T_m,p_m")

    cfg = parse_config(QUBIT)
    report = run_scenario(cfg, suites=("constraint-solve",))
    emit_plotdata(report, tmp_path / "rep.json")
    assert json.loads((tmp_path / "rep.json").read_text())["passed"] is True

    with pytest.raises(Exception):
        emit_plotdata(object(), tmp_path / "nope.csv")


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
    cfg_path = tmp_path / "broken.cfg"
    cfg_path.write_text("scenario = broken\nsystem.kind = qubit\nfoo = 1\n")
    code = main(["constraint-solve", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown key" in captured.err


def test_cli_missing_config_file(tmp_path):
    code = main(["povm-audit", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    cfg_path = tmp_path / "stiff.cfg"
    cfg_path.write_text("""
scenario = stiff
suites = classical-equivalence
system.kind = oscillator
system.omega = 100.0
classical.dt = 0.1
classical.t_end = 1.0
""")
    code = main(["classical-equivalence", "--config", str(cfg_path)])
    assert code == 3


@pytest.mark.parametrize("command, text, message", [
    ("constraint-solve", """
scenario = oversized
system.kind = oscillator
system.n_levels = 100
clock.M = 1024
""", "exceeds the dense-solver budget"),
    ("povm-audit", """
scenario = colliding
system.kind = qubit
system.energies = 0.0, 0.0
clock.M = 16
clock.deltaT = 0.5
""", "matched frequencies must be distinct"),
    ("time-distribution", """
scenario = empty
system.kind = qubit
system.energies = 0.3, 0.7
clock.M = 16
clock.deltaT = 0.5
tolerances.eps_match = 0.01
""", "the physical subspace is empty"),
], ids=["oversized", "colliding-frequencies", "empty-subspace"])
def test_cli_invalid_input_exit_code(tmp_path, capsys, command, text, message):
    cfg_path = tmp_path / "input.cfg"
    cfg_path.write_text(text)
    code = main([command, "--config", str(cfg_path)])
    assert code == 2
    assert message in capsys.readouterr().err


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
suites = povm-audit
system.kind = explicit-matrix
system.energies = 0.0, 0.0
clock.M = 16
clock.deltaT = 0.5
""", 2, "matched frequencies must be distinct"),
    ("scenario = broken\nsystem.kind = qubit\nfoo = 1\n", 2, "unknown key"),
    (QUBIT.replace("constraint.expected_dim = 2", "constraint.expected_dim = 5"), 1, ""),
], ids=["invalid-input", "config-error", "check-failure"])
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
    # random-hermitian suites draw their own matrices: same config, two spaces
    assert run_scenario(parse_config(RANDOM_PAIR)).passed
    assert len(decompositions) == 2
    assert decompositions[0] is not decompositions[1]


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
# well-formed but degenerate physics, one per error exit: colliding levels
# and an empty physical subspace (exit 2), a stiff oscillator (exit 3)
@example(command="povm-audit", text=QUBIT.replace("0.0, 3.141592653589793", "0.0, 0.0"))
@example(command="time-distribution",
         text=QUBIT.replace("0.0, 3.141592653589793", "0.3, 0.7") + "tolerances.eps_match = 0.01\n")
@example(command="classical-equivalence", text="scenario = stiff\nsystem.kind = oscillator\n"
         "system.omega = 100.0\nclassical.dt = 0.1\nclassical.t_end = 1.0\n")
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
