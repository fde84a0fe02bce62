"""Scenario driver: builds the configured system, runs audit suites, reports.

Each suite turns one slice of the package into named checks (id, measured
value, threshold, pass flag).  Reports serialize to JSON; distributions and
trajectories can additionally be dumped as CSV plot data.  Runs are
deterministic given the config and seed: repeating one produces a
byte-identical report up to the timestamp field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import classical, constraint, povm, quantum, serialize
from .config import SUITE_NAMES, ScenarioConfig, _validate, parse_config, serialize_config
from .errors import ConfigError, InvalidInputError

__all__ = [
    "CheckRecord",
    "AuditReport",
    "run_scenario",
    "bundled_scenarios",
    "emit_plotdata",
]

_CONFIG_DIR = Path(__file__).parent / "configs"


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    value: float
    threshold: float | None
    comparator: str  # '<=', '>=', '==', 'info'
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "value": self.value,
            "threshold": self.threshold,
            "comparator": self.comparator,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass(frozen=True)
class AuditReport:
    scenario: str
    suites: tuple
    records: tuple
    config_digest: str
    seed: int
    environment: dict
    timestamp: str

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "suites": list(self.suites),
            "records": [r.as_dict() for r in self.records],
            "config_digest": self.config_digest,
            "seed": self.seed,
            "environment": self.environment,
            "passed": self.passed,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


class _Recorder:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.records: list[CheckRecord] = []
        self._seen: set[str] = set()

    def add(self, check_id: str, value, threshold, comparator: str, note: str = "") -> bool:
        check_id = f"{self.prefix}.{check_id}"
        if check_id in self._seen:
            raise InvalidInputError(f"duplicate check id {check_id!r}")
        self._seen.add(check_id)
        value = float(value)
        threshold = None if threshold is None else float(threshold)
        if comparator == "<=":
            passed = value <= threshold
        elif comparator == ">=":
            passed = value >= threshold
        elif comparator == "==":
            passed = value == threshold
        elif comparator == "info":
            passed = True
        else:
            raise InvalidInputError(f"unknown comparator {comparator!r}")
        self.records.append(CheckRecord(check_id, value, threshold, comparator,
                                        bool(passed), note))
        return bool(passed)

    def extend(self, other: "_Recorder"):
        for rec in other.records:
            if rec.check_id in self._seen:
                raise InvalidInputError(f"duplicate check id {rec.check_id!r}")
            self._seen.add(rec.check_id)
            self.records.append(rec)


# ---------------------------------------------------------------------------
# builders

def _classical_system(cfg: ScenarioConfig):
    kind = cfg.system.kind
    if kind == "oscillator":
        return classical.harmonic_oscillator(cfg.system.omega)
    if kind == "free-particle":
        return classical.free_particle()
    if kind == "quartic":
        return classical.quartic_oscillator()
    raise ConfigError(f"system.kind {kind!r} has no classical dynamics; "
                      "use oscillator, free-particle or quartic")


def _system_matrix(cfg: ScenarioConfig, rng) -> np.ndarray:
    kind = cfg.system.kind
    if kind == "qubit":
        energies = cfg.system.energies or (0.0, math.pi)
        if len(energies) != 2:
            raise ConfigError("a qubit needs exactly two energies")
        return np.diag(np.asarray(energies, dtype=float)).astype(complex)
    if kind == "oscillator":
        n = cfg.system.n_levels
        energies = cfg.system.omega * (np.arange(n) + 0.5)
        return np.diag(energies).astype(complex)
    if kind == "explicit-matrix":
        if not cfg.system.energies:
            raise ConfigError("explicit-matrix needs system.energies")
        return np.diag(np.asarray(cfg.system.energies, dtype=float)).astype(complex)
    if kind == "random-hermitian":
        n = cfg.system.n_levels
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return 0.5 * (raw + raw.conj().T)
    raise ConfigError(f"system.kind {kind!r} has no quantum model; "
                      "use qubit, oscillator, explicit-matrix or random-hermitian")


def _quantum_setup(cfg: ScenarioConfig, rng, rec: _Recorder, spaces: dict):
    """Build the configured (system, clock) and return its extended space.

    Suites of one run whose snapped system matrix and clock agree get the
    same ExtendedSpace from `spaces`, so its dense views and `eigh` are
    built at most once per run.  The key is content, not config: a
    random-hermitian system is drawn from each suite's own rng.
    """
    clock = quantum.build_clock(cfg.clock.M, cfg.clock.deltaT, cfg.clock.T0,
                                cfg.clock.sigma)
    system = quantum.build_system_space(_system_matrix(cfg, rng))
    if cfg.system.snap:
        system, shifts = constraint.snap_energies(system, clock)
        rec.add("snap_max_shift",
                max((abs(new - old) for _, old, new in shifts), default=0.0),
                None, "info", note="spectrum snapped onto the clock grid")
    key = (system.matrix.tobytes(), system.matrix.shape,
           clock.M, clock.deltaT, clock.T0, clock.sigma)
    if key not in spaces:
        spaces[key] = quantum.build_extended(system, clock)
    ext = spaces[key]
    return ext.system, ext.clock, ext


def _random_coeffs(rng, d: int) -> np.ndarray:
    return quantum.unit(rng.normal(size=d) + 1j * rng.normal(size=d))


# ---------------------------------------------------------------------------
# suites

def _suite_classical_equivalence(cfg: ScenarioConfig, rng, out: dict,
                                 spaces: dict) -> _Recorder:
    rec = _Recorder("classical")
    system = _classical_system(cfg)
    x0 = classical.PhaseState(q=np.asarray(cfg.classical.q0),
                              p=np.asarray(cfg.classical.p0))
    orig = classical.integrate_original(system, x0, cfg.classical.t_end, cfg.classical.dt)
    y0 = classical.extend_state(system, x0, cfg.classical.t0)
    ext = classical.integrate_extended(system.extended(), y0,
                                       cfg.classical.t_end, cfg.classical.dt)
    report = classical.check_equivalence(orig, ext, system)
    tol = cfg.tolerances
    rec.add("state_deviation", report.max_state_deviation, tol.state_deviation, "<=")
    rec.add("time_mismatch", report.max_time_mismatch, tol.time_residual, "<=")
    rec.add("slope_residual", report.max_slope_residual, tol.time_residual, "<=")
    rec.add("constraint_drift", report.max_constraint_residual, tol.constraint_drift, "<=")
    rec.add("hex_drift", report.max_constraint_residual, tol.hex_drift, "<=")

    # the full bracket table on random extended points
    worst = 0.0
    for _ in range(100):
        point = classical.ExtendedPhaseState(
            base=classical.PhaseState(q=rng.normal(size=system.n),
                                      p=rng.normal(size=system.n)),
            T=rng.normal(), S=rng.normal(),
        )
        f_T = classical.coordinate("T")
        f_S = classical.coordinate("S")
        f_q = classical.coordinate("q", 0)
        f_p = classical.coordinate("p", 0)
        table = (
            (f_T, f_S, 1.0),
            (f_T, f_q, 0.0),
            (f_T, f_p, 0.0),
            (f_S, f_q, 0.0),
            (f_S, f_p, 0.0),
        )
        for f, g, expected in table:
            worst = max(worst, abs(classical.poisson_bracket(f, g, point) - expected))
    rec.add("bracket_table_error", worst, 1e-6, "<=")
    out["trajectories"] = {"original": orig, "extended": ext}
    return rec


def _suite_quantum_equivalence(cfg: ScenarioConfig, rng, out: dict,
                               spaces: dict) -> _Recorder:
    rec = _Recorder("quantum")
    system, clock, ext = _quantum_setup(cfg, rng, rec, spaces)

    rec.add("kron_spectrum_deviation", quantum.verify_kronecker_spectrum(ext), 1e-9, "<=")

    # 20 product states with 5 thetas each, drawn one state at a time
    n, M = system.n_levels, clock.M
    draws = [(quantum.unit(rng.normal(size=n) + 1j * rng.normal(size=n)),
              quantum.unit(rng.normal(size=M) + 1j * rng.normal(size=M)),
              rng.uniform(-10, 10, size=5)) for _ in range(20)]
    psi_s, psi_T, thetas = (np.array(column) for column in zip(*draws))
    psi_s, psi_T = psi_s[:, None], psi_T[:, None]  # (20, 1, .) against (20, 5) thetas
    psi = quantum.separable_state(psi_s, psi_T)
    joint = quantum.evolve_extended(ext, psi, thetas, method="dense")
    s_out, t_out = quantum.evolve_factored(system, clock, psi_s, psi_T, thetas)
    overlaps = np.sum(joint.conj() * quantum.separable_state(s_out, t_out), axis=-1)
    rec.add("factorization_fidelity", min(1.0, float(np.min(np.abs(overlaps)))),
            1.0 - 1e-11, ">=")
    kron = quantum.evolve_extended(ext, psi, thetas, method="kron")
    rec.add("kron_dense_agreement", float(np.max(np.abs(kron - joint))), 1e-10, "<=")

    psi = quantum.separable_state(
        quantum.unit(rng.normal(size=system.n_levels) + 1j * rng.normal(size=system.n_levels)),
        quantum.gaussian_clock_state(clock),
    )
    one = quantum.evolve_extended(ext, psi, 0.7)
    rec.add("unitarity", abs(np.linalg.norm(one) - 1.0), 1e-12, "<=")
    two = quantum.evolve_extended(ext, quantum.evolve_extended(ext, psi, 0.3), 0.4)
    rec.add("group_law_fidelity", quantum.fidelity(one, two), 1.0 - 1e-11, ">=")

    rec.add("commutator_residual_gaussian",
            quantum.commutator_residual(clock, quantum.gaussian_clock_state(clock)),
            1e-6, "<=")

    packet = quantum.gaussian_clock_state(clock, width=clock.M * clock.deltaT / 16)
    ground = system.eigenstate(0)
    unc = quantum.uncertainty_product(ext, quantum.separable_state(ground, packet))
    rec.add("uncertainty_product_low", unc.product, 0.5 - 1e-3, ">=")
    rec.add("uncertainty_product_high", unc.product, 0.6, "<=")
    lam, W = ext.eigensystem()
    rec.add("eigenstate_energy_spread",
            quantum.uncertainty_product(ext, W[:, 0]).d_energy, 1e-10, "<=")
    return rec


def _solve_spectral(cfg, ext):
    return constraint.solve_constraint_spectral(ext, cfg.tolerances.eps_match or None)


def _suite_constraint_solve(cfg: ScenarioConfig, rng, out: dict,
                            spaces: dict) -> _Recorder:
    rec = _Recorder("constraint")
    system, clock, ext = _quantum_setup(cfg, rng, rec, spaces)
    eps = cfg.tolerances.eps_match or None
    spectral = constraint.solve_constraint_spectral(ext, eps)
    # the dense kernel route is the oracle the spectral one is compared with
    kernel = constraint.solve_constraint_kernel(ext, eps)
    out["subspace"] = spectral

    rec.add("dim_spectral", spectral.d, None, "info")
    rec.add("methods_dim_equal", abs(spectral.d - kernel.d), 0.0, "==")
    if cfg.constraint.expected_dim >= 0:
        rec.add("expected_dim", spectral.d, cfg.constraint.expected_dim, "==")
    if cfg.constraint.expect_misses:
        rec.add("expected_miss_count", len(spectral.misses), 1, ">=",
                note="expected-miss: incommensurate level correctly unmatched")
        if spectral.misses:
            rec.add("nearest_miss_distance", spectral.misses[0].distance, None, "info",
                    note="expected-miss diagnostic")
    elif spectral.misses:
        rec.add("unexpected_miss_count", len(spectral.misses), 0, "==")

    if spectral.d and kernel.d == spectral.d:
        angles = constraint.principal_angles(spectral.basis, kernel.basis)
        rec.add("principal_angle", float(np.max(angles)), 1e-8, "<=")
    if spectral.d:
        scale = max(1.0, float(np.linalg.norm(ext.hamiltonian, np.inf)))
        worst = max(constraint.constraint_residual(ext, spectral.basis[:, a])
                    for a in range(spectral.d))
        rec.add("basis_residual", worst, 1e-9 * scale, "<=")

        gram = spectral.basis.conj().T @ spectral.basis
        rec.add("basis_orthonormality",
                float(np.max(np.abs(gram - np.eye(spectral.d)))), 1e-10, "<=")

        # B^dag (I (x) S) B, with S applied along the clock axis of each column
        columns = spectral.basis.T.reshape(spectral.d, system.n_levels, clock.M)
        s_basis = quantum._clock_apply(clock.frequencies, columns).reshape(spectral.d, -1)
        restricted = spectral.basis.conj().T @ s_basis.T
        expected = np.diag([-clock.sigma * p.energy for p in spectral.pairs])
        rec.add("restricted_s_matrix",
                float(np.max(np.abs(restricted - expected))), 1e-9, "<=")

        state = constraint.make_physical_state(spectral, _random_coeffs(rng, spectral.d))
        marg = constraint.physical_clock_marginal(state)
        rec.add("uniform_clock_marginal",
                float(np.max(np.abs(marg - 1.0 / clock.M))), 1e-10, "<=")

        stat = constraint.stationarity_check(ext, state, (0.1, 1.0, 10.0))
        rec.add("stationarity_fidelity", stat.min_fidelity, 1.0 - 1e-10, ">=")
    return rec


def _suite_povm_audit(cfg: ScenarioConfig, rng, out: dict,
                      spaces: dict) -> _Recorder:
    rec = _Recorder("povm")
    system, clock, ext = _quantum_setup(cfg, rng, rec, spaces)
    spectral = _solve_spectral(cfg, ext)
    measure = povm.build_time_povm(spectral)
    out["povm"] = measure
    out["subspace"] = spectral

    rec.add("min_effect_eigenvalue", measure.min_effect_eigenvalue(), -1e-12, ">=")
    rec.add("completeness_residual", measure.completeness_residual(), 1e-10, "<=")

    violation = povm.pm_violation_report(measure)
    out["pm_violation"] = violation
    if measure.d < measure.M:
        rec.add("orthogonality_defect", violation.orthogonality_defect, 1e-6, ">=")
        rec.add("idempotency_defect", violation.idempotency_defect, 1e-6, ">=")
        closed = povm._closed_form_orthogonality_defect(spectral.pairs, clock.M)
        rec.add("orthogonality_defect_vs_closed_form",
                violation.orthogonality_defect, closed - 1e-10, ">=")

    control_clock = quantum.build_clock(16, clock.deltaT, clock.T0, clock.sigma)
    control = povm.pm_violation_report(povm.projective_clock_povm(control_clock))
    rec.add("control_orthogonality_defect", control.orthogonality_defect, 1e-12, "<=")
    rec.add("control_idempotency_defect", control.idempotency_defect, 1e-12, "<=")

    gram = povm.gram_of_restricted_time_states(spectral)
    off = gram - np.diag(np.diag(gram))
    if measure.d < measure.M:
        rec.add("gram_offdiagonal_mass", float(np.max(np.abs(off))), 1e-6, ">=")

    rec.add("first_moment_vs_closed_form",
            povm.first_moment_vs_closed_form(measure, spectral.pairs),
            1e-12 * max(1.0, float(np.max(np.abs(measure.times)))), "<=")

    if cfg.compare_sigmas:
        # same (already snapped) system, opposite sign convention
        clock_b = quantum.build_clock(cfg.clock.M, cfg.clock.deltaT, cfg.clock.T0,
                                      -cfg.clock.sigma)
        ext_b = quantum.build_extended(system, clock_b)
        spectral_b = _solve_spectral(cfg, ext_b)
        measure_b = povm.build_time_povm(spectral_b)
        rec.add("sigma_pair_conjugate_effects",
                float(np.max(np.abs(measure_b.effects - measure.effects.conj()))),
                1e-12, "<=")
        c = quantum.unit(rng.normal(size=measure.d))
        rec.add("sigma_pair_real_distribution",
                float(np.max(np.abs(povm.time_distribution(measure, c)
                                    - povm.time_distribution(measure_b, c)))),
                1e-10, "<=")

    # defect-vs-M sweep: the same spectrum re-snapped onto finer grids
    sweep = []
    for M_sweep in (16, 32, 64):
        clock_s = quantum.build_clock(M_sweep, cfg.clock.deltaT, cfg.clock.T0,
                                      cfg.clock.sigma)
        system_s, _ = constraint.snap_energies(system, clock_s)
        ext_s = quantum.build_extended(system_s, clock_s)
        sub_s = constraint.solve_constraint_spectral(ext_s)
        try:
            rep_s = povm.pm_violation_report(povm.build_time_povm(sub_s))
        except InvalidInputError:  # coarse grids can collapse levels
            continue
        sweep.append((M_sweep, rep_s.orthogonality_defect, rep_s.idempotency_defect))
    out["defect_sweep"] = sweep
    return rec


def _suite_time_distribution(cfg: ScenarioConfig, rng, out: dict,
                             spaces: dict) -> _Recorder:
    rec = _Recorder("distribution")
    system, clock, ext = _quantum_setup(cfg, rng, rec, spaces)
    spectral = _solve_spectral(cfg, ext)
    measure = povm.build_time_povm(spectral)
    d, M = measure.d, clock.M

    single = np.zeros(d)
    single[0] = 1.0
    p_single = povm.time_distribution(measure, single)
    rec.add("single_pair_uniform", float(np.max(np.abs(p_single - 1.0 / M))), 1e-12, "<=")
    out["distributions"] = {"single_pair": p_single}

    if d >= 2:
        c = np.zeros(d, dtype=complex)
        c[0] = c[1] = 1 / math.sqrt(2)
        p_two = povm.time_distribution(measure, c)
        delta_omega = spectral.pairs[1].s_value - spectral.pairs[0].s_value
        fringe = (1.0 + np.cos(delta_omega * (clock.times - clock.T0))) / M
        rec.add("two_pair_fringe", float(np.max(np.abs(p_two - fringe))), 1e-9, "<=",
                note=f"matched-frequency gap {delta_omega:.6g}")
        out["distributions"]["two_pair"] = p_two

        state = constraint.make_physical_state(spectral, c)
        worst = 1.0
        step_phases = np.exp(-1j * clock.sigma * system.energies * clock.deltaT)
        for _ in range(20):
            trial = constraint.make_physical_state(spectral, _random_coeffs(rng, d))
            cond = povm.conditional_states(spectral, trial)
            # bin m + 1 (cyclic) against one propagator step from bin m
            stepped = quantum._eigenbasis_apply(system.vectors, step_phases, cond.T).T
            overlaps = np.sum(np.roll(cond, -1, axis=1).conj() * stepped, axis=0)
            worst = min(worst, float(np.min(np.abs(overlaps))))
        rec.add("conditional_propagator_fidelity", worst, 1.0 - 1e-10, ">=")

        full = povm.EventOperator(projector=np.eye(system.n_levels), window=range(M))
        rec.add("event_total_probability",
                abs(povm.event_probability(full, spectral, state) - 1.0), 1e-12, "<=")
        single_state = constraint.make_physical_state(spectral, single)
        one_bin = povm.EventOperator(projector=np.eye(system.n_levels), window=(0,))
        rec.add("event_single_bin",
                abs(povm.event_probability(one_bin, spectral, single_state) - 1.0 / M),
                1e-12, "<=")
        none = povm.EventOperator(projector=np.zeros((system.n_levels, system.n_levels)),
                                  window=range(M))
        rec.add("event_null_projector",
                povm.event_probability(none, spectral, state), 1e-15, "<=")

    sums = 0.0
    for _ in range(100):
        p = povm.time_distribution(measure, _random_coeffs(rng, d))
        sums = max(sums, abs(float(p.sum()) - 1.0))
    rec.add("distribution_normalization", sums, 1e-10, "<=")
    return rec


def _suite_covariance(cfg: ScenarioConfig, rng, out: dict,
                      spaces: dict) -> _Recorder:
    rec = _Recorder("covariance")
    system, clock, ext = _quantum_setup(cfg, rng, rec, spaces)
    psi = quantum.separable_state(
        quantum.unit(rng.normal(size=system.n_levels) + 1j * rng.normal(size=system.n_levels)),
        quantum.gaussian_clock_state(clock),
    )
    report5 = povm.covariance_report(ext, psi, 5 * clock.deltaT)
    rec.add("generic_shift_deviation", report5.shift_deviation, 1e-8, "<=")
    report0 = povm.covariance_report(ext, psi, 0.0)
    rec.add("zero_step_deviation", report0.shift_deviation, 1e-14, "<=")

    spectral = _solve_spectral(cfg, ext)
    if spectral.d:
        state = constraint.make_physical_state(spectral, _random_coeffs(rng, spectral.d))
        rep = povm.covariance_report(ext, state.vector, 5 * clock.deltaT)
        rec.add("physical_marginal_invariance", rep.stationary_deviation, 1e-10, "<=")
    return rec


_SUITES = {
    "classical-equivalence": _suite_classical_equivalence,
    "quantum-equivalence": _suite_quantum_equivalence,
    "constraint-solve": _suite_constraint_solve,
    "povm-audit": _suite_povm_audit,
    "time-distribution": _suite_time_distribution,
    "covariance": _suite_covariance,
}


def run_scenario(cfg: ScenarioConfig, suites=None, out_dir=None,
                 formats=("json",), seed=None) -> AuditReport:
    """Run the selected audit suites and assemble the report.

    `suites` defaults to the config's own list; `seed` overrides the config
    seed.  When `out_dir` is given the report (and, with 'csv' in formats,
    the plot-data artifacts) are written there.  A config built in code, and
    the seed override, are validated like a parsed config: any problem
    raises ConfigError.
    """
    seed = cfg.seed if seed is None else int(seed)
    problems: list = []
    _validate(dataclasses.replace(cfg, seed=seed), problems)
    if problems:
        raise ConfigError(problems)
    chosen = tuple(suites) if suites else cfg.suites
    if not chosen:
        raise ConfigError("no suites selected: set `suites` in the config or "
                          "pick a subcommand")
    for name in chosen:
        if name not in _SUITES:
            raise ConfigError(f"unknown suite {name!r}")

    master = _Recorder(cfg.scenario)
    artifacts: dict = {}
    spaces: dict = {}  # shared extended spaces, dropped when the run ends
    for index, name in enumerate(SUITE_NAMES):
        if name not in chosen:
            continue
        rng = np.random.default_rng((seed, index))
        out: dict = {}
        master.extend(_SUITES[name](cfg, rng, out, spaces))
        artifacts[name] = out

    report = AuditReport(
        scenario=cfg.scenario,
        suites=tuple(n for n in SUITE_NAMES if n in chosen),
        records=tuple(master.records),
        config_digest=hashlib.sha256(serialize_config(cfg).encode()).hexdigest(),
        seed=seed,
        environment={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    if out_dir is not None:
        try:
            _write_artifacts(cfg, report, artifacts, Path(out_dir), formats)
        except OSError as exc:
            raise ConfigError(f"cannot write artifacts to {out_dir}: {exc}") from exc
    return report


def _write_artifacts(cfg, report, artifacts, out_dir: Path, formats):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg.scenario
    (out_dir / f"{stem}.report.json").write_text(report.to_json(), encoding="utf-8")

    povm_art = artifacts.get("povm-audit", {})
    if "povm" in povm_art:
        measure = povm_art["povm"]
        violation = povm_art["pm_violation"]
        summary = {
            "scenario": cfg.scenario,
            "sigma": measure.sigma,
            "d": measure.d,
            "M": measure.M,
            "defects": violation.as_dict(),
            "completeness_residual": measure.completeness_residual(),
            "distributions": {
                name: list(map(float, dist))
                for name, dist in artifacts.get("time-distribution", {})
                .get("distributions", {}).items()
            },
        }
        (out_dir / f"{stem}.povm.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    if "subspace" in povm_art or "subspace" in artifacts.get("constraint-solve", {}):
        sub = povm_art.get("subspace") or artifacts["constraint-solve"]["subspace"]
        (out_dir / f"{stem}.subspace.json").write_text(
            json.dumps(serialize.subspace_to_container(sub), sort_keys=True) + "\n",
            encoding="utf-8",
        )

    if "csv" not in formats:
        return
    classical_art = artifacts.get("classical-equivalence", {})
    for name, traj in classical_art.get("trajectories", {}).items():
        traj.to_csv(out_dir / f"{stem}.{name}.csv")
    dist_art = artifacts.get("time-distribution", {})
    if "distributions" in dist_art and "povm" in povm_art:
        times = povm_art["povm"].times
        for name, dist in dist_art["distributions"].items():
            serialize.write_distribution_csv(out_dir / f"{stem}.dist.{name}.csv",
                                             times, dist)
    if povm_art.get("defect_sweep"):
        serialize.write_defect_sweep_csv(out_dir / f"{stem}.defects.csv",
                                         povm_art["defect_sweep"])


def emit_plotdata(obj, path):
    """Dump a report, trajectory or (times, probabilities) pair to `path`."""
    if isinstance(obj, AuditReport):
        Path(path).write_text(obj.to_json(), encoding="utf-8")
    elif isinstance(obj, classical.Trajectory):
        obj.to_csv(path)
    elif isinstance(obj, tuple) and len(obj) == 2:
        serialize.write_distribution_csv(path, obj[0], obj[1])
    else:
        raise InvalidInputError(f"no plot-data emitter for {type(obj).__name__}")


def bundled_scenarios() -> tuple:
    """The shipped scenario configs, parsed, in filename order."""
    configs = []
    for path in sorted(_CONFIG_DIR.glob("*.cfg")):
        configs.append(parse_config(path.read_text(encoding="utf-8")))
    return tuple(configs)
