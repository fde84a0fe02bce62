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
from functools import cached_property
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
]

_CONFIG_DIR = Path(__file__).parent / "configs"
_HERMITIAN_STREAM = 6  # the random-hermitian draw's own stream, kept when a suite is added


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    value: float
    threshold: float | None
    comparator: str  # '<=', '>=', '==', 'info'
    passed: bool
    note: str = ""


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

    def to_json(self) -> str:
        """The report's fields, its records' fields and `passed`, as JSON."""
        fields = {**vars(self), "records": [vars(r) for r in self.records],
                  "passed": self.passed}
        return json.dumps(fields, sort_keys=True, indent=2) + "\n"


class _Run:
    """One scenario run: its check records, its artifacts and its one
    quantum setup.

    The setup is the configured (system, clock) and what hangs off it: the
    snapped system, clock and `ExtendedSpace` (`ext`), the spectral
    physical subspace (`spectral`) and the time POVM (`measure`).  Each is
    built on first read, by the first suite that needs it, so a
    classical-only run builds none; every later suite reads the same
    objects, and they die with the run.
    """

    def __init__(self, cfg: ScenarioConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.prefix = ""  # check-id prefix of the suite now running
        self.records: list[CheckRecord] = []
        self._seen: set[str] = set()
        # artifacts, each set by the suite that computes it
        self.trajectories: dict = {}
        self.distributions: dict = {}
        self.pm_violation = None
        self.defect_sweep: list = []

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

    @cached_property
    def ext(self) -> quantum.ExtendedSpace:
        """The configured (system, clock); a snap is recorded by the suite
        that triggers the build."""
        cfg = self.cfg
        clock = quantum.build_clock(cfg.clock.M, cfg.clock.deltaT, cfg.clock.T0,
                                    cfg.clock.sigma)
        # the budget needs only the level count, so no n x n matrix is built past it
        n = (cfg.system.n_levels if cfg.system.kind in ("oscillator", "random-hermitian")
             else len(cfg.system.energies))
        quantum.check_dense_budget(n * clock.M)
        system = quantum.build_system_space(_system_matrix(cfg, self.seed))
        if cfg.system.snap:
            system, shifts = constraint.snap_energies(system, clock)
            self.add("snap_max_shift",
                     max((abs(new - old) for _, old, new in shifts), default=0.0),
                     None, "info", note="spectrum snapped onto the clock grid")
        return quantum.build_extended(system, clock)

    @cached_property
    def spectral(self) -> constraint.PhysicalSubspace:
        return _solve_spectral(self.cfg, self.ext)

    @cached_property
    def measure(self) -> povm.TimePOVM:
        return povm.build_time_povm(self.spectral)


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


def _system_matrix(cfg: ScenarioConfig, seed: int) -> np.ndarray:
    kind = cfg.system.kind
    if kind == "qubit":
        energies = cfg.system.energies or (0.0, math.pi)
        if len(energies) != 2:
            raise ConfigError("a qubit needs exactly two energies")
        return np.diag(np.asarray(energies, dtype=float)).astype(complex)
    if kind == "oscillator":
        n = cfg.system.n_levels
        # an overflowing level is a non-finite entry, which build_system_space rejects
        with np.errstate(over="ignore"):
            energies = cfg.system.omega * (np.arange(n) + 0.5)
        return np.diag(energies).astype(complex)
    if kind == "explicit-matrix":
        if not cfg.system.energies:
            raise ConfigError("explicit-matrix needs system.energies")
        return np.diag(np.asarray(cfg.system.energies, dtype=float)).astype(complex)
    if kind == "random-hermitian":
        rng = np.random.default_rng((seed, _HERMITIAN_STREAM))
        n = cfg.system.n_levels
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return 0.5 * (raw + raw.conj().T)
    raise ConfigError(f"system.kind {kind!r} has no quantum model; "
                      "use qubit, oscillator, explicit-matrix or random-hermitian")


def _solve_spectral(cfg, ext):
    return constraint.solve_constraint_spectral(ext, cfg.tolerances.eps_match or None)


def _random_unit(rng, size: int) -> np.ndarray:
    return quantum.unit(rng.normal(size=size) + 1j * rng.normal(size=size))


# ---------------------------------------------------------------------------
# suites

def _suite_classical_equivalence(run: _Run, rng):
    system = _classical_system(run.cfg)
    cla = run.cfg.classical
    x0 = classical.PhaseState(q=np.asarray(cla.q0), p=np.asarray(cla.p0))
    orig = classical.integrate_original(system, x0, cla.t_end, cla.dt)
    y0 = classical.extend_state(system, x0, 0.0)
    ext = classical.integrate_extended(system.extended(), y0, cla.t_end, cla.dt)
    report = classical.check_equivalence(orig, ext, system)
    run.add("state_deviation", report.max_state_deviation, 1e-9, "<=")
    run.add("time_mismatch", report.max_time_mismatch, 1e-10, "<=")
    run.add("constraint_drift", report.max_constraint_residual,
            run.cfg.tolerances.constraint_drift, "<=")

    # the full bracket table on 100 random flat points [q, p, T, S], one call:
    # {T,S} = 1 and {T,q} = {T,p} = {S,q} = {S,p} = 0
    f_T, f_S, f_q, f_p = (classical.coordinate(name) for name in "TSqp")
    fs = (f_T, f_T, f_T, f_S, f_S)
    gs = (f_S, f_q, f_p, f_q, f_p)
    points = rng.normal(size=(100, 2 * system.n + 2))
    error = np.abs(classical.poisson_bracket(fs, gs, points) - [1.0, 0.0, 0.0, 0.0, 0.0])
    run.add("bracket_table_error", np.max(error), 1e-6, "<=")
    run.trajectories = {"original": orig, "extended": ext}


def _suite_quantum_equivalence(run: _Run, rng):
    ext = run.ext
    system, clock = ext.system, ext.clock

    run.add("kron_spectrum_deviation", quantum.verify_kronecker_spectrum(ext), 1e-9, "<=")

    # 20 product states with 5 thetas each, drawn one state at a time
    n, M = system.n_levels, clock.M
    draws = [(_random_unit(rng, n), _random_unit(rng, M), rng.uniform(-10, 10, size=5))
             for _ in range(20)]
    psi_s, psi_T, thetas = (np.array(column) for column in zip(*draws))
    psi_s, psi_T = psi_s[:, None], psi_T[:, None]  # (20, 1, .) against (20, 5) thetas
    psi = quantum.separable_state(psi_s, psi_T)
    joint = quantum.evolve_extended(ext, psi, thetas, method="dense")
    s_out, t_out = quantum.evolve_factored(system, clock, psi_s, psi_T, thetas)
    overlaps = np.sum(joint.conj() * quantum.separable_state(s_out, t_out), axis=-1)
    run.add("factorization_fidelity", min(1.0, float(np.min(np.abs(overlaps)))),
            1.0 - 1e-11, ">=")
    kron = quantum.evolve_extended(ext, psi, thetas, method="kron")
    run.add("kron_dense_agreement", float(np.max(np.abs(kron - joint))), 1e-10, "<=")

    psi = quantum.separable_state(_random_unit(rng, n), quantum.gaussian_clock_state(clock))
    one = quantum.evolve_extended(ext, psi, 0.7)
    run.add("unitarity", abs(np.linalg.norm(one) - 1.0), 1e-12, "<=")
    two = quantum.evolve_extended(ext, quantum.evolve_extended(ext, psi, 0.3), 0.4)
    run.add("group_law_fidelity", quantum.fidelity(one, two), 1.0 - 1e-11, ">=")

    width = clock.M * clock.deltaT / 20  # gaussian_clock_state's default width
    run.add("commutator_residual_gaussian",
            quantum.commutator_residual(clock, quantum.gaussian_clock_state(clock)),
            1e-6, "<=",
            note="" if width >= clock.deltaT else
            f"the default packet width M*deltaT/20 = {width:.6g} is below the clock step "
            f"deltaT = {clock.deltaT:.6g}: the grid does not resolve the packet")

    packet = quantum.gaussian_clock_state(clock, width=clock.M * clock.deltaT / 16)
    ground = system.eigenstate(0)
    unc = quantum.uncertainty_product(ext, quantum.separable_state(ground, packet))
    run.add("uncertainty_product_low", unc.product, 0.5 - 1e-3, ">=")
    run.add("uncertainty_product_high", unc.product, 0.6, "<=")
    # the lowest eigenvector of H_ex, ties in block order
    rows, _, vectors = min(ext.eigensystem(), key=lambda block: block[1][0])
    lowest = np.zeros(ext.dim, dtype=complex)
    lowest[rows] = vectors[:, 0]
    run.add("eigenstate_energy_spread", quantum.uncertainty_product(ext, lowest).d_energy,
            1e-10, "<=")


def _suite_constraint_solve(run: _Run, rng):
    ext, spectral = run.ext, run.spectral
    system, clock = ext.system, ext.clock
    # the dense kernel route, at the same tolerance, is the oracle the
    # spectral one is compared with
    kernel = constraint.solve_constraint_kernel(ext, spectral.eps)

    run.add("dim_spectral", spectral.d, None, "info")
    run.add("methods_dim_equal", abs(spectral.d - kernel.d), 0.0, "==")
    if run.cfg.constraint.expected_dim >= 0:
        run.add("expected_dim", spectral.d, run.cfg.constraint.expected_dim, "==")
    if run.cfg.constraint.expect_misses:
        run.add("expected_miss_count", len(spectral.misses), 1, ">=",
                note="expected-miss: incommensurate level correctly unmatched")
        if spectral.misses:
            run.add("nearest_miss_distance", spectral.misses[0].distance, None, "info",
                    note="expected-miss diagnostic")
    elif spectral.misses:
        run.add("unexpected_miss_count", len(spectral.misses), 0, "==")

    if spectral.d and kernel.d == spectral.d:
        angles = constraint.principal_angles(spectral.basis, kernel.basis)
        run.add("principal_angle", float(np.max(angles)), 1e-8, "<=")
    if spectral.d:
        causes = _mismatch_causes(spectral.pairs)
        note = causes and causes + ": each pair sits off the kernel by its mismatch"
        scale = max(1.0, float(np.max(np.abs(quantum._kron_sums(ext)))))  # ||H_ex||_2
        worst = max(constraint.constraint_residual(ext, spectral.basis[:, a])
                    for a in range(spectral.d))
        run.add("basis_residual", worst, 1e-9 * scale, "<=", note=note)

        gram = spectral.basis.conj().T @ spectral.basis
        run.add("basis_orthonormality",
                float(np.max(np.abs(gram - np.eye(spectral.d)))), 1e-10, "<=")

        # B^dag (I (x) S) B, with S applied along the clock axis of each column
        columns = spectral.basis.T.reshape(spectral.d, system.n_levels, clock.M)
        s_basis = quantum._clock_apply(clock.frequencies, columns).reshape(spectral.d, -1)
        restricted = spectral.basis.conj().T @ s_basis.T
        expected = np.diag([-clock.sigma * p.energy for p in spectral.pairs])
        run.add("restricted_s_matrix",
                float(np.max(np.abs(restricted - expected))), 1e-9, "<=", note=note)

        state = constraint.make_physical_state(spectral, _random_unit(rng, spectral.d))
        marg = constraint.physical_clock_marginal(state)
        run.add("uniform_clock_marginal",
                float(np.max(np.abs(marg - 1.0 / clock.M))), 1e-10, "<=")

        stat = constraint.stationarity_check(ext, state, (0.1, 1.0, 10.0))
        run.add("stationarity_fidelity", stat.min_fidelity, 1.0 - 1e-10, ">=", note=note)


def _time_povm(run: _Run) -> povm.TimePOVM | None:
    """The run's time POVM, or None after one failing check that says why
    the physics leaves none: an empty physical subspace, or matched levels
    that share a clock frequency (snapped levels collide on a coarse grid).
    Both come from valid configs, so neither is an input error."""
    spectral = run.spectral
    if not spectral.d:
        run.add("physical_dim", 0, 1, ">=",
                note="the physical subspace is empty: no time POVM")
        return None
    shared = _shared_frequencies(spectral.pairs)
    if shared:
        run.add("shared_matched_frequencies", shared, 0, "==",
                note="matched levels share a clock frequency: no time POVM")
        return None
    return run.measure


def _shared_frequencies(pairs) -> int:
    """Matched pairs past the first on each clock frequency; a time POVM needs none."""
    return len(pairs) - len({pair.k for pair in pairs})


def _mismatch_causes(pairs) -> str:
    """The levels whose pairs sit off the kernel, for a check's note: those
    matched more than once, then those matched once but off the grid
    (mismatch > 0); empty when every pair is exact."""
    levels = [pair.i for pair in pairs]
    repeated = sorted({i for i in levels if levels.count(i) > 1})
    off_grid = sorted({pair.i for pair in pairs if pair.mismatch > 0} - set(repeated))
    return "; ".join(f"levels {named} matched {how}" for named, how in
                     ((repeated, "more than once"), (off_grid, "off the grid")) if named)


def _suite_povm_audit(run: _Run, rng):
    cfg, system, clock = run.cfg, run.ext.system, run.ext.clock
    spectral, measure = run.spectral, _time_povm(run)
    if measure is None:
        return

    run.add("min_effect_eigenvalue", measure.min_effect_eigenvalue(), -1e-12, ">=")
    run.add("completeness_residual", measure.completeness_residual(), 1e-10, "<=")

    violation = run.pm_violation = povm.pm_violation_report(measure)
    if measure.d < measure.M:
        run.add("orthogonality_defect", violation.orthogonality_defect, 1e-6, ">=")
        run.add("idempotency_defect", violation.idempotency_defect, 1e-6, ">=")

    control_clock = quantum.build_clock(16, clock.deltaT, clock.T0, clock.sigma)
    control = povm.pm_violation_report(povm.projective_clock_povm(control_clock))
    run.add("control_orthogonality_defect", control.orthogonality_defect, 1e-12, "<=")
    run.add("control_idempotency_defect", control.idempotency_defect, 1e-12, "<=")

    run.add("first_moment_vs_closed_form",
            povm.first_moment_vs_closed_form(measure, spectral.pairs),
            1e-12 * max(1.0, float(np.max(np.abs(measure.times)))), "<=")

    if cfg.compare_sigmas:
        # same (already snapped) system and grid, opposite sign convention
        ext_b = quantum.build_extended(system, dataclasses.replace(clock, sigma=-clock.sigma))
        spectral_b = _solve_spectral(cfg, ext_b)
        # w_-k = -w_k, so conjugate frames need each (i, k) of either sign mirrored by (i, -k)
        mirrored = len({(p.i, -p.k) for p in spectral.pairs}
                       & {(p.i, p.k) for p in spectral_b.pairs})
        if mirrored != max(spectral.d, spectral_b.d):
            run.add("sigma_pair_matched_pairs", mirrored, max(spectral.d, spectral_b.d), "==",
                    note=f"{spectral.d} matched pairs under sigma = {clock.sigma}, "
                         f"{spectral_b.d} under the opposite sign, {mirrored} mirrored: "
                         "no effects to compare")
        else:
            # the opposite sign's frame columns in the mirror order (i, -k) of
            # the run's pairs (within a level its pairs ascend in k, not in -k),
            # in C order like the run's frame, so both distributions sum alike
            column = {(p.i, p.k): a for a, p in enumerate(spectral_b.pairs)}
            mirror = [column[p.i, -p.k] for p in spectral.pairs]
            measure_b = povm.build_time_povm(spectral_b)
            measure_b = dataclasses.replace(
                measure_b, frame=np.ascontiguousarray(measure_b.frame[:, mirror]))
            # conjugate frames give conjugate effects W[m]^dag W[m]; comparing
            # the frames is stricter (a phase on a row moves it) and builds no stack
            run.add("sigma_pair_conjugate_effects",
                    float(np.max(np.abs(measure_b.frame - measure.frame.conj()))),
                    1e-12, "<=")
            c = quantum.unit(rng.normal(size=measure.d))
            run.add("sigma_pair_real_distribution",
                    float(np.max(np.abs(povm.time_distribution(measure, c)
                                        - povm.time_distribution(measure_b, c)))),
                    1e-10, "<=")

    # defect-vs-M sweep: the same spectrum re-snapped onto finer grids
    for M_sweep in (16, 32, 64):
        clock_s = quantum.build_clock(M_sweep, clock.deltaT, clock.T0, clock.sigma)
        system_s, _ = constraint.snap_energies(system, clock_s)
        ext_s = quantum.build_extended(system_s, clock_s)
        # a grid that collapses levels is skipped before its basis is built
        pairs, _ = constraint._match_levels(ext_s, constraint.default_eps_match(ext_s))
        if _shared_frequencies(pairs):
            continue
        sub_s = constraint.solve_constraint_spectral(ext_s)
        rep_s = povm.pm_violation_report(povm.build_time_povm(sub_s))
        run.defect_sweep.append((M_sweep, rep_s.orthogonality_defect,
                                 rep_s.idempotency_defect))


def _suite_time_distribution(run: _Run, rng):
    system, clock = run.ext.system, run.ext.clock
    spectral, measure = run.spectral, _time_povm(run)
    if measure is None:
        return
    d, M = measure.d, clock.M
    levels = [pair.i for pair in spectral.pairs]

    single = np.zeros(d)
    single[0] = 1.0
    p_single = povm.time_distribution(measure, single)
    run.add("single_pair_uniform", float(np.max(np.abs(p_single - 1.0 / M))), 1e-12, "<=")
    run.distributions["single_pair"] = p_single

    if d >= 2:
        c = np.zeros(d, dtype=complex)
        c[0] = c[1] = 1 / math.sqrt(2)
        p_two = povm.time_distribution(measure, c)
        delta_omega = spectral.pairs[1].s_value - spectral.pairs[0].s_value
        fringe = (1.0 + np.cos(delta_omega * (clock.times - clock.T0))) / M
        run.add("two_pair_fringe", float(np.max(np.abs(p_two - fringe))), 1e-9, "<=",
                note=f"matched-frequency gap {delta_omega:.6g}")
        run.distributions["two_pair"] = p_two

        worst = 1.0
        step_phases = quantum._phases(clock.deltaT, system.energies, clock.sigma)
        for _ in range(20):
            trial = constraint.make_physical_state(spectral, _random_unit(rng, d))
            cond = povm.conditional_states(spectral, trial)
            # bin m + 1 (cyclic) against one propagator step from bin m
            stepped = quantum._eigenbasis_apply(system.vectors, step_phases, cond.T).T
            overlaps = np.sum(np.roll(cond, -1, axis=1).conj() * stepped, axis=0)
            worst = min(worst, float(np.min(np.abs(overlaps))))
        # a pair off the kernel by its mismatch has conditional states that
        # cannot step by exp(-i sigma H_s deltaT)
        causes = _mismatch_causes(spectral.pairs)
        run.add("conditional_propagator_fidelity", worst, 1.0 - 1e-10, ">=",
                note=causes and causes + ": each pair steps by its clock frequency, off "
                     "the level energy by its mismatch")

    sums = 0.0
    for _ in range(100):
        p = povm.time_distribution(measure, _random_unit(rng, d))
        sums = max(sums, abs(float(p.sum()) - 1.0))
    run.add("distribution_normalization", sums, 1e-10, "<=")

    # energy populations do not depend on the clock reading: a level i matched
    # once, as pair a, gives <P_i (x) Pi_W> = |W|/M |c_a|^2 on any window W
    once = [a for a, i in enumerate(levels) if levels.count(i) == 1]
    if once:
        state = constraint.make_physical_state(spectral, _random_unit(rng, d))
        worst = 0.0
        for a in once:
            v = system.vectors[:, levels[a]]
            event = povm.EventOperator(np.outer(v, v.conj()), np.flatnonzero(rng.random(M) < 0.5))
            expected = len(event.window) / M * abs(state.coeffs[a]) ** 2
            worst = max(worst, abs(povm.event_probability(event, spectral, state) - expected))
        run.add("population_clock_independence", worst, 1e-12, "<=")


def _suite_covariance(run: _Run, rng):
    ext = run.ext
    system, clock = ext.system, ext.clock
    psi = quantum.separable_state(_random_unit(rng, system.n_levels),
                                  quantum.gaussian_clock_state(clock))
    report5 = povm.covariance_report(ext, psi, 5 * clock.deltaT)
    run.add("generic_shift_deviation", report5.shift_deviation, 1e-8, "<=")
    report0 = povm.covariance_report(ext, psi, 0.0)
    run.add("zero_step_deviation", report0.shift_deviation, 1e-14, "<=")

    spectral = run.spectral
    if spectral.d:
        state = constraint.make_physical_state(spectral, _random_unit(rng, spectral.d))
        rep = povm.covariance_report(ext, state.vector, 5 * clock.deltaT)
        run.add("physical_marginal_invariance", rep.stationary_deviation, 1e-10, "<=")


# suite name -> (check-id prefix, suite)
_SUITES = {
    "classical-equivalence": ("classical", _suite_classical_equivalence),
    "quantum-equivalence": ("quantum", _suite_quantum_equivalence),
    "constraint-solve": ("constraint", _suite_constraint_solve),
    "povm-audit": ("povm", _suite_povm_audit),
    "time-distribution": ("distribution", _suite_time_distribution),
    "covariance": ("covariance", _suite_covariance),
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

    run = _Run(cfg, seed)
    ran = tuple(name for name in SUITE_NAMES if name in chosen)
    for name in ran:
        run.prefix, suite = _SUITES[name]
        suite(run, np.random.default_rng((seed, SUITE_NAMES.index(name))))

    report = AuditReport(
        scenario=cfg.scenario,
        suites=ran,
        records=tuple(run.records),
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
            _write_artifacts(report, run, Path(out_dir), formats)
        except OSError as exc:
            raise ConfigError(f"cannot write artifacts to {out_dir}: {exc}") from exc
    return report


def _write_artifacts(report, run: _Run, out_dir: Path, formats):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = report.scenario
    (out_dir / f"{stem}.report.json").write_text(report.to_json(), encoding="utf-8")

    # every artifact the run computed: the POVM summary with povm-audit, the
    # distribution CSVs and the subspace whenever a suite built them
    if run.pm_violation is not None:
        measure = run.measure
        summary = {
            "scenario": report.scenario,
            "sigma": measure.sigma,
            "d": measure.d,
            "M": measure.M,
            "defects": vars(run.pm_violation),
            "completeness_residual": measure.completeness_residual(),
            "distributions": {name: list(map(float, dist))
                              for name, dist in run.distributions.items()},
        }
        (out_dir / f"{stem}.povm.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    if "spectral" in vars(run):  # set by the cached_property; reading it would build it
        (out_dir / f"{stem}.subspace.json").write_text(
            json.dumps(serialize.subspace_to_container(run.spectral), sort_keys=True) + "\n",
            encoding="utf-8",
        )

    if "csv" not in formats:
        return
    for name, traj in run.trajectories.items():
        traj.to_csv(out_dir / f"{stem}.{name}.csv")
    for name, dist in run.distributions.items():
        serialize.write_distribution_csv(out_dir / f"{stem}.dist.{name}.csv",
                                         run.measure.times, dist)
    if run.defect_sweep:
        serialize.write_defect_sweep_csv(out_dir / f"{stem}.defects.csv", run.defect_sweep)


def bundled_scenarios() -> tuple:
    """The shipped scenario configs, parsed, in filename order."""
    configs = []
    for path in sorted(_CONFIG_DIR.glob("*.cfg")):
        configs.append(parse_config(path.read_text(encoding="utf-8")))
    return tuple(configs)
