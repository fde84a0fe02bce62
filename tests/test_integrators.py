import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolab import (
    DivergenceError,
    HamiltonianSystem,
    InvalidInputError,
    NumericalFailureError,
    PhaseState,
    Trajectory,
    bundled_scenarios,
    classical,
    extend_state,
    free_particle,
    harmonic_oscillator,
    integrate_extended,
    integrate_original,
    quartic_oscillator,
)


def closed_form_harmonic(t, q0=1.0, p0=0.0, omega=1.0):
    q = q0 * math.cos(omega * t) + (p0 / omega) * math.sin(omega * t)
    p = p0 * math.cos(omega * t) - q0 * omega * math.sin(omega * t)
    return q, p


def final_error(dt):
    system = harmonic_oscillator()
    traj = integrate_original(system, PhaseState(q=[1.0], p=[0.0]), 2 * math.pi, dt)
    qe, pe = closed_form_harmonic(traj.params[-1])
    return math.hypot(traj.qs[-1, 0] - qe, traj.ps[-1, 0] - pe)


def test_harmonic_period_accuracy():
    # One period at dt=1e-3 returns to (1, 0) within 1e-5.
    system = harmonic_oscillator()
    traj = integrate_original(system, PhaseState(q=[1.0], p=[0.0]), 2 * math.pi, 1e-3)
    assert abs(traj.qs[-1, 0] - closed_form_harmonic(traj.params[-1])[0]) < 1e-5
    assert abs(traj.ps[-1, 0] - closed_form_harmonic(traj.params[-1])[1]) < 1e-5


def test_free_particle_exact_drift():
    traj = integrate_original(free_particle(), PhaseState(q=[0.0], p=[1.0]), 1.0, 1e-3)
    assert abs(traj.qs[-1, 0] - 1.0) < 1e-10
    assert traj.ps[-1, 0] == 1.0


def test_second_order_convergence():
    errors = [final_error(dt) for dt in (1e-3, 5e-4, 2.5e-4)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_energy_conservation_quartic():
    system = quartic_oscillator()
    traj = integrate_original(system, PhaseState(q=[1.0], p=[0.0]), 2 * math.pi, 1e-3)
    energies = [system.energy(traj.qs[k], traj.ps[k]) for k in range(0, len(traj.params), 500)]
    drift = max(abs(e - energies[0]) for e in energies)
    assert drift < 100 * 1e-6  # bounded by C * dt^2


def test_extended_channels_are_exact():
    system = harmonic_oscillator()
    y0 = extend_state(system, PhaseState(q=[1.0], p=[0.0]), 0.0)
    traj = integrate_extended(system.extended(), y0, 2 * math.pi, 1e-3)
    assert np.max(np.abs(traj.Ts - traj.Ts[0] - traj.params)) < 1e-10
    assert np.max(np.abs(traj.Ss - traj.Ss[0])) < 1e-10
    # constraint conserved along the flow
    h_ex = [system.energy(traj.qs[k], traj.ps[k]) + traj.Ss[k]
            for k in range(len(traj.params))]
    assert max(abs(v) for v in h_ex) < 1e-8


def test_array_path_matches_float_path_per_dof():
    # Two uncoupled oscillators stepped as arrays: each degree of freedom
    # must land on its own one-dof trajectory, stepped as floats.
    omegas = np.array([1.0, 1.7])
    w2 = omegas * omegas

    def energy(q, p):
        return 0.5 * np.sum(p * p, axis=-1) + 0.5 * (q * q) @ w2

    def velocity(q, p):
        return p.copy(), -w2 * q

    pair = integrate_original(HamiltonianSystem(2, energy, velocity, "two-oscillators"),
                              PhaseState(q=[0.3, 0.9], p=[-1.1, -0.4]), 1.0, 1e-3)
    for k, (omega, q0, p0) in enumerate(zip(omegas, (0.3, 0.9), (-1.1, -0.4))):
        single = integrate_original(harmonic_oscillator(omega), PhaseState(q=[q0], p=[p0]),
                                    1.0, 1e-3)
        assert np.max(np.abs(pair.qs[:, k] - single.qs[:, 0])) < 1e-13
        assert np.max(np.abs(pair.ps[:, k] - single.ps[:, 0])) < 1e-13


def reference_midpoint(kind, omega, z0, nsteps, dt, extended, tol=1e-13, max_iter=50,
                       extrapolate=True):
    """Float implicit-midpoint stepping with the force written out per kind.

    With `extrapolate`, each step from the third on starts its fixed-point
    iteration at the quadratic extrapolation 3(z_k - z_{k-1}) + z_{k-2};
    otherwise every step starts at the current point.
    """
    q, p = float(z0[0]), float(z0[1])
    T, S = (float(z0[2]), float(z0[3])) if extended else (0.0, 0.0)
    rows = [(q, p, T, S)]
    for step in range(nsteps):
        qa, pa = q, p
        if extrapolate and step >= 2:
            qa = 3 * (q - rows[-2][0]) + rows[-3][0]
            pa = 3 * (p - rows[-2][1]) + rows[-3][1]
        for _ in range(max_iter):
            qm = 0.5 * (q + qa)
            pm = 0.5 * (p + pa)
            if kind == "harmonic":
                fp = -(omega * omega) * qm
            elif kind == "free":
                fp = 0.0
            else:
                fp = -qm * qm * qm
            qn = q + dt * pm
            pn = p + dt * fp
            assert math.isfinite(qn) and math.isfinite(pn)
            delta = max(abs(qn - qa), abs(pn - pa))
            qa, pa = qn, pn
            if delta <= tol:
                break
        q, p = qa, pa
        T += dt if extended else 0.0
        rows.append((q, p, T, S))
    return np.array(rows)[:, :4 if extended else 2]


@pytest.mark.parametrize("kind, system", [
    ("harmonic", harmonic_oscillator(1.7)),
    ("free", free_particle()),
    ("quartic", quartic_oscillator()),
])
def test_builtin_systems_match_reference_stepping(kind, system):
    x0 = PhaseState(q=[0.9], p=[-0.4])
    orig = integrate_original(system, x0, 1.0, 1e-3)
    ref = reference_midpoint(kind, 1.7, [0.9, -0.4], 1000, 1e-3, False)
    assert np.array_equal(np.column_stack([orig.qs, orig.ps]), ref)
    y0 = extend_state(system, x0, 2.0)
    ext = integrate_extended(system.extended(), y0, 1.0, 1e-3)
    ref = reference_midpoint(kind, 1.7, [0.9, -0.4, 2.0, y0.S], 1000, 1e-3, True)
    assert np.array_equal(np.column_stack([ext.qs, ext.ps, ext.Ts, ext.Ss]), ref)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(kind=st.sampled_from(("harmonic", "quartic")),
       q0=st.floats(-2.0, 2.0), p0=st.floats(-2.0, 2.0), dt=st.sampled_from((1e-3, 5e-3)))
def test_extrapolated_start_agrees_with_plain_start(kind, q0, p0, dt):
    # The starting value only changes where the fixed-point iteration stops
    # inside its 1e-13 tolerance, not the trajectory it converges to.
    system = harmonic_oscillator(1.7) if kind == "harmonic" else quartic_oscillator()
    traj = integrate_original(system, PhaseState(q=[q0], p=[p0]), 1000 * dt, dt)
    plain = reference_midpoint(kind, 1.7, [q0, p0], 1000, dt, False, extrapolate=False)
    assert traj.params.size == 1001
    assert np.max(np.abs(np.column_stack([traj.qs, traj.ps]) - plain)) <= 1e-11


def counting_velocity(system):
    """A copy of `system` whose velocity field counts its calls after construction."""
    calls = []

    def velocity(q, p):
        calls.append(None)
        return system.velocity(q, p)

    counted = HamiltonianSystem(1, system.energy, velocity, system.label)
    calls.clear()  # drop the construction-time probe calls
    return counted, calls


@pytest.mark.parametrize("scenario, make", [
    ("classical_harmonic", harmonic_oscillator),
    ("classical_quartic", quartic_oscillator),
])
def test_velocity_calls_per_step_on_bundled_configs(scenario, make):
    # plain starts took 4.82 (harmonic) and 4.46 (quartic) calls per step
    cfg = next(c for c in bundled_scenarios() if c.scenario == scenario).classical
    system, calls = counting_velocity(make())
    traj = integrate_original(system, PhaseState(q=cfg.q0, p=cfg.p0), cfg.t_end, cfg.dt)
    steps = traj.params.size - 1
    assert steps == 6283
    assert len(calls) / steps <= 3.2


def test_divergence_reports_step_index():
    def energy(q, p):
        return 1e4 * (q[..., 0] ** 2 + p[..., 0] ** 2) ** 2

    def velocity(q, p):
        # float `**` raises OverflowError where float products give inf
        r = 4e4 * (q ** 2 + p ** 2)
        return r * p, -r * q

    system = HamiltonianSystem(1, energy, velocity, "explosive")
    with pytest.raises(DivergenceError) as info:
        integrate_original(system, PhaseState(q=[1.0], p=[1.0]), 10.0, 1.0)
    assert info.value.step >= 0
    assert isinstance(info.value.__cause__, OverflowError)


def finite_first_divergence(velocity, q, p, nsteps, dt, finite, sup, tol=1e-13, max_iter=50):
    """(step, velocity calls) at the first non-finite iterate of midpoint
    stepping that tests finiteness ahead of convergence, or (None, calls)."""
    qs, ps, calls = [q], [p], 0
    for step in range(nsteps):
        qa, pa = (3 * (q - qs[-2]) + qs[-3], 3 * (p - ps[-2]) + ps[-3]) if step >= 2 else (q, p)
        for _ in range(max_iter):
            fq, fp = velocity(0.5 * (q + qa), 0.5 * (p + pa))
            calls += 1
            qn, pn = q + dt * fq, p + dt * fp
            if not (finite(qn) and finite(pn)):
                return step, calls
            delta = max(sup(qn - qa), sup(pn - pa))
            qa, pa = qn, pn
            if delta <= tol:
                break
        q, p = qa, pa
        qs.append(q)
        ps.append(p)
    return None, calls


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("n", [1, 2])
def test_a_non_finite_iterate_diverges_at_the_same_step(n, bad):
    # a free particle whose field turns non-finite past q_1 = 10, met near step 100;
    # the float path for n == 1, the array path for n == 2
    calls = []

    def velocity(q, p):
        calls.append(None)
        if n == 1:
            return (p if q < 10.0 else bad), 0.0
        return (p.copy() if q[0] < 10.0 else np.full(n, bad)), np.zeros(n)

    def energy(q, p):
        return 0.5 * np.sum(p * p, axis=-1)

    system = HamiltonianSystem(n, energy, velocity, "wall")
    calls.clear()  # drop the construction-time probe calls
    x0 = PhaseState(q=np.zeros(n), p=np.ones(n))
    with pytest.raises(DivergenceError) as info:
        integrate_original(system, x0, 20.0, 0.1)
    sweeps = len(calls)
    if n == 1:
        expected = finite_first_divergence(velocity, 0.0, 1.0, 200, 0.1, math.isfinite, abs)
    else:
        expected = finite_first_divergence(velocity, x0.q, x0.p, 200, 0.1,
                                           lambda b: bool(np.all(np.isfinite(b))),
                                           lambda b: np.max(np.abs(b)))
    assert 90 < expected[0] < 110
    assert (info.value.step, sweeps) == expected
    assert info.value.__cause__ is None


def test_stalled_iteration_raises_numerical_failure():
    # dt * omega / 2 > 1 makes the fixed-point map non-contractive.
    system = harmonic_oscillator(100.0)
    with pytest.raises(NumericalFailureError):
        integrate_original(system, PhaseState(q=[1.0], p=[0.0]), 1.0, 0.1)


def test_step_count_validation():
    system = harmonic_oscillator()
    x0 = PhaseState(q=[1.0], p=[0.0])
    with pytest.raises(InvalidInputError):
        integrate_original(system, x0, -1.0, 1e-3)
    with pytest.raises(InvalidInputError):
        integrate_original(system, x0, 1.0, 0.0)
    with pytest.raises(InvalidInputError):
        integrate_original(system, x0, 1e-4, 1e-3)  # less than half a step


@pytest.mark.parametrize("t_end, dt, admitted", [
    (1e308, 5e-324, False),  # t_end/dt overflows to inf
    (2 * math.pi, 1e-12, False),
    (classical.MAX_CLASSICAL_STEPS + 1.0, 1.0, False),
    (float(classical.MAX_CLASSICAL_STEPS), 1.0, True),
])
def test_step_budget_is_checked_before_stepping(monkeypatch, t_end, dt, admitted):
    def no_stepping(*args, **kwargs):
        raise AssertionError("the midpoint loop was entered")

    monkeypatch.setattr(classical, "_midpoint", no_stepping)
    x0 = PhaseState(q=[1.0], p=[0.0])
    if admitted:
        with pytest.raises(AssertionError, match="midpoint loop was entered"):
            integrate_original(harmonic_oscillator(), x0, t_end, dt)
    else:
        with pytest.raises(InvalidInputError, match="exceeds the budget"):
            integrate_original(harmonic_oscillator(), x0, t_end, dt)


def test_trajectory_grid_validation():
    with pytest.raises(InvalidInputError):
        Trajectory(params=np.array([0.0, 1.0, 1.5]), qs=np.zeros((3, 1)),
                   ps=np.zeros((3, 1)))
    with pytest.raises(InvalidInputError):
        Trajectory(params=np.array([0.0, 1.0]), qs=np.zeros((3, 1)),
                   ps=np.zeros((3, 1)))
    with pytest.raises(InvalidInputError):
        Trajectory(params=np.array([1.0, 0.5]), qs=np.zeros((2, 1)),
                   ps=np.zeros((2, 1)))


def test_trajectory_csv_roundtrip(tmp_path):
    system = harmonic_oscillator()
    y0 = extend_state(system, PhaseState(q=[1.0], p=[0.0]), 0.0)
    traj = integrate_extended(system.extended(), y0, 0.5, 1e-2)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "param,q1,p1,T,S"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, np.column_stack([traj.params, traj.qs, traj.ps,
                                                 traj.Ts, traj.Ss]))


def test_trajectory_row_count(tmp_path):
    traj = integrate_original(free_particle(), PhaseState(q=[0.0], p=[1.0]), 1.0, 1e-3)
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1001 + 1  # inclusive endpoints plus header



def reference_csv(traj, path):
    """The per-value writer: one f-string per number."""
    n = traj.n
    header = ["param"] + [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    cols = [traj.params, *traj.qs.T, *traj.ps.T]
    if traj.extended:
        header += ["T", "S"]
        cols += [traj.Ts, traj.Ss]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def iso_2d():
    def energy(q, p):
        return 0.5 * np.sum(p * p, axis=-1) + 0.5 * np.sum(q * q, axis=-1)

    def velocity(q, p):
        return p.copy(), -q

    return HamiltonianSystem(2, energy, velocity, "iso-2d")


def csv_trajectories():
    quartic = quartic_oscillator()
    x1 = PhaseState(q=[1.0], p=[0.0])
    x2 = PhaseState(q=[0.3, -1.2], p=[0.7, 0.0])
    tiny = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1.0])
    return {
        "original-1": integrate_original(quartic, x1, 0.5, 1e-2),
        "extended-1": integrate_extended(quartic.extended(),
                                         extend_state(quartic, x1, -0.25), 0.5, 1e-2),
        "original-2": integrate_original(iso_2d(), x2, 0.5, 1e-2),
        "extended-2": integrate_extended(iso_2d().extended(),
                                         extend_state(iso_2d(), x2, 3.0), 0.5, 1e-2),
        "signed-zero-subnormal": Trajectory(
            params=0.5 * np.arange(6), qs=np.stack([tiny, -tiny], axis=1),
            ps=np.stack([tiny[::-1], np.full(6, -0.0)], axis=1),
            Ts=-tiny, Ss=tiny[::-1]),
    }


@pytest.mark.parametrize("name", sorted(csv_trajectories()))
def test_csv_matches_per_value_writer_byte_for_byte(tmp_path, name):
    traj = csv_trajectories()[name]
    traj.to_csv(tmp_path / "fast.csv")
    reference_csv(traj, tmp_path / "reference.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "reference.csv").read_bytes()
    if name == "signed-zero-subnormal":
        assert b"-0," in fast and b"4.9406564584124654e-324" in fast
