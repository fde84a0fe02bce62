import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolab import (
    ExtendedPhaseState,
    HamiltonianSystem,
    InvalidInputError,
    PhaseState,
    extend_state,
    free_particle,
    harmonic_oscillator,
    quartic_oscillator,
)


def test_phase_state_validation():
    state = PhaseState(q=[1.0, 2.0], p=[3.0, 4.0])
    assert state.n == 2
    with pytest.raises(InvalidInputError):
        PhaseState(q=[1.0, 2.0], p=[3.0])
    with pytest.raises(InvalidInputError):
        PhaseState(q=[np.nan], p=[0.0])
    with pytest.raises(InvalidInputError):
        PhaseState(q=[], p=[])


def test_phase_state_is_immutable():
    state = PhaseState(q=[1.0], p=[2.0])
    with pytest.raises(ValueError):
        state.q[0] = 5.0


def test_extended_state_validation():
    base = PhaseState(q=[1.0], p=[0.0])
    y = ExtendedPhaseState(base=base, T=0.5, S=-0.5)
    assert y.n == 1
    with pytest.raises(InvalidInputError):
        ExtendedPhaseState(base=base, T=np.inf, S=0.0)


def test_extend_state_harmonic():
    system = harmonic_oscillator()
    y = extend_state(system, PhaseState(q=[1.0], p=[0.0]), 0.0)
    assert y.T == 0.0
    assert y.S == -0.5
    assert system.extended().energy(y) == 0.0


def test_extend_state_free_particle_zero_energy():
    system = free_particle()
    y = extend_state(system, PhaseState(q=[3.0], p=[0.0]), 7.0)
    assert y.T == 7.0
    assert y.S == 0.0


def test_extend_state_negative_time():
    system = harmonic_oscillator()
    y = extend_state(system, PhaseState(q=[1.0], p=[1.0]), -2.0)
    assert y.T == -2.0
    assert y.S == -1.0


def test_extend_state_dimension_mismatch():
    system = harmonic_oscillator()
    with pytest.raises(InvalidInputError):
        extend_state(system, PhaseState(q=[1.0, 2.0], p=[0.0, 0.0]), 0.0)


def test_extended_hamiltonian_off_surface():
    system = harmonic_oscillator()
    ext = system.extended()
    y = ExtendedPhaseState(base=PhaseState(q=[0.0], p=[0.0]), T=0.0, S=1.0)
    assert ext.energy(y) == 1.0
    y2 = ExtendedPhaseState(base=PhaseState(q=[1.0], p=[0.0]), T=0.0, S=-0.5)
    assert ext.energy(y2) == 0.0


def test_extend_state_is_exact_for_many_points():
    rng = np.random.default_rng(7)
    for system in (harmonic_oscillator(0.7), free_particle(), quartic_oscillator()):
        ext = system.extended()
        for _ in range(25):
            x = PhaseState(q=rng.normal(size=1), p=rng.normal(size=1))
            y = extend_state(system, x, rng.normal())
            assert ext.energy(y) == 0.0


def _harmonic_energy(q, p):
    return 0.5 * p[..., 0] ** 2 + 0.5 * q[..., 0] ** 2


def test_gradient_probe_rejects_wrong_gradient():
    """A field whose -dH/dq carries a wrong factor disagrees with the energy."""
    HamiltonianSystem(1, _harmonic_energy, lambda q, p: (p, -q), "harmonic")
    with pytest.raises(InvalidInputError, match="velocity"):
        HamiltonianSystem(1, _harmonic_energy, lambda q, p: (p, -2.0 * q), "broken")


def test_velocity_probe_rejects_a_field_that_disagrees_with_the_gradient():
    """A sign flip, and the gradient (dH/dq, dH/dp) passed in place of the field."""
    for bad in (lambda q, p: (p, q), lambda q, p: (q, p)):
        with pytest.raises(InvalidInputError, match="velocity"):
            HamiltonianSystem(1, _harmonic_energy, bad, "broken")


def test_builtin_energies_take_stacked_points():
    rng = np.random.default_rng(19)
    q, p = rng.normal(size=(2, 3, 5, 1))
    for system in (harmonic_oscillator(0.7), free_particle(), quartic_oscillator()):
        stacked = system.energy(q, p)
        rows = [[system.energy(q[i, j], p[i, j]) for j in range(5)] for i in range(3)]
        assert stacked.shape == (3, 5)
        assert np.array_equal(stacked, np.array(rows))


@pytest.mark.parametrize("n, energy", [
    (1, lambda q, p: 0.5 * float(p[0]) ** 2 + 0.5 * float(q[0]) ** 2),
    (1, lambda q, p: 0.5 * float(np.sum(p * p)) + 0.5 * float(np.sum(q * q))),
    (2, lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ q)),
], ids=["indexes-one-point", "sums-the-stack", "dots-one-point"])
def test_an_energy_of_one_point_only_is_rejected(n, energy):
    def velocity(q, p):
        return (p, -q) if n == 1 else (p.copy(), -q)

    with pytest.raises(InvalidInputError, match="stacked"):
        HamiltonianSystem(n, energy, velocity, "per-point")


def test_an_overflowing_energy_is_invalid_input_at_one_point():
    # numpy only warns on the overflow, and every warning is an error here
    y = ExtendedPhaseState(base=PhaseState(q=[1e200], p=[0.0]), T=0.0, S=0.0)
    for system in (harmonic_oscillator(), quartic_oscillator()):
        with pytest.raises(InvalidInputError, match="overflows the float range"):
            extend_state(system, y.base, 0.0)
        with pytest.raises(InvalidInputError, match="overflows the float range"):
            system.extended().energy(y)


def test_an_energy_that_overflows_at_the_probe_points_is_invalid_input():
    # omega^2 overflows to inf, and inf - inf would only warn; every
    # warning is an error under pytest, as under PYTHONWARNINGS=error
    with pytest.raises(InvalidInputError, match="overflows the float range"):
        harmonic_oscillator(1e200)


def test_velocity_probe_accepts_two_dof_system():
    def energy(q, p):
        return (0.5 * np.sum(p * p, axis=-1) + 0.5 * np.sum(q * q, axis=-1)
                + q[..., 0] * q[..., 1])

    def velocity(q, p):
        return p.copy(), -np.array([q[0] + q[1], q[1] + q[0]])

    system = HamiltonianSystem(2, energy, velocity, "coupled")
    assert system.n == 2


@st.composite
def quadratic_forms(draw):
    """H = z^T A z / 2 on z = [q, p] with A symmetric and its diagonal in [1, 3],
    so no row of A, and no component of the field, vanishes identically."""
    n = draw(st.sampled_from((1, 2, 3)))
    dim = 2 * n
    off = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=dim * dim, max_size=dim * dim)))
    diag = np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=dim, max_size=dim)))
    off = off.reshape(dim, dim)
    A = np.triu(off, 1) + np.triu(off, 1).T + np.diag(diag)
    return n, A, draw(st.integers(0, dim - 1))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(quadratic_forms())
def test_velocity_probe_on_quadratic_forms(case):
    n, A, k = case

    def energy(q, p):
        z = np.concatenate([q, p], axis=-1)
        return 0.5 * np.einsum("...i,ij,...j->...", z, A, z)

    def scaled_field(factor):
        """The exact field (dH/dp, -dH/dq) with component k times `factor`."""
        def velocity(q, p):
            grad = A @ np.concatenate([np.atleast_1d(q), np.atleast_1d(p)])
            v = np.concatenate([grad[n:], -grad[:n]])
            v[k] *= factor
            return (float(v[0]), float(v[1])) if n == 1 else (v[:n], v[n:])

        return velocity

    assert HamiltonianSystem(n, energy, scaled_field(1.0), "quadratic").n == n
    for factor in (-1.0, 1.0 + 1e-3):
        with pytest.raises(InvalidInputError, match="velocity"):
            HamiltonianSystem(n, energy, scaled_field(factor), "quadratic")
