import numpy as np
import pytest

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


def test_gradient_probe_rejects_wrong_gradient():
    def energy(q, p):
        return 0.5 * float(p[0]) ** 2 + 0.5 * float(q[0]) ** 2

    def bad_gradient(q, p):
        return np.array([2.0 * q[0]]), np.array([p[0]])

    with pytest.raises(InvalidInputError):
        HamiltonianSystem(1, energy, bad_gradient, "broken")


def test_velocity_probe_rejects_a_field_that_disagrees_with_the_gradient():
    def energy(q, p):
        return 0.5 * float(p[0]) ** 2 + 0.5 * float(q[0]) ** 2

    def gradient(q, p):
        return np.array([q[0]]), np.array([p[0]])

    HamiltonianSystem(1, energy, gradient, "harmonic", lambda q, p: (p, -q))
    with pytest.raises(InvalidInputError, match="velocity"):
        HamiltonianSystem(1, energy, gradient, "sign-flipped", lambda q, p: (p, q))
    with pytest.raises(InvalidInputError, match="one-dof"):
        HamiltonianSystem(2, lambda q, p: 0.0, lambda q, p: (0 * q, 0 * p), "flat",
                          lambda q, p: (0.0, 0.0))


def test_gradient_probe_accepts_two_dof_system():
    def energy(q, p):
        return 0.5 * float(p @ p) + 0.5 * float(q @ q) + float(q[0] * q[1])

    def gradient(q, p):
        return np.array([q[0] + q[1], q[1] + q[0]]), p.copy()

    system = HamiltonianSystem(2, energy, gradient, "coupled")
    assert system.n == 2
