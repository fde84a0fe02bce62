import math

import numpy as np
import pytest

from chronolab import (
    HamiltonianSystem,
    InvalidInputError,
    PhaseState,
    check_equivalence,
    extend_state,
    free_particle,
    harmonic_oscillator,
    integrate_extended,
    integrate_original,
    quartic_oscillator,
)


def run_pair(system, x0, t_end=2 * math.pi, dt=1e-3, t0=0.0):
    orig = integrate_original(system, x0, t_end, dt)
    y0 = extend_state(system, x0, t0)
    ext = integrate_extended(system.extended(), y0, t_end, dt)
    return orig, ext


def test_harmonic_equivalence():
    system = harmonic_oscillator()
    orig, ext = run_pair(system, PhaseState(q=[1.0], p=[0.0]))
    report = check_equivalence(orig, ext, system)
    assert report.max_state_deviation < 1e-9
    assert report.max_time_mismatch < 1e-10
    assert report.max_slope_residual < 1e-10
    assert report.max_constraint_residual < 1e-10


def test_free_particle_machine_precision():
    system = free_particle()
    orig, ext = run_pair(system, PhaseState(q=[0.0], p=[1.0]), t_end=1.0)
    report = check_equivalence(orig, ext, system)
    assert report.max_state_deviation < 1e-13
    assert report.max_constraint_residual < 1e-13


def test_quartic_equivalence():
    system = quartic_oscillator()
    orig, ext = run_pair(system, PhaseState(q=[1.0], p=[0.0]))
    report = check_equivalence(orig, ext, system)
    assert report.max_state_deviation < 1e-9
    assert report.max_constraint_residual < 1e-5


def test_mismatched_origin_is_flagged():
    system = harmonic_oscillator()
    orig, ext = run_pair(system, PhaseState(q=[1.0], p=[0.0]), t_end=1.0, t0=0.25)
    report = check_equivalence(orig, ext, system)
    # unit slope still holds; the mismatch is the constant offset T(0) - t(0)
    assert report.max_slope_residual < 1e-10
    assert report.max_time_mismatch == pytest.approx(0.25, abs=1e-10)


def test_grid_mismatch_rejected():
    system = harmonic_oscillator()
    x0 = PhaseState(q=[1.0], p=[0.0])
    orig = integrate_original(system, x0, 1.0, 1e-3)
    y0 = extend_state(system, x0, 0.0)
    ext_short = integrate_extended(system.extended(), y0, 0.5, 1e-3)
    with pytest.raises(InvalidInputError):
        check_equivalence(orig, ext_short, system)
    ext_coarse = integrate_extended(system.extended(), y0, 1.0, 2e-3)
    with pytest.raises(InvalidInputError):
        check_equivalence(orig, ext_coarse, system)


def test_argument_roles_are_checked():
    system = harmonic_oscillator()
    x0 = PhaseState(q=[1.0], p=[0.0])
    orig = integrate_original(system, x0, 1.0, 1e-3)
    with pytest.raises(InvalidInputError):
        check_equivalence(orig, orig, system)


def iso_2d():
    def energy(q, p):
        return 0.5 * np.sum(p * p, axis=-1) + 0.5 * np.sum(q * q, axis=-1)

    def velocity(q, p):
        return p.copy(), -q

    return HamiltonianSystem(2, energy, velocity, "iso-2d")


@pytest.mark.parametrize("system, x0", [
    (harmonic_oscillator(1.3), PhaseState(q=[1.0], p=[-0.5])),
    (free_particle(), PhaseState(q=[0.0], p=[1.0])),
    (quartic_oscillator(), PhaseState(q=[1.0], p=[0.0])),
    (iso_2d(), PhaseState(q=[0.3, -1.2], p=[0.7, 0.0])),
], ids=["harmonic", "free", "quartic", "iso-2d"])
def test_constraint_channel_matches_a_per_point_loop(system, x0):
    orig, ext = run_pair(system, x0, t_end=1.0)
    report = check_equivalence(orig, ext, system)
    per_point = max(abs(ext.Ss[k] + system.energy(ext.qs[k], ext.ps[k]))
                    for k in range(ext.params.size))
    assert report.max_constraint_residual == per_point
