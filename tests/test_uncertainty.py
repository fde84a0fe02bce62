import numpy as np

from chronolab import (
    build_clock,
    build_extended,
    build_system_space,
    gaussian_clock_state,
    separable_state,
    solve_constraint_spectral,
    make_physical_state,
    uncertainty_product,
)
from chronolab.quantum import unit


def test_gaussian_packet_saturates_the_bound():
    clock = build_clock(256, 0.1)
    system = build_system_space(np.diag([0.0, 1.0]))
    ext = build_extended(system, clock)
    psi = separable_state(system.eigenstate(0), gaussian_clock_state(clock, width=1.0))
    result = uncertainty_product(ext, psi)
    assert 0.5 - 1e-3 <= result.product <= 0.6


def test_random_interior_states_respect_the_bound():
    rng = np.random.default_rng(51)
    clock = build_clock(256, 0.1)
    system = build_system_space(np.diag([0.0, 1.0]))
    ext = build_extended(system, clock)
    span = clock.M * clock.deltaT
    for _ in range(100):
        width = rng.uniform(6 * clock.deltaT, span / 10)
        center = clock.T0 + span / 2 + rng.uniform(-span / 8, span / 8)
        boost = rng.uniform(-np.pi / (3 * clock.deltaT), np.pi / (3 * clock.deltaT))
        packet = gaussian_clock_state(clock, center=center, width=width, momentum=boost)
        sys_vec = unit(rng.normal(size=2) + 1j * rng.normal(size=2))
        result = uncertainty_product(ext, separable_state(sys_vec, packet))
        assert result.product >= 0.5 - 1e-3


def test_physical_state_has_frozen_energy_and_maximal_time_spread():
    # an exact-kernel state: no energy spread, uniform clock distribution
    clock = build_clock(64, 0.25)
    step = clock.freq_step
    system = build_system_space(np.diag([0.0, 8 * step]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext)
    state = make_physical_state(sub, np.array([1.0, 1.0j]) / np.sqrt(2))
    result = uncertainty_product(ext, state.vector)
    assert result.d_energy < 1e-8
    uniform_std = clock.deltaT * np.sqrt((clock.M ** 2 - 1) / 12.0)
    assert abs(result.d_time - uniform_std) < 1e-9


def test_eigenvector_has_no_energy_spread():
    clock = build_clock(32, 0.2)
    system = build_system_space(np.diag([0.0, 0.7, 1.9]))
    ext = build_extended(system, clock)
    for rows, _, vectors in ext.eigensystem():
        v = np.zeros(ext.dim, dtype=complex)
        v[rows] = vectors[:, 5]
        assert uncertainty_product(ext, v).d_energy < 1e-10
