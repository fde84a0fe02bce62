import numpy as np
import pytest

from chronolab import (
    build_clock,
    build_extended,
    build_system_space,
    evolve_extended,
    evolve_factored,
    gaussian_clock_state,
    separable_state,
)
from chronolab.quantum import clock_marginal, fidelity, unit


def random_hermitian(rng, n):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (raw + raw.conj().T)


def random_state(rng, n):
    return unit(rng.normal(size=n) + 1j * rng.normal(size=n))


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(31)
    clock = build_clock(32, 0.25)
    system = build_system_space(random_hermitian(rng, 4))
    return system, clock, build_extended(system, clock)


def test_zero_time_is_identity(setup):
    system, clock, ext = setup
    rng = np.random.default_rng(0)
    psi = random_state(rng, ext.dim)
    assert np.max(np.abs(evolve_extended(ext, psi, 0.0) - psi)) < 1e-14


def test_eigenvector_picks_up_a_phase(setup):
    _, _, ext = setup
    lam, W = ext.eigensystem()
    v = W[:, 3]
    evolved = evolve_extended(ext, v, 0.8)
    assert fidelity(evolved, v) > 1 - 1e-12
    assert np.max(np.abs(evolved - np.exp(-1j * lam[3] * 0.8) * v)) < 1e-11


def test_factored_evolution_matches_joint(setup):
    system, clock, ext = setup
    rng = np.random.default_rng(5)
    for _ in range(50):
        psi_s = random_state(rng, system.n_levels)
        psi_T = random_state(rng, clock.M)
        theta = rng.uniform(-10, 10)
        joint = evolve_extended(ext, separable_state(psi_s, psi_T), theta, method="dense")
        s_out, t_out = evolve_factored(system, clock, psi_s, psi_T, theta)
        assert fidelity(joint, separable_state(s_out, t_out)) > 1 - 1e-11


def test_factored_time_zero_identity(setup):
    system, clock, _ = setup
    rng = np.random.default_rng(9)
    psi_s = random_state(rng, system.n_levels)
    psi_T = random_state(rng, clock.M)
    s_out, t_out = evolve_factored(system, clock, psi_s, psi_T, 0.0)
    assert np.max(np.abs(s_out - psi_s)) < 1e-14
    assert np.max(np.abs(t_out - psi_T)) < 1e-14


def test_clock_factor_eigenmode_phase(setup):
    system, clock, _ = setup
    k = 3
    phi = clock.plane_wave(k)
    omega = 2 * np.pi * k / (clock.M * clock.deltaT)
    _, t_out = evolve_factored(system, clock, np.ones(system.n_levels) / 2.0, phi, 0.6)
    expected = np.exp(-1j * clock.sigma * omega * 0.6) * phi
    assert np.max(np.abs(t_out - expected)) < 1e-12


def test_kron_and_dense_paths_agree(setup):
    _, _, ext = setup
    rng = np.random.default_rng(13)
    for theta in (-7.3, -0.2, 0.4, 9.9):
        psi = random_state(rng, ext.dim)
        a = evolve_extended(ext, psi, theta, method="kron")
        b = evolve_extended(ext, psi, theta, method="dense")
        assert fidelity(a, b) > 1 - 1e-12
        assert np.max(np.abs(a - b)) < 1e-11


def test_unitarity_over_theta_range(setup):
    _, _, ext = setup
    rng = np.random.default_rng(21)
    psi = random_state(rng, ext.dim)
    for theta in np.linspace(-10, 10, 9):
        assert abs(np.linalg.norm(evolve_extended(ext, psi, theta)) - 1.0) < 1e-12


def test_group_law(setup):
    _, _, ext = setup
    rng = np.random.default_rng(27)
    psi = random_state(rng, ext.dim)
    for t1, t2 in ((0.2, 0.7), (-3.0, 1.1), (5.0, 5.0)):
        once = evolve_extended(ext, psi, t1 + t2)
        twice = evolve_extended(ext, evolve_extended(ext, psi, t1), t2)
        assert fidelity(once, twice) > 1 - 1e-11


def test_mean_clock_time_advances_at_unit_rate(setup):
    system, clock, ext = setup
    rng = np.random.default_rng(33)
    psi = separable_state(random_state(rng, system.n_levels),
                          gaussian_clock_state(clock, width=clock.M * clock.deltaT / 16))

    def mean_time(state):
        return float(clock_marginal(state, clock.M) @ clock.times)

    delta = 1e-4
    drift = (mean_time(evolve_extended(ext, psi, delta))
             - mean_time(evolve_extended(ext, psi, -delta))) / (2 * delta)
    assert abs(drift - clock.sigma) < 1e-6


def test_whole_bin_evolution_shifts_marginal_cyclically(setup):
    system, clock, ext = setup
    rng = np.random.default_rng(35)
    psi = separable_state(random_state(rng, system.n_levels),
                          gaussian_clock_state(clock))
    before = clock_marginal(psi, clock.M)
    after = clock_marginal(evolve_extended(ext, psi, 3 * clock.deltaT), clock.M)
    assert np.max(np.abs(after - np.roll(before, clock.sigma * 3))) < 1e-12


def test_adjoint_products_match_the_conjugate_transpose_formulas(setup):
    system, clock, ext = setup
    rng = np.random.default_rng(37)
    V, F = system.vectors, clock.fourier
    lam, W = ext.eigensystem()
    for theta in rng.uniform(-10, 10, size=5):
        psi = random_state(rng, ext.dim)
        dense = W @ (np.exp(-1j * lam * theta) * (W.conj().T @ psi))
        assert np.max(np.abs(evolve_extended(ext, psi, theta, method="dense") - dense)) < 1e-15

        block = psi.reshape(system.n_levels, clock.M)
        block = V @ (np.exp(-1j * theta * system.energies)[:, None] * (V.conj().T @ block))
        phase_c = np.exp(-1j * theta * clock.sigma * clock.frequencies)
        kron = (F.conj().T @ (phase_c[:, None] * (F @ block.T))).T.reshape(-1)
        assert np.max(np.abs(evolve_extended(ext, psi, theta, method="kron") - kron)) < 1e-15

        psi_s, psi_T = random_state(rng, system.n_levels), random_state(rng, clock.M)
        out_s, out_T = evolve_factored(system, clock, psi_s, psi_T, theta)
        ref_s = V @ (np.exp(-1j * theta * system.energies) * (V.conj().T @ psi_s))
        ref_T = F.conj().T @ (phase_c * (F @ psi_T))
        assert np.max(np.abs(out_s - ref_s)) < 1e-15
        assert np.max(np.abs(out_T - ref_T)) < 1e-15
