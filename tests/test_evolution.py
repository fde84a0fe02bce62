import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolab import (
    ClockSpace,
    ExtendedSpace,
    InvalidInputError,
    build_clock,
    build_extended,
    build_system_space,
    commutator_residual,
    covariance_report,
    evolve_extended,
    evolve_factored,
    gaussian_clock_state,
    make_physical_state,
    separable_state,
    snap_energies,
    solve_constraint_spectral,
    stationarity_check,
    uncertainty_product,
)
from chronolab.constraint import constraint_residual
from chronolab.quantum import _eigenbasis_apply, _phases, clock_marginal, fidelity, unit


def random_hermitian(rng, n):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (raw + raw.conj().T)


def random_state(rng, n):
    return unit(rng.normal(size=n) + 1j * rng.normal(size=n))


def assembled_eigenpairs(ext):
    """(lam, W): the blocks of `ext.eigensystem()` as one spectrum and one
    dense eigenvector matrix, in block order; assembled here, never by the
    package."""
    blocks = ext.eigensystem()
    W = np.zeros((ext.dim, ext.dim), dtype=complex)
    end = 0
    for rows, _, vectors in blocks:
        end += rows.size
        W[rows, end - rows.size:end] = vectors
    return np.concatenate([values for _, values, _ in blocks]), W


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
    for rows, values, vectors in ext.eigensystem():
        v = np.zeros(ext.dim, dtype=complex)
        v[rows] = vectors[:, 3]
        evolved = evolve_extended(ext, v, 0.8)
        assert fidelity(evolved, v) > 1 - 1e-12
        assert np.max(np.abs(evolved - np.exp(-1j * values[3] * 0.8) * v)) < 1e-11


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


def reduced_angle_dft(M):
    # unitary DFT, rows ordered like `frequencies`; k * m is reduced mod M
    # before the angle is formed, so every entry is accurate to rounding
    k, m = np.arange(-M // 2, M // 2), np.arange(M)
    return np.exp(-2j * np.pi * (np.outer(k, m) % M) / M) / np.sqrt(M)


def test_adjoint_products_match_the_conjugate_transpose_formulas(setup):
    system, clock, ext = setup
    rng = np.random.default_rng(37)
    V, F = system.vectors, reduced_angle_dft(clock.M)
    lam, W = assembled_eigenpairs(ext)
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


@settings(deadline=None, derandomize=True)
@given(M=st.integers(4, 64).map(lambda half: 2 * half), n=st.integers(1, 4),
       sigma=st.sampled_from((1, -1)), deltaT=st.floats(0.05, 2.0),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_whole_bin_shift_and_fft_propagator_on_random_spectra(M, n, sigma, deltaT, data, seed):
    j = data.draw(st.integers(-M, M), label="bins")
    rng = np.random.default_rng(seed)
    ext = build_extended(build_system_space(random_hermitian(rng, n)),
                         build_clock(M, deltaT, sigma=sigma))
    psi = random_state(rng, ext.dim)
    report = covariance_report(ext, psi, j * deltaT)
    assert report.interpolated is False
    assert report.shift_deviation <= 1e-12
    kron = evolve_extended(ext, psi, j * deltaT, method="kron")
    dense = evolve_extended(ext, psi, j * deltaT, method="dense")
    assert np.max(np.abs(kron - dense)) <= 1e-10  # kron_dense_agreement's threshold


def random_states(rng, shape, n):
    raw = rng.normal(size=shape + (n,)) + 1j * rng.normal(size=shape + (n,))
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


# (leading psi axes, theta shape): stacked states against per-state thetas,
# one state against many thetas, many states against one theta
STACKS = (((3, 1), (3, 4)), ((), (4,)), ((3,), ()))


@settings(deadline=None, derandomize=True)
@given(n=st.integers(1, 4), M=st.integers(4, 32).map(lambda half: 2 * half),
       sigma=st.sampled_from((1, -1)), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_evolutions_equal_a_loop_of_scalar_calls(n, M, sigma, seed):
    rng = np.random.default_rng(seed)
    system = build_system_space(random_hermitian(rng, n))
    clock = build_clock(M, 0.25, sigma=sigma)
    ext = build_extended(system, clock)
    for lead, theta_shape in STACKS:
        psi = random_states(rng, lead, ext.dim)
        psi_s, psi_T = random_states(rng, lead, n), random_states(rng, lead, M)
        theta = rng.uniform(-10, 10, size=theta_shape)
        shape = np.broadcast_shapes(lead, theta_shape)
        thetas = np.broadcast_to(theta, shape)

        for method in ("kron", "dense"):
            batched = evolve_extended(ext, psi, theta, method)
            assert batched.shape == shape + (ext.dim,)
            states = np.broadcast_to(psi, shape + (ext.dim,))
            for index in np.ndindex(shape):
                single = evolve_extended(ext, states[index], float(thetas[index]), method)
                assert np.max(np.abs(batched[index] - single)) <= 1e-13

        out_s, out_T = evolve_factored(system, clock, psi_s, psi_T, theta)
        assert out_s.shape == shape + (n,) and out_T.shape == shape + (M,)
        states_s = np.broadcast_to(psi_s, shape + (n,))
        states_T = np.broadcast_to(psi_T, shape + (M,))
        for index in np.ndindex(shape):
            single_s, single_T = evolve_factored(system, clock, states_s[index],
                                                 states_T[index], float(thetas[index]))
            assert np.max(np.abs(out_s[index] - single_s)) <= 1e-13
            assert np.max(np.abs(out_T[index] - single_T)) <= 1e-13


def coupled_system(kind, n, rng):
    """A system matrix of the given coupling: `diagonal`, `two-blocks`
    (two coupled Hermitian blocks) or `random` (coupled throughout)."""
    if kind == "diagonal":
        return np.diag(rng.normal(size=n))
    if kind == "two-blocks":
        matrix = np.zeros((n, n), dtype=complex)
        matrix[:n // 2, :n // 2] = random_hermitian(rng, n // 2)
        matrix[n // 2:, n // 2:] = random_hermitian(rng, n - n // 2)
        return matrix
    return random_hermitian(rng, n)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(kind=st.sampled_from(("diagonal", "two-blocks", "random")),
       n=st.integers(2, 6), M=st.integers(4, 16).map(lambda half: 2 * half),
       sigma=st.sampled_from((1, -1)), seed=st.integers(0, 2 ** 32 - 1))
def test_blockwise_dense_evolution_equals_the_full_eigenvector_product(kind, n, M, sigma,
                                                                         seed):
    rng = np.random.default_rng(seed)
    ext = build_extended(build_system_space(coupled_system(kind, n, rng)),
                         build_clock(M, 0.25, sigma=sigma))
    blocks = ext.eigensystem()
    lam, W = assembled_eigenpairs(ext)
    psi = random_states(rng, (3, 1), ext.dim)
    theta = rng.uniform(-10, 10, size=(3, 4))
    dense = evolve_extended(ext, psi, theta, method="dense")
    full = _eigenbasis_apply(W, _phases(theta[..., None], lam), psi)
    assert dense.shape == (3, 4, ext.dim)
    assert np.max(np.abs(dense - full)) <= 1e-13
    if len(blocks) == 1:  # a coupled system: the plain eigh and its product, bit for bit
        lam_ref, W_ref = np.linalg.eigh(ext.hamiltonian)
        assert np.array_equal(blocks[0][1], lam_ref) and np.array_equal(blocks[0][2], W_ref)
        assert np.array_equal(dense, _eigenbasis_apply(W_ref, _phases(theta[..., None],
                                                                      lam_ref), psi))


@pytest.mark.parametrize("theta", [np.nan, [0.1, np.inf], [[0.0, 1.0], [-np.inf, 2.0]]],
                         ids=["scalar-nan", "inf-in-a-row", "-inf-in-a-grid"])
def test_a_non_finite_theta_anywhere_is_rejected(setup, theta):
    system, clock, ext = setup
    rng = np.random.default_rng(43)
    psi = random_states(rng, (2, 1), ext.dim)
    psi_s, psi_T = random_states(rng, (2, 1), system.n_levels), random_states(rng, (2, 1), clock.M)
    for method in ("kron", "dense"):
        with pytest.raises(InvalidInputError, match="finite"):
            evolve_extended(ext, psi, theta, method)
    with pytest.raises(InvalidInputError, match="finite"):
        evolve_factored(system, clock, psi_s, psi_T, theta)


def test_an_overflowing_phase_is_rejected_on_every_path(setup):
    system, clock, ext = setup
    rng = np.random.default_rng(47)
    theta = 1.5e308  # finite, but theta * w overflows on the clock's outer frequencies
    for method in ("kron", "dense"):
        with pytest.raises(InvalidInputError, match="leaves the float range"):
            evolve_extended(ext, random_state(rng, ext.dim), theta, method)
    with pytest.raises(InvalidInputError, match="leaves the float range"):
        evolve_factored(system, clock, random_state(rng, system.n_levels),
                        random_state(rng, clock.M), theta)


def test_phases_are_bit_identical_to_the_inline_formulas():
    # signed zeros included: the phase keeps every bit of exp(-i theta [sigma] x)
    theta = np.array([0.0, -0.0, 1.3, -7.0, 1e-300])[:, None]
    x = np.array([0.0, -0.0, 2.0, -2.0, 0.5, 1e300, -3e-310])
    assert _phases(theta, x).tobytes() == np.exp(-1j * theta * x).tobytes()
    for sigma in (1, -1):
        expected = np.exp(-1j * theta * sigma * x)
        assert _phases(theta, x, sigma).tobytes() == expected.tobytes()


def test_a_wrong_trailing_dimension_or_stack_shape_is_rejected(setup):
    system, clock, ext = setup
    n, M = system.n_levels, clock.M
    for psi, theta in ((np.ones((2, ext.dim + 1)), 0.5), (np.ones((ext.dim, 2)), 0.5),
                       (np.ones(()), 0.5), (np.ones((3, n, M)), 0.5),
                       (np.ones((3, ext.dim)), [0.5, 1.0])):
        for method in ("kron", "dense"):
            with pytest.raises(InvalidInputError):
                evolve_extended(ext, psi, theta, method)
    good_s, good_T = np.ones((2, n)), np.ones((2, M))
    for psi_s, psi_T in ((np.ones((2, n + 1)), good_T), (good_s, np.ones((2, M - 1))),
                         (np.ones((n, 2)), good_T), (good_s, np.ones(())),
                         (np.ones((3, n)), good_T), (good_s, np.ones((3, M)))):
        with pytest.raises(InvalidInputError):
            evolve_factored(system, clock, psi_s, psi_T, [0.5, 1.0])


def test_dense_views_are_read_by_the_oracles_only(monkeypatch):
    rng = np.random.default_rng(41)
    clock = build_clock(32, 0.25, T0=-2.0, sigma=-1)
    system, _ = snap_energies(build_system_space(random_hermitian(rng, 3)), clock)
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext)
    phys = make_physical_state(sub, rng.normal(size=sub.d) + 1j * rng.normal(size=sub.d))
    psi = random_state(rng, ext.dim)
    psi_s, psi_T = random_state(rng, system.n_levels), random_state(rng, clock.M)
    packet = gaussian_clock_state(clock, width=clock.M * clock.deltaT / 16)
    thetas = (0.1, 1.0, 10.0)

    # references through the dense operators
    H, S = ext.hamiltonian, clock.S_op
    lam, W = assembled_eigenpairs(ext)
    mu, U = np.linalg.eigh(S)

    def dense_evolve(vec, theta):
        return W @ (np.exp(-1j * lam * theta) * (W.conj().T @ vec))

    h_psi = H @ psi
    ref_d_energy = np.linalg.norm(h_psi - np.vdot(psi, h_psi).real * psi)
    ref_kron = dense_evolve(psi, 2.3)
    ref_T = U @ (np.exp(-1j * clock.sigma * 2.3 * mu) * (U.conj().T @ psi_T))
    ref_residual = np.linalg.norm(H @ phys.vector), np.linalg.norm(H @ psi)
    times = clock.times
    ref_commutator = np.linalg.norm(times * (S @ packet) - S @ (times * packet) - 1j * packet)
    before = clock_marginal(psi, clock.M)
    after = clock_marginal(dense_evolve(psi, 5 * clock.deltaT), clock.M)
    ref_shift = np.max(np.abs(after - np.roll(before, clock.sigma * 5)))
    ref_stationary = np.max(np.abs(after - before))
    ref_fids = [abs(np.vdot(phys.vector, dense_evolve(phys.vector, t))) for t in thetas]
    tol = 1e-12 * max(1.0, np.linalg.norm(H, np.inf))

    def refuse(self):
        raise AssertionError("dense view read outside an oracle")

    monkeypatch.setattr(ClockSpace, "S_op", property(refuse))
    monkeypatch.setattr(ExtendedSpace, "hamiltonian", property(refuse))
    monkeypatch.setattr(ExtendedSpace, "eigensystem", refuse)

    assert np.max(np.abs(evolve_extended(ext, psi, 2.3) - ref_kron)) <= tol
    _, out_T = evolve_factored(system, clock, psi_s, psi_T, 2.3)
    assert np.max(np.abs(out_T - ref_T)) <= tol
    assert abs(uncertainty_product(ext, psi).d_energy - ref_d_energy) <= tol
    assert abs(constraint_residual(ext, phys.vector) - ref_residual[0]) <= tol
    assert abs(constraint_residual(ext, psi) - ref_residual[1]) <= tol
    assert abs(commutator_residual(clock, packet) - ref_commutator) <= tol
    report = covariance_report(ext, psi, 5 * clock.deltaT)
    assert abs(report.shift_deviation - ref_shift) <= tol
    assert abs(report.stationary_deviation - ref_stationary) <= tol
    fids = stationarity_check(ext, phys, thetas).fidelities
    assert np.max(np.abs(np.array(fids) - ref_fids)) <= tol
