import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolab import (
    InvalidInputError,
    NoPhysicalStatesError,
    build_clock,
    build_extended,
    build_system_space,
    make_physical_state,
    principal_angles,
    snap_energies,
    solve_constraint_kernel,
    solve_constraint_spectral,
    stationarity_check,
)
from chronolab import constraint
from chronolab.constraint import (
    constraint_residual,
    default_eps_match,
    physical_clock_marginal,
)
from chronolab.quantum import fidelity, separable_state


def brute_force_pairs(ext, eps):
    """Independent scan over every (level, frequency) combination."""
    found = []
    k_values = np.arange(-ext.clock.M // 2, ext.clock.M // 2)
    for i, energy in enumerate(ext.system.energies):
        for k, omega in zip(k_values, ext.clock.frequencies):
            if abs(energy + ext.sigma * omega) <= eps:
                found.append((i, int(k)))
    return found


@pytest.fixture(scope="module")
def qubit():
    clock = build_clock(64, 0.25)
    step = clock.freq_step
    system = build_system_space(np.diag([0.0, 8 * step]))
    return build_extended(system, clock)


def test_commensurate_qubit_matches(qubit):
    sub = solve_constraint_spectral(qubit)
    assert sub.d == 2
    assert [(p.i, p.k) for p in sub.pairs] == [(0, 0), (1, -8)]
    assert brute_force_pairs(qubit, sub.eps) == [(0, 0), (1, -8)]
    for pair in sub.pairs:
        assert pair.s_value == pytest.approx(-qubit.sigma * pair.energy, abs=1e-12)
        assert pair.mismatch < 1e-12
    assert not sub.misses


def test_sign_flip_mirrors_the_matched_frequencies(qubit):
    clock = build_clock(64, 0.25, sigma=-1)
    ext = build_extended(qubit.system, clock)
    sub = solve_constraint_spectral(ext)
    assert [(p.i, p.k) for p in sub.pairs] == [(0, 0), (1, 8)]


def test_incommensurate_level_reports_nearest_miss():
    clock = build_clock(64, 0.25)
    step = clock.freq_step
    system = build_system_space(np.diag([0.0, 0.5 * step]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext, eps_match=0.1 * step)
    assert sub.d == 1
    assert len(sub.misses) == 1
    miss = sub.misses[0]
    assert miss.i == 1
    assert miss.distance == pytest.approx(0.5 * step, rel=1e-12)


def test_single_zero_level():
    clock = build_clock(16, 0.5)
    system = build_system_space(np.zeros((1, 1)))
    ext = build_extended(system, clock)
    spectral, kernel = solve_constraint_spectral(ext), solve_constraint_kernel(ext)
    assert spectral.d == kernel.d == 1
    assert [(p.i, p.k) for p in spectral.pairs] == [(0, 0)]
    # only the spectral route labels its columns
    assert kernel.pairs == () and kernel.misses == ()


def test_half_spacing_tie_resolves_to_lower_frequency_index():
    # M dT = 2 pi makes the frequency grid exactly the integers, the default
    # tolerance exactly 0.5, and an energy of 0.5 an exact tie between k = 0
    # and k = -1; the deterministic rule keeps the lower index.
    clock = build_clock(8, np.pi / 4)
    system = build_system_space(np.diag([0.0, 0.5]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext)
    assert default_eps_match(ext) == 0.5
    assert [(p.i, p.k) for p in sub.pairs] == [(0, 0), (1, -1)]


def test_wide_tolerance_keeps_every_candidate():
    clock = build_clock(8, np.pi / 4)  # integer frequency grid
    system = build_system_space(np.diag([0.0]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext, eps_match=1.5)
    assert [(p.i, p.k) for p in sub.pairs] == [(0, -1), (0, 0), (0, 1)]


def test_degenerate_levels_all_enter_the_basis():
    clock = build_clock(16, 0.5)
    system = build_system_space(np.diag([0.0, 0.0]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext)
    assert sub.d == 2
    assert [(p.i, p.k) for p in sub.pairs] == [(0, 0), (1, 0)]
    gram = sub.basis.conj().T @ sub.basis
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_kernel_route_agrees_with_spectral(qubit):
    spectral = solve_constraint_spectral(qubit)
    kernel = solve_constraint_kernel(qubit)
    assert kernel.d == spectral.d
    assert np.max(principal_angles(spectral.basis, kernel.basis)) < 1e-8
    for a in range(kernel.d):
        assert constraint_residual(qubit, kernel.basis[:, a]) < 1e-9


def test_kernel_route_in_a_rotated_basis():
    # same physics when H_s is dense: eigenvectors are no longer coordinate axes
    rng = np.random.default_rng(61)
    clock = build_clock(32, 0.25)
    step = clock.freq_step
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Q = np.linalg.qr(raw)[0]
    H = Q @ np.diag([0.0, 4 * step, -3 * step]) @ Q.conj().T
    ext = build_extended(build_system_space(H), clock)
    spectral = solve_constraint_spectral(ext)
    kernel = solve_constraint_kernel(ext)
    assert spectral.d == kernel.d == 3
    assert np.max(principal_angles(spectral.basis, kernel.basis)) < 1e-8


def twice_matched_space():
    """sigma = -1 with a wide eps: level 0 matches k = 0 and k = 1, and the
    kernel's first column, its lowest eigenvalue, is spectral pair 1."""
    clock = build_clock(16, 1.0, sigma=-1)
    step = clock.freq_step
    system = build_system_space(np.diag([0.3 * step, 3 * step]))
    return build_extended(system, clock), 0.75 * step


def snapped_coupled_space():
    """Four coupled levels snapped onto M = 16: one block, whose kernel
    columns mix the matched pairs."""
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    clock = build_clock(16, 0.25)
    system, _ = snap_energies(build_system_space(0.5 * (raw + raw.conj().T)), clock)
    return build_extended(system, clock), None


@pytest.mark.parametrize("space", [twice_matched_space, snapped_coupled_space],
                         ids=["sigma-minus-twice-matched", "snapped-coupled"])
def test_kernel_route_reads_no_matching_rule(space, monkeypatch):
    ext, eps = space()
    spectral = solve_constraint_spectral(ext, eps)

    def no_matching(*args):
        raise AssertionError("the kernel oracle matched levels")

    monkeypatch.setattr(constraint, "_match_levels", no_matching)
    kernel = solve_constraint_kernel(ext, spectral.eps)
    assert kernel.pairs == () and kernel.misses == ()
    assert kernel.d == spectral.d >= 3
    assert np.max(principal_angles(spectral.basis, kernel.basis)) < 1e-8


def test_gapped_spectrum_has_empty_kernel():
    clock = build_clock(16, 0.5)
    step = clock.freq_step
    system = build_system_space(np.diag([0.37 * step]))
    ext = build_extended(system, clock)
    sub = solve_constraint_kernel(ext, eps_eig=0.25 * step)
    assert sub.d == 0
    assert sub.misses == ()  # the miss is the spectral route's diagnostic
    with pytest.raises(NoPhysicalStatesError):
        make_physical_state(sub, np.array([]))


def test_snap_energies_lands_on_the_grid():
    clock = build_clock(64, 0.25)
    system = build_system_space(np.diag(np.arange(8) + 0.5))
    snapped, shifts = snap_energies(system, clock)
    assert len(shifts) == 8
    assert max(abs(new - old) for _, old, new in shifts) <= clock.freq_step / 2
    ext = build_extended(snapped, clock)
    sub = solve_constraint_spectral(ext)
    assert sub.d == 8
    for pair in sub.pairs:
        assert pair.mismatch < 1e-12


@settings(deadline=None, derandomize=True, max_examples=60)
@given(M=st.integers(4, 512).map(lambda half: 2 * half),
       deltaT=st.sampled_from((1e-4, 0.003, 0.1, 0.25, 0.7, 3.0, 50.0)),
       sigma=st.sampled_from((1, -1)), seed=st.integers(0, 2 ** 32 - 1))
def test_snapped_levels_sit_exactly_on_their_frequencies(M, deltaT, sigma, seed):
    clock = build_clock(M, deltaT, sigma=sigma)
    top = np.pi / deltaT
    energies = np.random.default_rng(seed).uniform(-top, top, size=6)
    snapped, _ = snap_energies(build_system_space(np.diag(energies)), clock)
    sub = solve_constraint_spectral(build_extended(snapped, clock))
    assert sub.pairs and all(pair.mismatch == 0.0 for pair in sub.pairs)


def test_a_level_snapped_onto_the_zero_frequency_is_positive_zero():
    for sigma in (1, -1):
        snapped, shifts = snap_energies(build_system_space(np.diag([1e-9, 2.0])),
                                        build_clock(8, 0.5, sigma=sigma))
        assert snapped.energies[0] == 0.0 and not np.signbit(snapped.energies[0])
        assert not np.signbit(shifts[0][2])


def test_snap_energies_keeps_the_eigenvectors_and_runs_no_eigh(monkeypatch):
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    system = build_system_space(0.5 * (raw + raw.conj().T))
    clock = build_clock(8, 0.5, sigma=-1)  # a coarse grid: some levels collide

    def refuse(*args, **kwargs):
        raise AssertionError("snap_energies ran an eigendecomposition")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    snapped, shifts = snap_energies(system, clock)
    energies, vectors = snapped.energies, snapped.vectors
    assert vectors is system.vectors
    assert energies.tolist() == [new for _, _, new in shifts]
    assert np.all(np.diff(energies) >= 0) and np.any(np.diff(energies) == 0)
    assert np.array_equal(snapped.matrix, snapped.matrix.conj().T)
    assert np.max(np.abs(snapped.matrix @ vectors - vectors * energies)) <= 1e-12
    assert not (snapped.matrix.flags.writeable or energies.flags.writeable)


def test_make_physical_state_basis_and_gauge(qubit):
    sub = solve_constraint_spectral(qubit)
    basis_state = make_physical_state(sub, np.array([1.0, 0.0]))
    assert np.max(np.abs(basis_state.vector - sub.basis[:, 0])) < 1e-14

    even = make_physical_state(sub, np.array([1.0, 1.0]) / np.sqrt(2))
    residual_sq = np.vdot(qubit.hamiltonian @ even.vector,
                          qubit.hamiltonian @ even.vector).real
    scale = max(abs(p.energy) for p in sub.pairs) + qubit.clock.freq_step
    assert residual_sq <= (sub.eps * scale) ** 2

    a = make_physical_state(sub, np.array([1.0j, 1.0]) / np.sqrt(2))
    b = make_physical_state(sub, np.array([-1.0, 1.0j]) / np.sqrt(2))
    assert fidelity(a.vector, b.vector) > 1 - 1e-12


def test_make_physical_state_validation(qubit):
    sub = solve_constraint_spectral(qubit)
    with pytest.raises(InvalidInputError):
        make_physical_state(sub, np.array([0.0, 0.0]))
    with pytest.raises(InvalidInputError):
        make_physical_state(sub, np.array([1.0]))


def test_linearity_of_the_subspace(qubit):
    rng = np.random.default_rng(71)
    sub = solve_constraint_spectral(qubit)
    scale = max(abs(p.energy) for p in sub.pairs) + qubit.clock.freq_step
    for _ in range(20):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = make_physical_state(sub, c)
        h_psi = qubit.hamiltonian @ state.vector
        assert np.vdot(h_psi, h_psi).real <= (sub.eps * scale) ** 2


def test_restricted_s_has_the_matched_spectrum(qubit):
    for sigma in (1, -1):
        clock = build_clock(64, 0.25, sigma=sigma)
        ext = build_extended(qubit.system, clock)
        sub = solve_constraint_spectral(ext)
        s_full = np.kron(np.eye(ext.system.n_levels), clock.S_op)
        restricted = sub.basis.conj().T @ s_full @ sub.basis
        expected = np.diag([-sigma * p.energy for p in sub.pairs])
        assert np.max(np.abs(restricted - expected)) < 1e-9


def test_uniform_clock_marginal(qubit):
    rng = np.random.default_rng(81)
    sub = solve_constraint_spectral(qubit)
    for _ in range(10):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        marg = physical_clock_marginal(make_physical_state(sub, c))
        assert np.max(np.abs(marg - 1.0 / qubit.clock.M)) < 1e-10


def test_stationarity_exact_and_zero(qubit):
    rng = np.random.default_rng(91)
    sub = solve_constraint_spectral(qubit)
    state = make_physical_state(sub, rng.normal(size=2) + 1j * rng.normal(size=2))
    report = stationarity_check(qubit, state, (0.0, 0.1, 1.0, 10.0))
    assert report.fidelities[0] == pytest.approx(1.0, abs=1e-14)
    assert report.min_fidelity > 1 - 1e-10


def test_stationarity_near_match_perturbation_bound():
    clock = build_clock(64, 0.25)
    step = clock.freq_step
    detune = 0.05 * step
    system = build_system_space(np.diag([0.0, 8 * step + detune]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext, eps_match=0.1 * step)
    assert sub.d == 2
    state = make_physical_state(sub, np.array([1.0, 1.0]) / np.sqrt(2))
    h_psi = ext.hamiltonian @ state.vector
    residual = np.sqrt(np.vdot(h_psi, h_psi).real)
    thetas = (0.1, 0.5, 1.0)
    report = stationarity_check(ext, state, thetas)
    for theta, fid in zip(thetas, report.fidelities):
        assert fid >= 1 - (residual * theta) ** 2 / 2 - 1e-12
    # the bound is also descriptive: fidelity really does fall with theta
    assert report.fidelities[0] > report.fidelities[-1]


def test_principal_angles_detect_real_differences(qubit):
    sub = solve_constraint_spectral(qubit)
    other = np.zeros_like(sub.basis)
    other[:, 0] = sub.basis[:, 0]
    other[:, 1] = separable_state(qubit.system.eigenstate(0),
                                  qubit.clock.plane_wave(5))
    angles = principal_angles(sub.basis, other)
    assert angles.max() > 1.0  # an orthogonal replacement is fully misaligned
    assert angles.min() < 1e-10
