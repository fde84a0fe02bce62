import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolab import (
    EventOperator,
    InvalidInputError,
    NoPhysicalStatesError,
    NumericalFailureError,
    TimePOVM,
    build_clock,
    build_extended,
    build_system_space,
    build_time_povm,
    conditional_state,
    conditional_states,
    covariance_report,
    event_probability,
    make_physical_state,
    pm_violation_report,
    projective_clock_povm,
    solve_constraint_kernel,
    solve_constraint_spectral,
    time_distribution,
)
from chronolab.povm import first_moment_vs_closed_form, restricted_time_operator
from chronolab.quantum import (
    fidelity,
    gaussian_clock_state,
    separable_state,
    unit,
)


def qubit_setup(M=64, deltaT=0.25, sigma=1, gap_steps=8):
    clock = build_clock(M, deltaT, sigma=sigma)
    system = build_system_space(np.diag([0.0, gap_steps * clock.freq_step]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext)
    return clock, system, ext, sub


def brute_force_defects(effects):
    """Dense matrix products and SVDs, independent of the report path."""
    M = effects.shape[0]
    orth = max(
        np.linalg.svd(effects[m] @ effects[mp], compute_uv=False)[0]
        for m in range(M) for mp in range(M) if m != mp
    )
    idem = max(
        np.linalg.svd(effects[m] @ effects[m] - effects[m], compute_uv=False)[0]
        for m in range(M)
    )
    return orth, idem


def dense_gram_defects(W):
    """Rank-one defects over every pair of the dense M x M Gram matrix
    G = W W^dag, with no covariance assumed: the (M, M) upper-triangular
    orthogonality defects and the largest idempotency defect."""
    gram = W @ W.conj().T
    norms = gram.diagonal().real
    orth = np.triu(np.abs(gram) * np.sqrt(np.outer(norms, norms)), k=1)
    return orth, float(np.max(np.abs(norms - 1.0) * norms))


# --- construction and axioms -------------------------------------------------

def test_povm_axioms_qubit():
    _, _, _, sub = qubit_setup()
    povm = build_time_povm(sub)
    assert povm.min_effect_eigenvalue() >= -1e-12
    assert povm.completeness_residual() < 1e-10
    for effect in povm.effects:
        assert np.max(np.abs(effect - effect.conj().T)) < 1e-14


def test_single_pair_effects_are_scalars_one_over_m():
    clock = build_clock(16, 0.5)
    system = build_system_space(np.zeros((1, 1)))
    ext = build_extended(system, clock)
    povm = build_time_povm(solve_constraint_spectral(ext))
    assert povm.d == 1
    assert np.max(np.abs(povm.effects - 1.0 / clock.M)) < 1e-14


def test_qubit_effects_match_phase_matrix_closed_form():
    clock, _, _, sub = qubit_setup()
    povm = build_time_povm(sub)
    k1, k2 = (p.k for p in sub.pairs)
    M = clock.M
    m = np.arange(M)
    phase = np.exp(2j * np.pi * (k2 - k1) * m / M)
    expected = np.empty((M, 2, 2), dtype=complex)
    expected[:, 0, 0] = expected[:, 1, 1] = 1.0 / M
    expected[:, 0, 1] = phase / M
    expected[:, 1, 0] = phase.conj() / M
    assert np.max(np.abs(povm.effects - expected)) < 1e-14
    # each effect is rank one
    for effect in povm.effects[:8]:
        eigs = np.sort(np.linalg.eigvalsh(effect))
        assert abs(eigs[-1] - 2.0 / M) < 1e-14
        assert abs(eigs[0]) < 1e-14


def test_degenerate_matched_frequency_is_rejected():
    clock = build_clock(16, 0.5)
    system = build_system_space(np.diag([0.0, 0.0]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext)  # both levels match k = 0
    with pytest.raises(InvalidInputError):
        build_time_povm(sub)


def test_empty_subspace_is_rejected():
    clock = build_clock(16, 0.5)
    system = build_system_space(np.diag([0.37 * clock.freq_step]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext, eps_match=0.1 * clock.freq_step)
    with pytest.raises(NoPhysicalStatesError):
        build_time_povm(sub)


# --- distance from a projector measure ---------------------------------------

def test_single_pair_defects_closed_form():
    clock = build_clock(8, 1.0)
    system = build_system_space(np.zeros((1, 1)))
    ext = build_extended(system, clock)
    report = pm_violation_report(build_time_povm(solve_constraint_spectral(ext)))
    assert report.orthogonality_defect == pytest.approx(1.0 / 64.0, abs=1e-15)
    assert report.idempotency_defect == pytest.approx(7.0 / 64.0, abs=1e-15)


def test_qubit_defects_brute_force_and_closed_form():
    clock, _, _, sub = qubit_setup()
    povm = build_time_povm(sub)
    report = pm_violation_report(povm)
    orth_ref, idem_ref = brute_force_defects(povm.effects)
    assert report.orthogonality_defect == pytest.approx(orth_ref, rel=1e-12)
    assert report.idempotency_defect == pytest.approx(idem_ref, rel=1e-12)
    # rank-one closed form: max over bin separations of (d/M)|sum_a e^{i 2 pi k_a delta / M}|
    M = clock.M
    ks = np.array([p.k for p in sub.pairs])
    closed = max(
        (2.0 / M ** 2) * abs(np.sum(np.exp(2j * np.pi * ks * delta / M)))
        for delta in range(1, M)
    )
    assert report.orthogonality_defect == pytest.approx(closed, rel=1e-12)
    assert report.orthogonality_defect > 1e-6
    assert report.idempotency_defect > 1e-6


def test_pm_report_rejects_a_frame_that_is_not_shift_covariant():
    # orthonormal, so a valid POVM, but its Gram matrix is not circulant
    clock = build_clock(16, 0.5)
    rng = np.random.default_rng(121)
    frame = np.linalg.qr(rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3)))[0]
    povm = TimePOVM(frame=frame, times=clock.times, deltaT=clock.deltaT, sigma=clock.sigma)
    assert povm.completeness_residual() < 1e-12
    with pytest.raises(InvalidInputError, match="not covariant under the clock shift"):
        pm_violation_report(povm)


def test_pm_report_of_kernel_route_frame_matches_the_dense_gram():
    # the kernel route mixes the degenerate plane waves by an arbitrary unitary
    _, _, ext, sub = qubit_setup()
    povm = build_time_povm(solve_constraint_kernel(ext))
    report = pm_violation_report(povm)
    orth, idem = dense_gram_defects(povm.frame)
    assert report.orthogonality_defect == pytest.approx(orth.max(), rel=1e-12)
    assert report.idempotency_defect == pytest.approx(idem, rel=1e-12)
    spectral = pm_violation_report(build_time_povm(sub))
    assert report.orthogonality_defect == pytest.approx(spectral.orthogonality_defect,
                                                        rel=1e-12)


def test_control_case_is_a_projector_measure():
    clock = build_clock(16, 0.5)
    report = pm_violation_report(projective_clock_povm(clock))
    assert report.orthogonality_defect < 1e-12
    assert report.idempotency_defect < 1e-12


# --- gram matrix --------------------------------------------------------------

def test_gram_single_pair_constant_modulus():
    clock = build_clock(16, 0.5)
    system = build_system_space(np.zeros((1, 1)))
    ext = build_extended(system, clock)
    W = build_time_povm(solve_constraint_spectral(ext)).frame
    gram = W @ W.conj().T
    assert np.max(np.abs(np.abs(gram) - 1.0 / clock.M)) < 1e-13


def test_gram_control_case_is_identity():
    clock = build_clock(16, 0.5)
    povm = projective_clock_povm(clock)
    W = povm.frame
    assert np.array_equal(W @ W.conj().T, np.eye(clock.M))
    report = pm_violation_report(povm)
    assert report.orthogonality_defect == 0.0
    assert report.idempotency_defect == 0.0


def test_gram_qubit_has_offdiagonal_weight():
    _, _, _, sub = qubit_setup()
    W = build_time_povm(sub).frame
    gram = W @ W.conj().T
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() > -1e-12  # positive semidefinite
    assert abs(gram[0, 1]) > 1e-6
    assert np.max(np.abs(gram - gram.conj().T)) < 1e-13


# --- distributions ------------------------------------------------------------

def test_single_pair_distribution_uniform():
    _, _, _, sub = qubit_setup()
    povm = build_time_povm(sub)
    p = time_distribution(povm, np.array([1.0, 0.0]))
    assert np.max(np.abs(p - 1.0 / povm.M)) < 1e-14


def test_two_pair_interference_fringe():
    clock, _, _, sub = qubit_setup()
    povm = build_time_povm(sub)
    c = np.array([1.0, 1.0]) / np.sqrt(2)
    p = time_distribution(povm, c)
    gap = sub.pairs[1].s_value - sub.pairs[0].s_value
    fringe = (1.0 + np.cos(gap * (clock.times - clock.T0))) / clock.M
    assert np.max(np.abs(p - fringe)) < 1e-9
    # complex coefficients move the fringe by their relative phase
    c2 = np.array([1.0, np.exp(0.7j)]) / np.sqrt(2)
    p2 = time_distribution(povm, c2)
    fringe2 = (1.0 + np.cos(gap * (clock.times - clock.T0) + 0.7)) / clock.M
    assert np.max(np.abs(p2 - fringe2)) < 1e-9


def test_distributions_normalize():
    rng = np.random.default_rng(101)
    _, _, _, sub = qubit_setup()
    povm = build_time_povm(sub)
    for _ in range(100):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        p = time_distribution(povm, c / np.linalg.norm(c))
        assert np.all(p >= -1e-15)
        assert abs(p.sum() - 1.0) < 1e-10


def test_first_moment_matches_distribution_mean():
    rng = np.random.default_rng(103)
    _, _, _, sub = qubit_setup()
    povm = build_time_povm(sub)
    t_phys = restricted_time_operator(povm)
    for _ in range(10):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = c / np.linalg.norm(c)
        mean_from_p = float(time_distribution(povm, c) @ povm.times)
        mean_from_op = float((c.conj() @ t_phys @ c).real)
        assert abs(mean_from_p - mean_from_op) < 1e-10


# --- conditional dynamics ------------------------------------------------------

def test_single_pair_conditional_is_constant():
    clock = build_clock(16, 0.5)
    system = build_system_space(np.diag([0.0, 3 * clock.freq_step]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext)
    state = make_physical_state(sub, np.array([1.0, 0.0]))
    first = conditional_state(sub, state, 0)
    for m in range(1, clock.M):
        assert fidelity(conditional_state(sub, state, m), first) > 1 - 1e-12


def test_conditional_steps_apply_the_one_bin_propagator():
    rng = np.random.default_rng(107)
    for sigma in (1, -1):
        clock, system, ext, sub = qubit_setup(sigma=sigma)
        step_u = np.diag(np.exp(-1j * sigma * system.energies * clock.deltaT))
        for _ in range(5):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = make_physical_state(sub, c)
            for m in range(clock.M):  # cyclic: wraps around the last bin
                nxt = conditional_state(sub, state, (m + 1) % clock.M)
                prop = step_u @ conditional_state(sub, state, m)
                assert fidelity(nxt, prop) > 1 - 1e-10


def test_conditional_at_origin_is_the_coefficient_vector():
    _, _, _, sub = qubit_setup()  # T0 = 0
    c = unit(np.array([0.6, 0.8j]))
    state = make_physical_state(sub, c)
    cond = conditional_state(sub, state, 0)
    assert fidelity(cond, c) > 1 - 1e-12


def test_conditional_dynamics_with_offset_grid():
    clock = build_clock(32, 0.4, T0=-3.0)
    system = build_system_space(np.diag([0.0, 5 * clock.freq_step]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext)
    state = make_physical_state(sub, np.array([1.0, 1.0]) / np.sqrt(2))
    step_u = np.diag(np.exp(-1j * clock.sigma * system.energies * clock.deltaT))
    for m in range(clock.M - 1):
        nxt = conditional_state(sub, state, m + 1)
        assert fidelity(nxt, step_u @ conditional_state(sub, state, m)) > 1 - 1e-10


def test_conditional_states_zero_weight_bin_raises():
    _, _, _, sub = qubit_setup()
    state = make_physical_state(sub, np.array([1.0, 0.0]))
    blank = dataclasses.replace(state, vector=np.zeros_like(state.vector))
    with pytest.raises(NumericalFailureError, match="bin 0 has zero weight"):
        conditional_states(sub, blank)
    with pytest.raises(NumericalFailureError, match="bin 5 has zero weight"):
        conditional_state(sub, blank, 5)


def test_conditional_bin_bounds():
    _, _, _, sub = qubit_setup()
    state = make_physical_state(sub, np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        conditional_state(sub, state, 64)


# --- events --------------------------------------------------------------------

def test_event_operator_validation():
    with pytest.raises(InvalidInputError):
        EventOperator(projector=np.array([[0.5, 0.5], [0.0, 0.5]]), window=(0,))
    with pytest.raises(InvalidInputError):
        EventOperator(projector=np.array([[0.5, 0.0], [0.0, 0.5]]), window=(0,))
    with pytest.raises(InvalidInputError):
        EventOperator(projector=np.eye(2), window=(-1,))
    op = EventOperator(projector=np.eye(2), window=(3, 1, 3))
    assert op.window == (1, 3)


@pytest.mark.parametrize("projector", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    np.zeros((0, 0)),
    [[1e300, 1e300], [1e300, 1e300]],
], ids=["nan", "inf", "empty", "overflowing"])
def test_event_operator_rejects_a_degenerate_projector(projector):
    with pytest.raises(InvalidInputError):
        EventOperator(projector=projector, window=(0, 1))


def test_event_operator_takes_integer_bins_only():
    with pytest.raises(InvalidInputError, match="integers"):
        EventOperator(projector=np.eye(2), window=(0.5, 2.7))
    with pytest.raises(InvalidInputError, match="integers"):
        EventOperator(projector=np.eye(2), window=np.array([1.0]))
    for window in (np.arange(3), range(3), (np.int32(2), 0, 1)):
        op = EventOperator(projector=np.eye(2), window=window)
        assert op.window == (0, 1, 2)
        assert all(type(m) is int for m in op.window)


def test_event_probabilities():
    clock, system, ext, sub = qubit_setup()
    state = make_physical_state(sub, np.array([1.0, 1.0j]) / np.sqrt(2))
    everything = EventOperator(projector=np.eye(2), window=range(clock.M))
    assert event_probability(everything, sub, state) == pytest.approx(1.0, abs=1e-12)
    nothing = EventOperator(projector=np.zeros((2, 2)), window=range(clock.M))
    assert event_probability(nothing, sub, state) == 0.0
    single = make_physical_state(sub, np.array([1.0, 0.0]))
    one_bin = EventOperator(projector=np.eye(2), window=(5,))
    assert event_probability(one_bin, sub, single) == pytest.approx(1 / clock.M, abs=1e-12)
    ground = EventOperator(projector=np.diag([1.0, 0.0]), window=range(clock.M))
    assert event_probability(ground, sub, state) == pytest.approx(0.5, abs=1e-12)


def test_event_window_bounds():
    clock, _, _, sub = qubit_setup()
    state = make_physical_state(sub, np.array([1.0, 0.0]))
    bad = EventOperator(projector=np.eye(2), window=(clock.M,))
    with pytest.raises(InvalidInputError):
        event_probability(bad, sub, state)


# --- covariance ------------------------------------------------------------------

def test_generic_state_marginal_shifts():
    rng = np.random.default_rng(109)
    clock, system, ext, _ = qubit_setup()
    psi = separable_state(unit(rng.normal(size=2) + 1j * rng.normal(size=2)),
                          gaussian_clock_state(clock))
    report = covariance_report(ext, psi, 5 * clock.deltaT)
    assert report.bins == 5
    assert not report.interpolated
    assert report.shift_deviation < 1e-8
    assert report.stationary_deviation > 1e-3  # the packet really moved


def test_physical_state_marginal_frozen():
    rng = np.random.default_rng(111)
    _, _, ext, sub = qubit_setup()
    state = make_physical_state(sub, rng.normal(size=2) + 1j * rng.normal(size=2))
    report = covariance_report(ext, state.vector, 7 * ext.clock.deltaT)
    assert report.stationary_deviation < 1e-10


def test_zero_theta_no_shift():
    rng = np.random.default_rng(113)
    clock, _, ext, _ = qubit_setup()
    psi = separable_state(unit(rng.normal(size=2)), gaussian_clock_state(clock))
    report = covariance_report(ext, psi, 0.0)
    assert report.shift_deviation < 1e-14


def test_fractional_theta_is_flagged():
    rng = np.random.default_rng(115)
    clock, _, ext, _ = qubit_setup()
    psi = separable_state(unit(rng.normal(size=2)), gaussian_clock_state(clock))
    report = covariance_report(ext, psi, 2.5 * clock.deltaT)
    assert report.interpolated
    assert report.bins in (2, 3)


def test_sigma_flip_reverses_the_shift_direction():
    rng = np.random.default_rng(117)
    clock_m, system, _, _ = qubit_setup(sigma=-1)
    ext_m = build_extended(system, clock_m)
    psi = separable_state(unit(rng.normal(size=2) + 1j * rng.normal(size=2)),
                          gaussian_clock_state(clock_m))
    report = covariance_report(ext_m, psi, 4 * clock_m.deltaT)
    assert report.sigma == -1
    assert report.shift_deviation < 1e-8  # shift by sigma * j bins


# --- sign-convention pairing -----------------------------------------------------

def test_sign_pair_effects_conjugate_distributions_equal():
    rng = np.random.default_rng(119)
    _, _, _, sub_p = qubit_setup(sigma=1)
    _, _, _, sub_m = qubit_setup(sigma=-1)
    povm_p = build_time_povm(sub_p)
    povm_m = build_time_povm(sub_m)
    assert np.max(np.abs(povm_m.effects - povm_p.effects.conj())) < 1e-12
    for _ in range(10):
        c = rng.normal(size=2)
        c = c / np.linalg.norm(c)
        dp = time_distribution(povm_p, c)
        dm = time_distribution(povm_m, c)
        assert np.max(np.abs(dp - dm)) < 1e-10


# --- properties on random commensurate spectra -------------------------------

@st.composite
def plane_wave_setups(draw):
    """Distinct integer frequencies (2 <= d < M) on an even grid, both signs."""
    M = draw(st.integers(4, 16)) * 2
    ks = draw(st.lists(st.integers(-M // 2 + 1, M // 2 - 1),
                       min_size=2, max_size=M - 1, unique=True))
    sigma = draw(st.sampled_from((1, -1)))
    T0 = draw(st.floats(-50.0, 50.0))
    return M, ks, sigma, T0


def plane_wave_povm(M, ks, sigma, T0, deltaT=0.25):
    clock = build_clock(M, deltaT, T0=T0, sigma=sigma)
    system = build_system_space(np.diag(np.array(ks) * clock.freq_step))
    sub = solve_constraint_spectral(build_extended(system, clock))
    assert sub.d == len(ks)
    return sub, build_time_povm(sub)


PROPERTY_SETTINGS = settings(deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(st.integers(4, 32), st.integers(1, 6), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_min_effect_eigenvalue_matches_the_dense_effects(half_M, d, orthonormal, seed):
    # orthonormal columns as the package builds them, or raw Gaussian rows
    rng = np.random.default_rng(seed)
    M = 2 * half_M
    W = rng.normal(size=(M, d)) + 1j * rng.normal(size=(M, d))
    if orthonormal:
        W = np.linalg.qr(W)[0]
    povm = TimePOVM(frame=W, times=0.25 * np.arange(M), deltaT=0.25, sigma=1)
    reference = float(np.linalg.eigvalsh(povm.effects).min())
    if d == 1:
        assert povm.min_effect_eigenvalue() == reference
    else:
        scale = max(1.0, float(np.max(np.sum(np.abs(W) ** 2, axis=1))))
        assert abs(povm.min_effect_eigenvalue() - reference) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(plane_wave_setups())
def test_pm_report_matches_brute_force(setup):
    _, povm = plane_wave_povm(*setup)
    report = pm_violation_report(povm)
    orth_ref, idem_ref = brute_force_defects(povm.effects)
    assert report.orthogonality_defect == pytest.approx(orth_ref, rel=1e-12)
    assert report.idempotency_defect == pytest.approx(idem_ref, rel=1e-12)
    m, mp = report.worst_pair
    assert m < mp
    attained = np.linalg.svd(povm.effects[m] @ povm.effects[mp], compute_uv=False)[0]
    assert attained == pytest.approx(orth_ref, rel=1e-12)


@st.composite
def wide_plane_wave_setups(draw):
    """1 to 8 distinct integer frequencies on even grids up to M = 1024, both
    signs; most grids have at most 64 bins, the rest 128 to 1024."""
    if draw(st.integers(0, 9)):
        M = 2 * draw(st.integers(4, 32))
    else:
        M = draw(st.sampled_from((128, 256, 512, 1024)))
    ks = draw(st.lists(st.integers(-M // 2 + 1, M // 2 - 1),
                       min_size=1, max_size=min(8, M - 1), unique=True))
    sigma = draw(st.sampled_from((1, -1)))
    T0 = draw(st.floats(-50.0, 50.0))
    return M, ks, sigma, T0


@PROPERTY_SETTINGS
@given(wide_plane_wave_setups())
def test_pm_report_matches_the_dense_gram(setup):
    _, povm = plane_wave_povm(*setup)
    report = pm_violation_report(povm)
    orth, idem = dense_gram_defects(povm.frame)
    assert report.orthogonality_defect == pytest.approx(orth.max(), rel=1e-12)
    assert report.idempotency_defect == pytest.approx(idem, rel=1e-12)
    assert orth[report.worst_pair] == pytest.approx(orth.max(), rel=1e-12)


@PROPERTY_SETTINGS
@given(plane_wave_setups())
def test_first_moment_matches_closed_form(setup):
    sub, povm = plane_wave_povm(*setup)
    scale = max(1.0, float(np.max(np.abs(povm.times))))
    summed = np.einsum("m,mab->ab", povm.times, povm.effects)
    assert np.max(np.abs(restricted_time_operator(povm) - summed)) < 1e-12 * scale
    assert first_moment_vs_closed_form(povm, sub.pairs) < 1e-12 * scale


@PROPERTY_SETTINGS
@given(plane_wave_setups())
def test_sigma_flip_conjugates_effects(setup):
    M, ks, sigma, T0 = setup
    _, povm = plane_wave_povm(M, ks, sigma, T0)
    _, flipped = plane_wave_povm(M, ks, -sigma, T0)
    assert np.max(np.abs(flipped.effects - povm.effects.conj())) < 1e-12


@PROPERTY_SETTINGS
@given(plane_wave_setups(), st.integers(0, 2 ** 32 - 1))
def test_conditional_states_columns_are_conditional_state(setup, seed):
    sub, _ = plane_wave_povm(*setup)
    rng = np.random.default_rng(seed)
    state = make_physical_state(sub, rng.normal(size=sub.d) + 1j * rng.normal(size=sub.d))
    states = conditional_states(sub, state)
    assert states.shape == (sub.space.system.n_levels, sub.space.clock.M)
    for m in range(sub.space.clock.M):
        assert np.array_equal(states[:, m], conditional_state(sub, state, m))


@st.composite
def population_setups(draw):
    """1 to 6 distinct off-edge grid levels on even grids of 8 to 256 bins,
    both signs, and a seed for the eigenbasis, coefficients and windows."""
    M = 2 * draw(st.integers(4, 128))
    ks = draw(st.lists(st.integers(-M // 2 + 1, M // 2 - 1),
                       min_size=1, max_size=6, unique=True))
    sigma = draw(st.sampled_from((1, -1)))
    deltaT = draw(st.floats(0.05, 2.0))
    return M, ks, sigma, deltaT, draw(st.integers(0, 2 ** 32 - 1))


@PROPERTY_SETTINGS
@given(population_setups())
def test_energy_populations_do_not_depend_on_the_clock_reading(setup):
    # <P_i (x) Pi_W> = |W|/M |c_a|^2 for the level i of pair a, on any window W
    M, ks, sigma, deltaT, seed = setup
    rng = np.random.default_rng(seed)
    clock = build_clock(M, deltaT, sigma=sigma)
    energies = -sigma * np.array(ks) * clock.freq_step
    q, _ = np.linalg.qr(rng.normal(size=(len(ks),) * 2) + 1j * rng.normal(size=(len(ks),) * 2))
    system = build_system_space((q * energies) @ q.conj().T)  # in a random eigenbasis
    sub = solve_constraint_spectral(build_extended(system, clock))
    assert sub.d == len(ks)
    state = make_physical_state(sub, rng.normal(size=sub.d) + 1j * rng.normal(size=sub.d))
    for a, pair in enumerate(sub.pairs):
        v = system.vectors[:, pair.i]
        window = np.flatnonzero(rng.random(M) < rng.random())
        expected = window.size / M * abs(state.coeffs[a]) ** 2
        event = EventOperator(projector=np.outer(v, v.conj()), window=window)
        assert abs(event_probability(event, sub, state) - expected) <= 1e-12
