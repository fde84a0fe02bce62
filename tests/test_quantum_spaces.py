import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolab import (
    InvalidInputError,
    NumericalFailureError,
    SystemSpace,
    build_clock,
    build_extended,
    build_system_space,
    constraint,
    gaussian_clock_state,
    parse_config,
    quantum,
    scenarios,
)
from chronolab.config import ScenarioConfig
from chronolab.scenarios import run_scenario
from chronolab.quantum import verify_kronecker_spectrum


def random_hermitian(rng, n):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (raw + raw.conj().T)


# --- system space -----------------------------------------------------------

def test_diagonal_system():
    space = build_system_space(np.diag([0.0, 1.0]))
    assert np.allclose(space.energies, [0.0, 1.0])
    assert np.allclose(np.abs(space.vectors), np.eye(2))


def test_exchange_matrix_closed_form():
    space = build_system_space(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(space.energies, [-1.0, 1.0])


def test_random_hermitian_residual():
    rng = np.random.default_rng(17)
    H = random_hermitian(rng, 8)
    space = build_system_space(H)
    residual = np.max(np.abs(H @ space.vectors - space.vectors * space.energies))
    assert residual < 1e-10
    assert np.max(np.abs(space.vectors.conj().T @ space.vectors - np.eye(8))) < 1e-12
    assert np.all(np.diff(space.energies) >= 0)


def test_non_hermitian_rejected():
    with pytest.raises(InvalidInputError) as info:
        build_system_space(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert "Hermitian" in str(info.value)


def test_float_limit_entries_give_finite_energies():
    # 0.5 * (H + H') would overflow to inf here and eigh would return NaN
    space = build_system_space(np.diag([1e308, 0.0]))
    assert np.all(np.isfinite(space.energies))
    assert space.energies[1] == pytest.approx(1e308)
    with pytest.raises(InvalidInputError):
        build_system_space(np.diag([np.nan, 0.0]))


def test_non_square_rejected():
    with pytest.raises(InvalidInputError):
        build_system_space(np.zeros((2, 3)))


# --- clock space -------------------------------------------------------------

def independent_s_op(M, deltaT):
    # direct double-sum construction, independent of the package's matrix path
    S = np.zeros((M, M), dtype=complex)
    for a in range(M):
        for b in range(M):
            acc = 0.0
            for k in range(-M // 2, M // 2):
                w = 2 * np.pi * k / (M * deltaT)
                acc += w * np.exp(2j * np.pi * k * (a - b) / M)
            S[a, b] = acc / M
    return S


def test_clock_frequency_grid_m8():
    clock = build_clock(8, 1.0)
    expected = 2 * np.pi * np.arange(-4, 4) / 8
    assert np.max(np.abs(np.linalg.eigvalsh(clock.S_op) - expected)) < 1e-10
    assert np.max(np.abs(clock.frequencies - expected)) == 0.0


def test_clock_matches_independent_construction():
    clock = build_clock(8, 0.5)
    S_ref = independent_s_op(8, 0.5)
    assert np.max(np.abs(clock.S_op - S_ref)) < 1e-12


def test_clock_operator_properties():
    clock = build_clock(32, 0.25, T0=-4.0)
    assert np.max(np.abs(clock.S_op - clock.S_op.conj().T)) < 1e-12
    assert np.all(np.diff(clock.times) > 0)
    assert clock.times[0] == -4.0
    # plane waves are eigenvectors
    for k in (-16, -3, 0, 5, 15):
        phi = clock.plane_wave(k)
        res = clock.S_op @ phi - (2 * np.pi * k / (32 * 0.25)) * phi
        assert np.linalg.norm(res) < 1e-12


def test_sign_convention_does_not_touch_the_clock_pair():
    # sigma selects the sign of S inside the extended generator; the register
    # operators themselves are convention-free.
    plus = build_clock(16, 0.5, sigma=1)
    minus = build_clock(16, 0.5, sigma=-1)
    assert np.array_equal(plus.S_op, minus.S_op)
    assert plus.sigma == 1 and minus.sigma == -1


def reduced_angle_dft(M):
    # unitary DFT, rows ordered like `frequencies`; k * m is reduced mod M
    # before the angle is formed, so every entry is accurate to rounding
    k, m = np.arange(-M // 2, M // 2), np.arange(M)
    return np.exp(-2j * np.pi * (np.outer(k, m) % M) / M) / np.sqrt(M)


def test_lazy_s_op_is_the_dft_formula_and_read_only():
    clock = build_clock(16, 0.5, T0=1.0, sigma=-1)
    F, w = reduced_angle_dft(16), clock.frequencies
    S_ref = F.conj().T @ (w[:, None] * F)
    S_ref = 0.5 * (S_ref + S_ref.conj().T)
    assert np.max(np.abs(clock.S_op - S_ref)) <= 1e-15 * max(1.0, np.max(np.abs(w)))
    assert clock.S_op is clock.S_op  # built once
    assert not clock.S_op.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        clock.S_op = S_ref


def test_s_op_guard_fires_on_a_perturbed_spectrum(monkeypatch):
    # a non-unitary transform scales every eigenvalue of F^dag diag(w) F
    clock_apply = quantum._clock_apply
    monkeypatch.setattr(quantum, "_clock_apply",
                        lambda diag, x: clock_apply(diag, x) * (1 + 1e-6))
    with pytest.raises(NumericalFailureError):
        build_clock(16, 0.5).S_op


def test_clock_validation():
    with pytest.raises(InvalidInputError):
        build_clock(7, 1.0)
    with pytest.raises(InvalidInputError):
        build_clock(4, 1.0)
    with pytest.raises(InvalidInputError):
        build_clock(8, -1.0)
    with pytest.raises(InvalidInputError):
        build_clock(8, 1.0, sigma=2)
    with pytest.raises(InvalidInputError):
        build_clock(8, 1e-308)  # pi/deltaT overflows
    with pytest.raises(InvalidInputError):
        build_clock(8, 1e308)  # T0 + (M-1) deltaT overflows
    with pytest.raises(InvalidInputError, match="squared span"):
        build_clock(64, 1e153)  # (M deltaT)**2 overflows
    with pytest.raises(InvalidInputError, match="not strictly increasing"):
        build_clock(64, 0.25, T0=1e200)  # the step is lost against T0
    with pytest.raises(InvalidInputError, match="4\\*width\\*\\*2 overflows"):
        gaussian_clock_state(build_clock(64, 0.25), width=1e200)
    with pytest.raises(InvalidInputError):
        build_clock(8, 1.0).plane_wave(4)


# --- extended space ----------------------------------------------------------

def test_trivial_system_gives_sigma_s():
    clock = build_clock(8, 1.0, sigma=1)
    space = build_system_space(np.zeros((1, 1)))
    ext = build_extended(space, clock)
    assert np.max(np.abs(ext.hamiltonian - clock.S_op)) < 1e-14
    clock_m = build_clock(8, 1.0, sigma=-1)
    ext_m = build_extended(space, clock_m)
    assert np.max(np.abs(ext_m.hamiltonian + clock_m.S_op)) < 1e-14


def test_lazy_hamiltonian_is_the_kron_formula_and_read_only():
    rng = np.random.default_rng(29)
    clock = build_clock(16, 0.3, sigma=-1)
    space = build_system_space(random_hermitian(rng, 3))
    ext = build_extended(space, clock)
    assert "hamiltonian" not in vars(ext)  # nothing assembled at build time
    H_ref = np.kron(space.matrix, np.eye(16)) - np.kron(np.eye(3), clock.S_op)
    H_ref = 0.5 * (H_ref + H_ref.conj().T)
    assert np.array_equal(ext.hamiltonian, H_ref)
    assert ext.hamiltonian is ext.hamiltonian  # built once
    assert not ext.hamiltonian.flags.writeable


@settings(deadline=None, derandomize=True, max_examples=40)
@given(n=st.integers(1, 5), M=st.integers(4, 32).map(lambda half: 2 * half),
       sigma=st.sampled_from((1, -1)), seed=st.integers(0, 2 ** 32 - 1))
def test_blockwise_assembly_equals_the_kron_formula(n, M, sigma, seed):
    clock = build_clock(M, 0.3, sigma=sigma)
    space = build_system_space(random_hermitian(np.random.default_rng(seed), n))
    H_ref = np.kron(space.matrix, np.eye(M)) + sigma * np.kron(np.eye(n), clock.S_op)
    assert np.array_equal(build_extended(space, clock).hamiltonian, H_ref)


def test_hermiticity_guard_reads_a_skewed_s_op_from_the_cache():
    clock = build_clock(16, 0.3)
    skewed = np.array(clock.S_op)
    skewed[0, 1] += 1e-9
    vars(clock)["S_op"] = skewed  # what a corrupted build would have cached
    ext = build_extended(build_system_space(np.diag([0.0, 0.5])), clock)
    with pytest.raises(NumericalFailureError, match="Hermiticity"):
        ext.hamiltonian


def test_hermiticity_guard_reads_a_non_hermitian_system_matrix():
    matrix = np.array([[0.0, 1e-9], [0.0, 0.5]], dtype=complex)
    forced = SystemSpace(matrix=matrix, energies=np.array([0.0, 0.5]), vectors=np.eye(2))
    ext = build_extended(forced, build_clock(16, 0.3))
    with pytest.raises(NumericalFailureError, match="Hermiticity"):
        ext.hamiltonian


def test_only_the_dense_views_refuse_a_space_past_the_budget(monkeypatch):
    clock = build_clock(4100, 0.25)
    system = build_system_space(np.diag([0.0, 2 * clock.freq_step]))
    ext = build_extended(system, clock)
    assert ext.dim == 8200 > quantum.MAX_EXTENDED_DIM
    # the factored routes work at any size
    psi = quantum.separable_state(system.eigenstate(1), gaussian_clock_state(clock))
    assert abs(np.linalg.norm(quantum.evolve_extended(ext, psi, 0.7)) - 1.0) <= 1e-12
    sub = constraint.solve_constraint_spectral(ext)
    assert [(pair.i, pair.k) for pair in sub.pairs] == [(0, 0), (1, -2)]
    assert max(constraint.constraint_residual(ext, sub.basis[:, a]) for a in range(2)) <= 1e-9

    # a dense view must refuse before it allocates: one that reached np.zeros
    # or np.eye fails here instead of asking for gigabytes
    class NoDenseAllocation:
        def __getattr__(self, name):
            if name in ("zeros", "eye"):
                raise AssertionError(f"np.{name} called past the dense-solver budget")
            return getattr(np, name)

    monkeypatch.setattr(quantum, "np", NoDenseAllocation())
    for dense_view in (lambda: ext.hamiltonian, ext.eigensystem,
                       lambda: build_clock(8194, 0.25).S_op):
        with pytest.raises(InvalidInputError, match="exceeds the dense-solver budget"):
            dense_view()
    assert ext._eig is None


def test_kronecker_spectrum_reuses_the_eigensystem():
    clock = build_clock(8, 1.0)
    ext = build_extended(build_system_space(np.diag([0.0, 0.3])), clock)
    assert verify_kronecker_spectrum(ext) < 1e-10
    blocks = ext.eigensystem()
    lam = np.sort(np.concatenate([values for _, values, _ in blocks]))
    expected = np.sort((ext.system.energies[:, None] + clock.frequencies).ravel())
    assert verify_kronecker_spectrum(ext) == float(np.max(np.abs(lam - expected)))
    assert ext.eigensystem() is blocks


def test_kronecker_sum_spectrum():
    omega = 2 * np.pi / (8 * 1.0)  # one grid step
    clock = build_clock(8, 1.0)
    space = build_system_space(np.diag([0.0, omega]))
    ext = build_extended(space, clock)
    assert verify_kronecker_spectrum(ext) < 1e-10


def test_extended_hermiticity_random():
    rng = np.random.default_rng(23)
    clock = build_clock(16, 0.3, sigma=-1)
    space = build_system_space(random_hermitian(rng, 3))
    ext = build_extended(space, clock)
    H = ext.hamiltonian
    assert np.max(np.abs(H - H.conj().T)) < 1e-12
    assert verify_kronecker_spectrum(ext) < 1e-9


def test_spectrum_shifts_with_sigma():
    space = build_system_space(np.diag([0.0, 0.3]))
    for sigma in (1, -1):
        clock = build_clock(8, 1.0, sigma=sigma)
        ext = build_extended(space, clock)
        expected = np.sort((space.energies[:, None]
                            + sigma * clock.frequencies[None, :]).ravel())
        assert np.max(np.abs(np.linalg.eigvalsh(ext.hamiltonian) - expected)) < 1e-10


# --- the dense oracle, one decoupled block at a time -------------------------

def coupled_system(kind, n, rng):
    """A system matrix of the given coupling: `diagonal`, `degenerate`
    (diagonal, with at most two distinct levels), `two-blocks` (two coupled
    Hermitian blocks) or `random` (coupled throughout)."""
    if kind == "diagonal":
        return np.diag(rng.normal(size=n))
    if kind == "degenerate":
        return np.diag(rng.choice(rng.normal(size=2), size=n))
    if kind == "two-blocks":
        cut = n // 2
        matrix = np.zeros((n, n), dtype=complex)
        matrix[:cut, :cut] = random_hermitian(rng, cut)
        matrix[cut:, cut:] = random_hermitian(rng, n - cut)
        return matrix
    return random_hermitian(rng, n)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(kind=st.sampled_from(("diagonal", "degenerate", "two-blocks", "random")),
       n=st.integers(2, 6), M=st.integers(4, 16).map(lambda half: 2 * half),
       sigma=st.sampled_from((1, -1)), snap=st.booleans(), gap=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blockwise_eigensystem_is_an_eigendecomposition(kind, n, M, sigma, snap, gap, seed):
    rng = np.random.default_rng(seed)
    system = build_system_space(coupled_system(kind, n, rng))
    clock = build_clock(M, 0.3, sigma=sigma)
    if snap:  # levels on the grid: H_ex has an exact kernel
        system, _ = constraint.snap_energies(system, clock)
    ext = build_extended(system, clock)
    H = ext.hamiltonian
    scale = max(1.0, float(np.linalg.norm(H, np.inf)))
    blocks = ext.eigensystem()
    assert np.array_equal(np.sort(np.concatenate([rows for rows, _, _ in blocks])),
                          np.arange(ext.dim))
    # every block lives on the levels of one decoupled system block, and is
    # an eigendecomposition of H_ex on its own rows
    levels = {"diagonal": np.arange(n), "degenerate": np.arange(n),
              "two-blocks": np.arange(n) >= n // 2, "random": np.zeros(n)}[kind]
    for rows, values, vectors in blocks:
        assert np.unique(levels[rows // M]).size == 1
        assert np.all(np.diff(values) >= 0)
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(rows.size))) <= 1e-12
        assert (np.max(np.abs((vectors * values) @ vectors.conj().T - H[np.ix_(rows, rows)]))
                <= 1e-11 * scale)
    lam_ref, W_ref = np.linalg.eigh(H)
    spectrum = np.sort(np.concatenate([values for _, values, _ in blocks]))
    assert np.max(np.abs(spectrum - lam_ref)) <= 1e-12 * scale
    if len(blocks) == 1:  # one component: eigh of the assembled matrix itself
        (rows, values, vectors), = blocks
        assert np.array_equal(rows, np.arange(ext.dim))
        assert np.array_equal(values, lam_ref) and np.array_equal(vectors, W_ref)

    # the kernel route spans the near-null eigenspace of the plain eigh, for
    # an eps halfway across one of the lowest gaps in |spectrum|
    magnitudes = np.sort(np.abs(lam_ref))
    gaps = np.flatnonzero(np.diff(magnitudes) > 1e-3 * scale)
    if gaps.size:
        j = gaps[min(gap, gaps.size - 1)]
        eps = 0.5 * (magnitudes[j] + magnitudes[j + 1])
        kernel = constraint.solve_constraint_kernel(ext, eps).basis
        reference = W_ref[:, np.abs(lam_ref) <= eps]
        assert kernel.shape == reference.shape
        assert np.max(constraint.principal_angles(kernel, reference)) <= 1e-8

    # eigenstate_energy_spread reads an eigenvector of the lowest eigenvalue
    run = scenarios._Run(ScenarioConfig(), seed)
    run.ext = ext
    states = []

    def recording(ext, psi, _original=quantum.uncertainty_product):
        states.append(psi)
        return _original(ext, psi)

    with mock.patch.object(quantum, "uncertainty_product", recording):
        scenarios._suite_quantum_equivalence(run, rng)
    assert run.records[-1].check_id.endswith("eigenstate_energy_spread")
    lowest = states[-1]
    assert abs(np.linalg.norm(lowest) - 1.0) <= 1e-12
    assert np.max(np.abs(H @ lowest - lam_ref[0] * lowest)) <= 1e-11 * scale


@settings(deadline=None, derandomize=True, max_examples=40)
@given(kind=st.sampled_from(("diagonal", "two-blocks", "random")),
       n=st.integers(2, 6), M=st.integers(4, 16).map(lambda half: 2 * half),
       sigma=st.sampled_from((1, -1)), seed=st.integers(0, 2 ** 32 - 1))
def test_factor_blocks_are_the_components_of_the_assembled_hex(kind, n, M, sigma, seed):
    system = build_system_space(coupled_system(kind, n, np.random.default_rng(seed)))
    clock = build_clock(M, 0.3, sigma=sigma)
    ext = build_extended(system, clock)
    H = ext.hamiltonian
    blocks = list(ext._blocks())
    assert ([rows.tolist() for rows, _ in blocks]
            == [rows.tolist() for rows in quantum._connected_components(H)])
    for rows, block in blocks:
        assert block.tobytes() == H[np.ix_(rows, rows)].tobytes()
    H_ref = np.kron(system.matrix, np.eye(M)) + sigma * np.kron(np.eye(n), clock.S_op)
    assert np.array_equal(H, H_ref)
    # the basis_residual scale, ||H_ex||_2 from the factors, bounded by ||H_ex||_inf
    scale = float(np.max(np.abs(quantum._kron_sums(ext))))
    assert abs(scale - np.max(np.abs(np.linalg.eigvalsh(H)))) <= 1e-12 * scale
    assert scale <= np.linalg.norm(H, np.inf)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(M=st.integers(4, 64).map(lambda half: 2 * half), decade=st.integers(-4, 100))
def test_s_op_is_one_connected_component(M, decade):
    # the premise of one block per component of H_s: S_op links every bin
    S_op = build_clock(M, 0.37 * 10.0 ** decade).S_op
    assert [rows.tolist() for rows in quantum._connected_components(S_op)] == [list(range(M))]


def test_eigensystem_runs_one_eigh_per_decoupled_block(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    clock = build_clock(8, 0.5)
    rng = np.random.default_rng(41)
    for kind, expected in (("diagonal", [(8, 8)] * 4), ("two-blocks", [(16, 16)] * 2),
                           ("random", [(32, 32)])):
        system = build_system_space(coupled_system(kind, 4, rng))
        shapes.clear()  # drop the system's own eigh
        build_extended(system, clock).eigensystem()
        assert shapes == expected


def test_components_follow_the_symmetric_zero_pattern():
    rng = np.random.default_rng(43)
    blocks = [random_hermitian(rng, size) for size in (3, 1, 4)]
    H = np.zeros((8, 8), dtype=complex)
    H[:3, :3], H[3, 3], H[4:, 4:] = blocks[0], blocks[1][0, 0], blocks[2]
    perm = rng.permutation(8)
    scrambled = H[np.ix_(perm, perm)]
    found = quantum._connected_components(scrambled)
    assert all(np.all(np.diff(rows) > 0) for rows in found)  # rows ascending
    assert np.all(np.diff([rows[0] for rows in found]) > 0)  # by lowest row
    assert sorted(sorted(perm[rows]) for rows in found) == [[0, 1, 2], [3], [4, 5, 6, 7]]
    one_sided = np.eye(3, dtype=complex)
    one_sided[2, 0] = 1.0  # only the lower triangle links rows 0 and 2
    assert [list(rows) for rows in quantum._connected_components(one_sided)] == [[0, 2], [1]]


STEP = 2 * np.pi / (32 * 0.25)
TOY_DENSE_GRID = f"""
scenario = toy_dense_grid
suites = quantum-equivalence, constraint-solve, povm-audit, time-distribution, covariance
seed = 11
system.kind = explicit-matrix
system.energies = {', '.join(repr(-k * STEP) for k in (-9, -2, 3, 8))}
clock.M = 32
clock.deltaT = 0.25
constraint.expected_dim = 4
"""


def test_a_dense_grid_run_keeps_its_eigenvectors_in_their_blocks(monkeypatch):
    built = []
    original = quantum.build_extended

    def build_extended(system, clock):
        built.append(original(system, clock))
        return built[-1]

    monkeypatch.setattr(quantum, "build_extended", build_extended)
    assert run_scenario(parse_config(TOY_DENSE_GRID)).passed
    decomposed = [ext for ext in built if ext._eig is not None]
    assert len(decomposed) == 1
    ext = decomposed[0]
    blocks = ext._eig
    assert len(blocks) == 4  # one block per level
    arrays = [arr for block in blocks for arr in block]
    assert all(max(arr.shape) < ext.dim for arr in arrays)
    assert not any(arr.flags.writeable for arr in arrays)
    assert np.array_equal(np.sort(np.concatenate([rows for rows, _, _ in blocks])),
                          np.arange(ext.dim))
