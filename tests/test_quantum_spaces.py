import dataclasses

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
    quantum,
)
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


def test_kronecker_spectrum_reuses_the_eigensystem():
    clock = build_clock(8, 1.0)
    ext = build_extended(build_system_space(np.diag([0.0, 0.3])), clock)
    assert verify_kronecker_spectrum(ext) < 1e-10
    lam, _ = ext.eigensystem()
    expected = np.sort((ext.system.energies[:, None] + clock.frequencies).ravel())
    assert verify_kronecker_spectrum(ext) == float(np.max(np.abs(lam - expected)))


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
