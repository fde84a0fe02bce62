"""Quantum side: truncated system space, discretized clock, extended space.

The clock is an M-point grid register.  T multiplies by the grid times;
S is the spectral derivative F^dag diag(w) F, with F the unitary DFT and
w_k = 2 pi k / (M dT), k in [-M/2, M/2), the centered frequency grid.  The
pair satisfies [T, S] ~ i on states that vanish near the grid boundary; the
exact commutator is unreachable in finite dimension and is treated as an
approximation property throughout.

The sign convention sigma = +/-1 enters once, in the extended generator
H_ex = H_s (x) I + sigma (I (x) S); flipping it conjugates every clock
phase downstream.  Basis ordering is system-major: index = i * M + m.
Units: hbar = 1.

H_ex is a Kronecker sum and is applied factor by factor, the clock by FFT;
the dense S_op, H_ex and eigensystem() are built only for the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

__all__ = [
    "SystemSpace",
    "ClockSpace",
    "ExtendedSpace",
    "build_system_space",
    "build_clock",
    "build_extended",
    "commutator_residual",
    "evolve_extended",
    "evolve_factored",
    "uncertainty_product",
    "verify_kronecker_spectrum",
    "gaussian_clock_state",
    "separable_state",
    "clock_marginal",
    "fidelity",
    "unit",
]

HERMITICITY_TOL = 1e-10
MAX_EXTENDED_DIM = 8192


def unit(vec) -> np.ndarray:
    """Normalize to a unit vector (complex128)."""
    vec = np.asarray(vec, dtype=complex)
    norm = np.linalg.norm(vec)
    if not 0 < norm < np.inf:  # also false for NaN
        raise InvalidInputError("cannot normalize a zero or non-finite vector")
    return vec / norm


def fidelity(a, b) -> float:
    """|<a|b>| for unit vectors; phase- and gauge-insensitive overlap."""
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))))


def separable_state(system_vec, clock_vec) -> np.ndarray:
    """Product state in the system-major ordering (index = i * M + m)."""
    return np.kron(np.asarray(system_vec, dtype=complex),
                   np.asarray(clock_vec, dtype=complex))


@dataclass(frozen=True)
class SystemSpace:
    """Truncated system: Hermitian matrix with its sorted eigendecomposition."""

    matrix: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray

    @property
    def n_levels(self) -> int:
        return self.energies.size

    def eigenstate(self, i: int) -> np.ndarray:
        return self.vectors[:, i]


def build_system_space(hamiltonian) -> SystemSpace:
    """Eigendecompose a Hermitian matrix into a SystemSpace.

    Raises InvalidInputError with the violation norm if the input is not
    Hermitian to 1e-10.
    """
    H = np.asarray(hamiltonian, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {H.shape}")
    violation = float(np.max(np.abs(H - H.conj().T))) if H.size else 0.0
    if violation > HERMITICITY_TOL:
        raise InvalidInputError(
            f"matrix is not Hermitian: max |H - H'| = {violation:.3e}"
        )
    H = 0.5 * (H + H.conj().T)
    energies, vectors = np.linalg.eigh(H)
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.max(np.abs(H @ vectors - vectors * energies)) > 1e-10 * scale:
        raise NumericalFailureError("eigendecomposition residual out of tolerance")
    if np.max(np.abs(vectors.conj().T @ vectors - np.eye(H.shape[0]))) > 1e-12:
        raise NumericalFailureError("eigenvector matrix is not unitary to 1e-12")
    for arr in (H, energies, vectors):
        arr.setflags(write=False)
    return SystemSpace(matrix=H, energies=energies, vectors=vectors)


@dataclass(frozen=True)
class ClockSpace:
    """M-point clock register with conjugate pair (T, S) and sign sigma.

    `times` are the diagonal of T; `frequencies` the (ascending) centered
    DFT grid, which is exactly the spectrum of S.  S is applied by FFT; the
    dense M x M S_op is an oracle view, built on first read only.
    """

    M: int
    deltaT: float
    T0: float
    sigma: int
    times: np.ndarray
    frequencies: np.ndarray

    @cached_property
    def S_op(self) -> np.ndarray:
        """Dense F^dag diag(w) F, read-only; its spectrum is checked against
        `frequencies` to 1e-10."""
        # row j of the clock apply to the identity is S e_j, the column j of S
        S_op = _clock_apply(self.frequencies, np.eye(self.M)).T
        S_op = 0.5 * (S_op + S_op.conj().T)  # kill rounding-level asymmetry
        if np.max(np.abs(np.linalg.eigvalsh(S_op) - self.frequencies)) > 1e-10:
            raise NumericalFailureError("S_op spectrum deviates from the frequency grid")
        S_op.setflags(write=False)
        return S_op

    @property
    def freq_step(self) -> float:
        return 2 * np.pi / (self.M * self.deltaT)

    def plane_wave(self, k: int) -> np.ndarray:
        """Eigenvector of S_op with eigenvalue 2 pi k / (M dT)."""
        if not (-self.M // 2 <= k < self.M // 2):
            raise InvalidInputError(f"frequency index {k} outside [-M/2, M/2)")
        m = np.arange(self.M)
        return np.exp(2j * np.pi * k * m / self.M) / np.sqrt(self.M)


def _clock_apply(diag: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F^dag diag(`diag`) F along the last (clock) axis of x, by FFT."""
    half = diag.shape[-1] // 2  # `diag` runs like `frequencies`, FFT order from k = 0
    in_fft_order = np.concatenate((diag[half:], diag[:half]))
    return np.fft.ifft(in_fft_order * np.fft.fft(x, axis=-1, norm="ortho"),
                       axis=-1, norm="ortho")


def build_clock(M: int, deltaT: float, T0: float = 0.0, sigma: int = 1) -> ClockSpace:
    """Construct the clock register on an M-point grid of spacing deltaT."""
    if int(M) != M or M < 8 or M % 2 != 0:
        raise InvalidInputError(f"M must be an even integer >= 8, got {M}")
    M = int(M)
    if not (deltaT > 0 and np.isfinite(deltaT)):
        raise InvalidInputError("deltaT must be positive and finite")
    if not np.isfinite(T0):
        raise InvalidInputError("T0 must be finite")
    if sigma not in (1, -1):
        raise InvalidInputError(f"sigma must be +1 or -1, got {sigma}")

    m = np.arange(M)
    times = T0 + m * deltaT
    k = np.arange(-M // 2, M // 2)
    frequencies = 2 * np.pi * k / (M * deltaT)
    for arr in (times, frequencies):
        arr.setflags(write=False)
    return ClockSpace(M=M, deltaT=float(deltaT), T0=float(T0), sigma=int(sigma),
                      times=times, frequencies=frequencies)


def commutator_residual(clock: ClockSpace, phi) -> float:
    """||(T S - S T) phi - i phi|| for a unit clock vector phi.

    Small only for states that are negligible near the grid boundary; basis
    vectors at the edge or spectrally saturated states give O(1/deltaT)
    values.  This is the finite-dimensional obstruction to the exact
    commutator, quantified rather than hidden.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (clock.M,):
        raise InvalidInputError("phi must be a clock-register vector")
    if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
        raise InvalidInputError("phi must be normalized")
    w = clock.frequencies
    r = clock.times * _clock_apply(w, phi) - _clock_apply(w, clock.times * phi) - 1j * phi
    return float(np.linalg.norm(r))


@dataclass(eq=False)
class ExtendedSpace:
    """System (x) clock with the extended generator H_ex = H_s + sigma S.

    The pair (system, clock) determines everything; the dense n M x n M
    generator and its eigendecomposition are built only when read.
    """

    system: SystemSpace
    clock: ClockSpace
    _eig: tuple | None = field(default=None, init=False, repr=False)

    @property
    def sigma(self) -> int:
        return self.clock.sigma

    @property
    def dim(self) -> int:
        return self.system.n_levels * self.clock.M

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """Dense H_ex = H_s (x) I_M + sigma (I (x) S_op), system-major, read-only."""
        system, clock = self.system, self.clock
        H_ex = (np.kron(system.matrix, np.eye(clock.M))
                + clock.sigma * np.kron(np.eye(system.n_levels), clock.S_op))
        herm = float(np.max(np.abs(H_ex - H_ex.conj().T)))
        if herm > 1e-12:
            raise NumericalFailureError(f"H_ex Hermiticity violated at {herm:.3e}")
        H_ex = 0.5 * (H_ex + H_ex.conj().T)
        H_ex.setflags(write=False)
        return H_ex

    def eigensystem(self):
        """Cached dense eigendecomposition of H_ex (the oracle path)."""
        if self._eig is None:
            lam, W = np.linalg.eigh(self.hamiltonian)
            lam.setflags(write=False)
            W.setflags(write=False)
            self._eig = (lam, W)
        return self._eig


def build_extended(system: SystemSpace, clock: ClockSpace) -> ExtendedSpace:
    """Pair a system with a clock; H_ex is assembled on first read."""
    dim = system.n_levels * clock.M
    if dim > MAX_EXTENDED_DIM:
        raise InvalidInputError(
            f"extended dimension {dim} exceeds the dense-solver budget {MAX_EXTENDED_DIM}"
        )
    return ExtendedSpace(system=system, clock=clock)


def verify_kronecker_spectrum(ext: ExtendedSpace) -> float:
    """Max deviation of eig(H_ex) from the sums E_i + sigma * w_k."""
    expected = np.sort(
        (ext.system.energies[:, None]
         + ext.sigma * ext.clock.frequencies[None, :]).ravel()
    )
    actual, _ = ext.eigensystem()
    return float(np.max(np.abs(actual - expected)))


def _check_state(ext: ExtendedSpace, psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (ext.dim,):
        raise InvalidInputError(
            f"state length {psi.size} does not match the extended dimension {ext.dim}"
        )
    return psi


def _eigenbasis_apply(V: np.ndarray, diag: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V diag(`diag`) V^dag along the first axis of a vector or matrix x;
    V^dag x is formed as (V^T x*)* without materialising the conjugate of V."""
    return V @ (diag * (V.T @ x.conj()).conj().T).T


def _hex_apply(ext: ExtendedSpace, psi: np.ndarray) -> np.ndarray:
    """H_ex psi in factored form: H_s X + sigma (S along the clock axis of X)."""
    block = psi.reshape(ext.system.n_levels, ext.clock.M)
    return (ext.system.matrix @ block
            + ext.sigma * _clock_apply(ext.clock.frequencies, block)).reshape(-1)


def evolve_extended(ext: ExtendedSpace, psi, theta: float, method: str = "kron") -> np.ndarray:
    """exp(-i H_ex theta) psi.

    method 'kron' factors the propagator through the two eigenbases (exact
    at rounding level); 'dense' goes through the numerical eigendecomposition
    of the assembled H_ex and serves as the independent cross-check.
    """
    psi = _check_state(ext, psi)
    if not np.isfinite(theta):
        raise InvalidInputError("theta must be finite")
    if method == "kron":
        sys_s, clk = ext.system, ext.clock
        block = psi.reshape(sys_s.n_levels, clk.M)
        block = _eigenbasis_apply(sys_s.vectors, np.exp(-1j * theta * sys_s.energies), block)
        block = _clock_apply(np.exp(-1j * theta * ext.sigma * clk.frequencies), block)
        return block.reshape(-1)
    if method == "dense":
        lam, W = ext.eigensystem()
        return _eigenbasis_apply(W, np.exp(-1j * lam * theta), psi)
    raise InvalidInputError(f"unknown evolution method {method!r}")


def evolve_factored(system: SystemSpace, clock: ClockSpace, psi_s, psi_T, t: float):
    """(exp(-i H_s t) psi_s, exp(-i sigma S t) psi_T): the factored evolution."""
    psi_s = np.asarray(psi_s, dtype=complex)
    psi_T = np.asarray(psi_T, dtype=complex)
    if psi_s.shape != (system.n_levels,) or psi_T.shape != (clock.M,):
        raise InvalidInputError("factor dimensions do not match the spaces")
    out_s = _eigenbasis_apply(system.vectors, np.exp(-1j * t * system.energies), psi_s)
    out_T = _clock_apply(np.exp(-1j * t * clock.sigma * clock.frequencies), psi_T)
    return out_s, out_T


class UncertaintyProduct(NamedTuple):
    d_energy: float
    d_time: float
    product: float


def uncertainty_product(ext: ExtendedSpace, psi) -> UncertaintyProduct:
    """Spreads of H_ex and of the time register I (x) T, and their product.

    The continuum bound product >= 1/2 holds for states localized away from
    the grid boundary; boundary-dominated states may dip below it.
    """
    psi = _check_state(ext, psi)
    h_psi = _hex_apply(ext, psi)
    mean_h = float(np.vdot(psi, h_psi).real)
    centered = h_psi - mean_h * psi  # avoids the <H^2> - <H>^2 cancellation
    var_h = float(np.vdot(centered, centered).real)
    weights = np.abs(psi.reshape(ext.system.n_levels, ext.clock.M)) ** 2
    p_t = weights.sum(axis=0)
    mean_t = float(p_t @ ext.clock.times)
    var_t = max(float(p_t @ (ext.clock.times - mean_t) ** 2), 0.0)
    d_h = float(np.sqrt(var_h))
    d_t = float(np.sqrt(var_t))
    return UncertaintyProduct(d_h, d_t, d_h * d_t)


def gaussian_clock_state(clock: ClockSpace, center: float | None = None,
                         width: float | None = None, momentum: float = 0.0) -> np.ndarray:
    """Normalized Gaussian packet on the clock grid.

    Defaults: centered at the middle grid point, width = M dT / 20 (safely
    interior).  `momentum` adds a plane-wave boost exp(i momentum T).
    """
    span = clock.M * clock.deltaT
    if center is None:
        center = clock.T0 + (clock.M // 2) * clock.deltaT
    if width is None:
        width = span / 20
    if not (width > 0 and np.isfinite(width)):
        raise InvalidInputError("width must be positive and finite")
    phi = np.exp(-((clock.times - center) ** 2) / (4 * width ** 2)
                 + 1j * momentum * clock.times)
    return unit(phi)


def clock_marginal(psi, M: int) -> np.ndarray:
    """Probability of each clock bin, tracing out the system index."""
    psi = np.asarray(psi, dtype=complex)
    if psi.size % M != 0:
        raise InvalidInputError("state length is not a multiple of the grid size")
    return (np.abs(psi.reshape(-1, M)) ** 2).sum(axis=0)
