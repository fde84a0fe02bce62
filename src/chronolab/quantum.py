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

H_ex is a Kronecker sum and is applied factor by factor, the clock by FFT.
Its spectrum, the sums E_i + sigma w_k, and so its norm are read from the
factors.  The dense oracle reads its assembled entries one decoupled
block at a time, one block per connected component of H_s over all M
bins, each built from H_s and the dense S_op alone.  eigensystem() reads
only those blocks, so no (dim, dim) generator is formed; `hamiltonian`,
their scatter into one, is for tests and users.  The dense views are
built only for the oracles, and only they check the dense-solver budget,
before they allocate.  eigensystem() hands out its eigenpairs block by
block, and each reader takes one block at a time: no (dim, dim)
eigenvector matrix is formed.
"""

from __future__ import annotations

import math
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
    """Product state in the system-major ordering (index = i * M + m); the
    leading axes of stacked factors broadcast."""
    product = (np.asarray(system_vec, dtype=complex)[..., :, None]
               * np.asarray(clock_vec, dtype=complex)[..., None, :])
    return product.reshape(product.shape[:-2] + (product.shape[-2] * product.shape[-1],))


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

    Raises InvalidInputError for non-finite entries, and with the violation
    norm if the input is not Hermitian to 1e-10.  Every guard is written
    `not (x <= tol)`, so a NaN fails it.
    """
    H = np.asarray(hamiltonian, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise InvalidInputError("matrix contains non-finite entries")
    with np.errstate(over="ignore"):  # an overflowing difference is a violation
        violation = float(np.max(np.abs(H - H.conj().T)))
    if not violation <= HERMITICITY_TOL:
        raise InvalidInputError(
            f"matrix is not Hermitian: max |H - H'| = {violation:.3e}"
        )
    # halve before adding: 0.5 * (H + H') overflows for entries near the float limit
    H = 0.5 * H + 0.5 * H.conj().T
    energies, vectors = np.linalg.eigh(H)
    scale = max(1.0, float(np.max(np.abs(H))))
    if not np.max(np.abs(H @ vectors - vectors * energies)) <= 1e-10 * scale:
        raise NumericalFailureError("eigendecomposition residual out of tolerance")
    if not np.max(np.abs(vectors.conj().T @ vectors - np.eye(H.shape[0]))) <= 1e-12:
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
        """Dense F^dag diag(w) F, read-only, refused past the dense-solver
        budget; its spectrum is checked against `frequencies` to
        1e-12 max(1, max|w|), as eigvalsh rounds relative to the largest
        eigenvalue."""
        check_dense_budget(self.M)
        # row j of the clock apply to the identity is S e_j, the column j of S;
        # entries past the float range fail the spectrum check below
        with np.errstate(over="ignore", invalid="ignore"):
            S_op = _clock_apply(self.frequencies, np.eye(self.M)).T
            S_op = 0.5 * (S_op + S_op.conj().T)  # kill rounding-level asymmetry
            deviation = np.max(np.abs(_decompose(np.linalg.eigvalsh, S_op)
                                      - self.frequencies))
        if not deviation <= 1e-12 * max(1.0, float(np.max(np.abs(self.frequencies)))):
            raise NumericalFailureError("S_op spectrum deviates from the frequency grid")
        S_op.setflags(write=False)
        return S_op

    @property
    def freq_step(self) -> float:
        return 2 * np.pi / (self.M * self.deltaT)

    def plane_wave(self, k) -> np.ndarray:
        """Eigenvector of S_op with eigenvalue 2 pi k / (M dT); an array of
        indices k gives one eigenvector per index, along a new last axis."""
        k = np.asarray(k)
        if not ((-self.M // 2 <= k) & (k < self.M // 2)).all():
            raise InvalidInputError(f"frequency index {k} outside [-M/2, M/2)")
        m = np.arange(self.M)
        return np.exp(2j * np.pi * k[..., None] * m / self.M) / np.sqrt(self.M)


def _clock_apply(diag: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F^dag diag(`diag`) F along the last (clock) axis of x, by FFT; the
    leading axes of `diag` broadcast against those of x."""
    half = diag.shape[-1] // 2  # `diag` runs like `frequencies`, FFT order from k = 0
    in_fft_order = np.concatenate((diag[..., half:], diag[..., :half]), axis=-1)
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
    # the grid's extremes, as Python floats (which overflow to inf silently);
    # a finite squared span keeps every squared time difference, as in the
    # clock packet and the time spread, finite too
    top_frequency = math.pi / float(deltaT)
    span = M * float(deltaT)
    if not (math.isfinite(top_frequency) and math.isfinite(span * span)):
        raise InvalidInputError(
            f"clock grid leaves the float range: largest frequency pi/deltaT = "
            f"{top_frequency:g} and squared span (M deltaT)**2 = {span * span:g} "
            "must be finite"
        )

    m = np.arange(M)
    times = T0 + m * deltaT
    if not np.all(np.diff(times) > 0):
        raise InvalidInputError(
            f"clock times T0 + m deltaT are not strictly increasing in floating "
            f"point: the step {float(deltaT):g} is lost against T0 = {float(T0):g}"
        )
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

    The pair (system, clock) determines everything; the blocks of the
    n M x n M generator, its eigendecomposition and its dense form are
    built only when read.
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

    def _blocks(self):
        """(rows, H_ex[rows, rows]) for each connected component L of H_s,
        over all M bins, read from the two factors alone.

        Refused past the dense-solver budget before anything is allocated;
        the Hermiticity guard reads the factors, whose violations bound
        H_ex's.  Both run on the call; the blocks are built as they are
        iterated.  A block's rows are L * M + bin, ascending, and the
        blocks come in order of their lowest row.  S_op is one connected
        component on every clock (its shift-one entries are O(1/deltaT)),
        so these are the components of H_ex; a block that held several
        would still be an exact eigenproblem.  Each block takes the dense
        assembly's two writes: H_s on the clock diagonal, then sigma S_op
        added on the system-diagonal blocks.
        """
        check_dense_budget(self.dim)
        system, clock = self.system, self.clock
        S_op = clock.S_op
        herm = (float(np.max(np.abs(system.matrix - system.matrix.conj().T)))
                + float(np.max(np.abs(S_op - S_op.conj().T))))
        if herm > 1e-12:
            raise NumericalFailureError(f"H_ex Hermiticity violated at {herm:.3e}")
        return (_kron_sum_block(system.matrix, clock.sigma * S_op, levels)
                for levels in _connected_components(system.matrix))

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """Dense H_ex = H_s (x) I_M + sigma (I (x) S_op), system-major, read-only:
        the blocks of `_blocks` scattered into one zeroed (dim, dim) array."""
        blocks = self._blocks()  # refuses past the budget before the allocation
        H_ex = np.zeros((self.dim, self.dim), dtype=complex)
        for rows, block in blocks:
            H_ex[np.ix_(rows, rows)] = block
        H_ex.setflags(write=False)
        return H_ex

    def eigensystem(self):
        """Cached dense eigendecomposition of H_ex (the oracle path): one
        (rows, values, vectors) per block of `_blocks`, in block order, as
        its eigh gives them.  A permutation that makes H_ex block-diagonal
        is an exact similarity, so each block's eigenpairs, placed on its
        rows, are eigenpairs of H_ex; no (dim, dim) array is formed.
        """
        if self._eig is None:
            eig = tuple((rows, *_decompose(np.linalg.eigh, block))
                        for rows, block in self._blocks())
            for arr in (arr for block in eig for arr in block):
                arr.setflags(write=False)
            self._eig = eig
        return self._eig


def _decompose(decompose, H: np.ndarray):
    """`decompose(H)` for the dense oracles; LAPACK's failure to converge
    (a grid too fine for the float range, say) is a NumericalFailureError."""
    try:
        return decompose(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"dense eigendecomposition failed: {exc}") from None


def _kron_sum_block(matrix: np.ndarray, sigma_s: np.ndarray, levels: np.ndarray):
    """(rows, block) of H_s (x) I + I (x) sigma_s on the rows of `levels`."""
    l, M = levels.size, sigma_s.shape[0]
    block = np.zeros((l, M, l, M), dtype=complex)
    block[:, np.arange(M), :, np.arange(M)] = matrix[np.ix_(levels, levels)]
    block[np.arange(l), :, np.arange(l), :] += sigma_s
    rows = (levels[:, None] * M + np.arange(M)).ravel()
    return rows, block.reshape(rows.size, rows.size)


def _connected_components(H: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the pattern
    (H != 0) | (H != 0)^T, each ascending, in order of their lowest index."""
    linked = H != 0
    linked |= linked.T
    unseen = np.ones(H.shape[0], dtype=bool)
    blocks = []
    for seed in range(H.shape[0]):
        if unseen[seed]:
            unseen[seed] = False
            frontier = members = np.array([seed])
            while frontier.size:  # breadth-first: every row is read once
                frontier = np.flatnonzero(linked[frontier].any(axis=0) & unseen)
                unseen[frontier] = False
                members = np.concatenate((members, frontier))
            blocks.append(np.sort(members))
    return blocks


def check_dense_budget(dim: int):
    """Refuse a dense view of dimension past MAX_EXTENDED_DIM."""
    if dim > MAX_EXTENDED_DIM:
        raise InvalidInputError(
            f"dense dimension {dim} exceeds the dense-solver budget {MAX_EXTENDED_DIM}"
        )


def build_extended(system: SystemSpace, clock: ClockSpace) -> ExtendedSpace:
    """Pair a system with a clock; nothing is allocated (the dense views check the budget)."""
    return ExtendedSpace(system=system, clock=clock)


def _kron_sums(ext: ExtendedSpace) -> np.ndarray:
    """The spectrum of H_ex from its factors: the (n_levels, M) sums
    E_i + sigma * w_k.  H_ex is Hermitian, so max |sum| is ||H_ex||_2."""
    return ext.system.energies[:, None] + ext.sigma * ext.clock.frequencies


def verify_kronecker_spectrum(ext: ExtendedSpace) -> float:
    """Max deviation of eig(H_ex) from the sums E_i + sigma * w_k."""
    expected = np.sort(_kron_sums(ext).ravel())
    actual = np.sort(np.concatenate([values for _, values, _ in ext.eigensystem()]))
    return float(np.max(np.abs(actual - expected)))


def _eigenbasis_apply(V: np.ndarray, diag: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V diag(`diag`) V^dag along the last axis of x; the leading axes of
    `diag` broadcast against those of x.

    V^dag is applied to the distinct rows of x as (x* V)*, without
    materialising the conjugate of V, and V to every broadcast row; each is
    one matrix product over the whole stack.
    """
    d = V.shape[0]
    coeffs = (x.reshape(-1, d).conj() @ V).conj().reshape(x.shape)
    scaled = diag * coeffs
    return (scaled.reshape(-1, d) @ V.T).reshape(scaled.shape)


def _phases(theta, x, sigma: int = 1) -> np.ndarray:
    """exp(-i theta sigma x), the propagator phases of the spectrum x.

    A phase whose angle leaves the float range has no value; it raises
    InvalidInputError instead of turning into NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        angle = -1j * theta * sigma * x
    if not np.isfinite(angle).all():
        raise InvalidInputError("evolution phase theta * energy leaves the float range")
    return np.exp(angle)


def _hex_apply(ext: ExtendedSpace, psi: np.ndarray) -> np.ndarray:
    """H_ex psi in factored form: H_s X + sigma (S along the clock axis of X)."""
    block = psi.reshape(ext.system.n_levels, ext.clock.M)
    return (ext.system.matrix @ block
            + ext.sigma * _clock_apply(ext.clock.frequencies, block)).reshape(-1)


def evolve_extended(ext: ExtendedSpace, psi, theta, method: str = "kron") -> np.ndarray:
    """exp(-i H_ex theta) psi.

    method 'kron' factors the propagator through the two eigenbases (exact
    at rounding level); 'dense' goes through the numerical eigendecomposition
    of the assembled H_ex, one decoupled block at a time, and serves as the
    independent cross-check.

    psi is (..., dim) and theta a scalar or an array; their leading axes
    broadcast numpy-style, so the result is
    broadcast(psi.shape[:-1], theta.shape) + (dim,).
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (ext.dim,):
        raise InvalidInputError(
            f"state shape {psi.shape} does not end in the extended dimension {ext.dim}"
        )
    theta = np.asarray(theta)
    if not np.isfinite(theta).all():
        raise InvalidInputError("theta must be finite")
    try:
        np.broadcast_shapes(psi.shape[:-1], theta.shape)
    except ValueError:
        raise InvalidInputError(f"state stack {psi.shape[:-1]} does not broadcast "
                                f"against theta {theta.shape}") from None
    if method == "kron":
        sys_s, clk = ext.system, ext.clock
        block = psi.reshape(psi.shape[:-1] + (sys_s.n_levels, clk.M))
        theta = theta[..., None, None]
        # the system factor acts on the level axis: it goes last and back
        block = _eigenbasis_apply(sys_s.vectors, _phases(theta, sys_s.energies),
                                  block.swapaxes(-1, -2)).swapaxes(-1, -2)
        block = _clock_apply(_phases(theta, clk.frequencies, ext.sigma), block)
        return block.reshape(block.shape[:-2] + (ext.dim,))
    if method == "dense":
        out = np.empty(np.broadcast_shapes(psi.shape[:-1], theta.shape) + (ext.dim,),
                       dtype=complex)
        for rows, values, vectors in ext.eigensystem():  # each block on its own rows
            out[..., rows] = _eigenbasis_apply(vectors, _phases(theta[..., None], values),
                                               psi[..., rows])
        return out
    raise InvalidInputError(f"unknown evolution method {method!r}")


def evolve_factored(system: SystemSpace, clock: ClockSpace, psi_s, psi_T, t):
    """(exp(-i H_s t) psi_s, exp(-i sigma S t) psi_T): the factored evolution.

    psi_s is (..., n), psi_T is (..., M) and t a scalar or an array; each
    factor's leading axes broadcast against t's, as in `evolve_extended`.
    """
    psi_s = np.asarray(psi_s, dtype=complex)
    psi_T = np.asarray(psi_T, dtype=complex)
    if psi_s.shape[-1:] != (system.n_levels,) or psi_T.shape[-1:] != (clock.M,):
        raise InvalidInputError("factor dimensions do not match the spaces")
    t = np.asarray(t)
    if not np.isfinite(t).all():
        raise InvalidInputError("t must be finite")
    try:
        np.broadcast_shapes(psi_s.shape[:-1], t.shape)
        np.broadcast_shapes(psi_T.shape[:-1], t.shape)
    except ValueError:
        raise InvalidInputError("factor stacks do not broadcast against t") from None
    t = t[..., None]
    out_s = _eigenbasis_apply(system.vectors, _phases(t, system.energies), psi_s)
    out_T = _clock_apply(_phases(t, clock.frequencies, clock.sigma), psi_T)
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
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (ext.dim,):
        raise InvalidInputError(
            f"state length {psi.size} does not match the extended dimension {ext.dim}"
        )
    h_psi = _hex_apply(ext, psi)
    mean_h = float(np.vdot(psi, h_psi).real)
    centered = h_psi - mean_h * psi  # avoids the <H^2> - <H>^2 cancellation
    var_h = float(np.vdot(centered, centered).real)
    p_t = clock_marginal(psi, ext.clock.M)
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
    spread = 4 * float(width) * float(width)  # Python floats overflow to inf silently
    if not spread > 0:
        raise InvalidInputError(f"width {width!r} is too small: 4*width**2 underflows to 0")
    if not math.isfinite(spread):
        raise InvalidInputError(f"width {width!r} is too large: 4*width**2 overflows")
    phi = np.exp(-((clock.times - center) ** 2) / spread + 1j * momentum * clock.times)
    return unit(phi)


def clock_marginal(psi, M: int) -> np.ndarray:
    """Probability of each clock bin, tracing out the system index."""
    psi = np.asarray(psi, dtype=complex)
    if psi.size % M != 0:
        raise InvalidInputError("state length is not a multiple of the grid size")
    return (np.abs(psi.reshape(-1, M)) ** 2).sum(axis=0)
