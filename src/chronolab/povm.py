"""Time observable restricted to the physical subspace, audited as a POVM.

The constraint slaves each matched system level to one clock frequency, so
the physical subspace is carried isomorphically on its clock-sector image:
the span of the matched plane waves.  Restricting the clock-bin projectors
|T_m><T_m| to that image gives the rank-one measurement effects

    E_m[a, b] = conj(W[m, a]) W[m, b],     W[m, a] = <T_m | clock part of a>

which are positive, sum to the identity, and are neither idempotent nor
mutually orthogonal whenever d < M: the reading of each bin overlaps its
neighbours.  The d = M control case degenerates to orthogonal projectors.
A TimePOVM is therefore its frame W: every audited quantity is computed
from W in O(M d) or O(M d^2), and no code in the package reads the dense
(M, d, d) effect stack.  The frame is covariant under the cyclic
clock shift, so its Gram matrix G = W W^dag is circulant and one column of
it carries every PM defect.

Conditioning on a bin recovers the system state at that clock reading, and
successive bins are related by exp(-i sigma H_s deltaT), so the frozen
extended state carries ordinary Schroedinger evolution in its correlations.

The construction needs the matched frequencies to be distinct (a repeated
frequency makes the clock-sector image non-injective); building a POVM on
such a subspace raises InvalidInputError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constraint import PhysicalState, PhysicalSubspace
from .errors import InvalidInputError, NoPhysicalStatesError, NumericalFailureError
from .quantum import ClockSpace, ExtendedSpace, clock_marginal, evolve_extended, unit

__all__ = [
    "TimePOVM",
    "EventOperator",
    "PMViolationReport",
    "CovarianceReport",
    "build_time_povm",
    "projective_clock_povm",
    "pm_violation_report",
    "time_distribution",
    "conditional_state",
    "conditional_states",
    "event_probability",
    "covariance_report",
    "restricted_time_operator",
    "first_moment_vs_closed_form",
    "clock_sector_frame",
]

FRAME_TOL = 1e-10


@dataclass(frozen=True)
class TimePOVM:
    """Family of M rank-one effects on the d-dimensional physical sector.

    `frame` is the (M, d) clock-sector image W with orthonormal columns; it
    describes the POVM completely, effects[m] = W[m]^dag W[m] row by row.
    Every method reads W; `effects` is a view for callers only.
    """

    frame: np.ndarray  # (M, d)
    times: np.ndarray  # (M,)
    deltaT: float
    sigma: int

    def __post_init__(self):
        for name in ("frame", "times"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def M(self) -> int:
        return self.frame.shape[0]

    @property
    def d(self) -> int:
        return self.frame.shape[1]

    @cached_property
    def effects(self) -> np.ndarray:
        """Dense (M, d, d) effect stack, built on first use; read-only.

        No audit reads it: at d = M = 1024 it takes 16 GiB."""
        effects = np.einsum("ma,mb->mab", self.frame.conj(), self.frame)
        effects.setflags(write=False)
        return effects

    def completeness_residual(self) -> float:
        W = self.frame
        return float(np.max(np.abs(W.conj().T @ W - np.eye(self.d))))

    def min_effect_eigenvalue(self) -> float:
        """Smallest eigenvalue over all effects, read from the frame in O(M d).

        E_m = w_m^dag w_m has rank one: its eigenvalues are ||w_m||^2 and,
        for d > 1, d - 1 exact zeros, so the minimum is 0.0 whenever d > 1.
        For d = 1 each effect is the 1 x 1 product conj(W[m, 0]) W[m, 0],
        written out as re^2 + im^2 with the effect stack's two roundings
        (numpy's complex multiply may fuse them and round differently).
        No effect stack is built and no batched eigensolver runs: those cost
        O(M d^3) time and O(M d^2) memory (16 GiB at d = M = 1024).
        """
        if self.d > 1:
            return 0.0
        w = self.frame[:, 0]
        return float((w.real * w.real + w.imag * w.imag).min())


def clock_sector_frame(sub: PhysicalSubspace) -> np.ndarray:
    """Clock-sector image W (M, d) of the physical basis.

    Each basis column is expressed in the energy (x) grid basis and the
    energy index is contracted away; for the product basis the column a is
    exactly the matched plane wave of pair a.
    """
    if sub.d == 0:
        raise NoPhysicalStatesError("the physical subspace is empty")
    sys_s = sub.space.system
    M = sub.space.clock.M
    block = sub.basis.reshape(sys_s.n_levels, M, sub.d)
    in_energy_basis = np.einsum("ji,jma->ima", sys_s.vectors.conj(), block)
    return in_energy_basis.sum(axis=0)


def _frame_povm(W: np.ndarray, clock: ClockSpace) -> TimePOVM:
    povm = TimePOVM(frame=W, times=clock.times, deltaT=clock.deltaT, sigma=clock.sigma)
    defect = povm.completeness_residual()
    if defect > FRAME_TOL:
        raise InvalidInputError(
            "clock-sector image is not orthonormal "
            f"(deviation {defect:.3e}); matched frequencies must be distinct"
        )
    return povm


def build_time_povm(sub: PhysicalSubspace) -> TimePOVM:
    """Time POVM of a physical subspace: clock-bin projectors on its image."""
    return _frame_povm(clock_sector_frame(sub), sub.space.clock)


def projective_clock_povm(clock: ClockSpace) -> TimePOVM:
    """Control case d = M: the unrestricted clock, whose effects are the
    orthogonal bin projectors (an honest PM)."""
    return _frame_povm(np.eye(clock.M, dtype=complex), clock)


@dataclass(frozen=True)
class PMViolationReport:
    """How far the effects are from a projector measure.

    Both defects vanish for a PM; both are strictly positive when d < M.
    """

    orthogonality_defect: float
    idempotency_defect: float
    worst_pair: tuple


def pm_violation_report(povm: TimePOVM) -> PMViolationReport:
    """max_{m != m'} ||E_m E_m'|| and max_m ||E_m^2 - E_m|| (spectral norms).

    Rank one gives |G[m, m']| sqrt(G[m, m] G[m', m']) and |G[m, m] - 1| G[m, m]
    with G = W W^dag.  For a frame covariant under the cyclic clock shift P,
    G[m, m'] depends on m - m' (mod M) only, so the column g = G[:, 0] holds
    every defect: each norm is g[0], and `worst_pair` is (0, m') for the
    first m' maximising |g[m']|.  A frame whose span P does not map onto
    itself, max |P W - W W^dag P W| > FRAME_TOL, raises InvalidInputError.
    """
    W = povm.frame
    shifted = np.roll(W, 1, axis=0)
    residual = float(np.max(np.abs(shifted - W @ (W.conj().T @ shifted))))
    if not residual <= FRAME_TOL:
        raise InvalidInputError(
            "time POVM frame is not covariant under the clock shift "
            f"(residual {residual:.3e}); its Gram matrix is not circulant"
        )
    g = W @ W[0].conj()
    norm = float(g[0].real)
    worst = 1 + int(np.argmax(np.abs(g[1:])))
    return PMViolationReport(orthogonality_defect=float(np.abs(g[worst])) * norm,
                             idempotency_defect=abs(norm - 1.0) * norm,
                             worst_pair=(0, worst))


def _coeffs_of(state) -> np.ndarray:
    if isinstance(state, PhysicalState):
        return state.coeffs
    return unit(state)


def time_distribution(povm: TimePOVM, state) -> np.ndarray:
    """Born probabilities p_m = c^dag E_m c = |(W c)_m|^2 of the clock readings."""
    c = _coeffs_of(state)
    if c.size != povm.d:
        raise InvalidInputError(f"need {povm.d} coefficients, got {c.size}")
    return np.abs(povm.frame @ c) ** 2


def _normalized_bins(block: np.ndarray, bins) -> np.ndarray:
    """Columns of `block` (the clock bins `bins`) scaled to unit norm.

    Each bin is normalized as its own contiguous row, so the result for a
    bin does not depend on how many bins are normalized together.
    """
    rows = np.ascontiguousarray(block.T)
    norms = np.linalg.norm(rows, axis=1)
    empty = np.flatnonzero(norms < 1e-12)
    if empty.size:
        raise NumericalFailureError(
            f"conditional state at bin {bins[empty[0]]} has zero weight")
    return (rows / norms[:, None]).T


def conditional_states(sub: PhysicalSubspace, phys: PhysicalState) -> np.ndarray:
    """System states conditioned on every clock reading, as (n_levels, M) columns.

    For a physical state sum_a c_a |E_a> (x) |w_a> the conditional at bin m
    is proportional to sum_a c_a e^{-i sigma E_a (T_m - T0)} |E_a>, so one
    bin step applies exp(-i sigma H_s deltaT).
    """
    M = sub.space.clock.M
    block = phys.vector.reshape(sub.space.system.n_levels, M)
    return _normalized_bins(block, range(M))


def conditional_state(sub: PhysicalSubspace, phys: PhysicalState, m: int) -> np.ndarray:
    """System state conditioned on the clock reading T_m, normalized: column
    m of `conditional_states`, with only bin m checked for weight."""
    M = sub.space.clock.M
    if not 0 <= m < M:
        raise InvalidInputError(f"bin index {m} outside the grid")
    block = phys.vector.reshape(sub.space.system.n_levels, M)
    return _normalized_bins(block[:, m:m + 1], (m,))[:, 0]


@dataclass(frozen=True)
class EventOperator:
    """Joint event: system inside a projector's range during a set of bins."""

    projector: np.ndarray
    window: tuple

    def __post_init__(self):
        proj = np.asarray(self.projector, dtype=complex)
        if proj.ndim != 2 or proj.shape[0] != proj.shape[1] or proj.shape[0] < 1:
            raise InvalidInputError("projector must be square")
        if not np.all(np.isfinite(proj)):
            raise InvalidInputError("projector contains non-finite entries")
        # an overflowing product reads inf or NaN, and `not (x <= tol)` fails both
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.max(np.abs(proj - proj.conj().T)) <= 1e-10:
                raise InvalidInputError("projector must be Hermitian")
            if not np.max(np.abs(proj @ proj - proj)) <= 1e-10:
                raise InvalidInputError("projector must be idempotent to 1e-10")
        try:  # operator.index takes ints and numpy integers, never a float
            window = tuple(sorted({operator.index(m) for m in self.window}))
        except TypeError:
            raise InvalidInputError("bin indices must be integers") from None
        if any(m < 0 for m in window):
            raise InvalidInputError("bin indices must be non-negative")
        proj.setflags(write=False)
        object.__setattr__(self, "projector", proj)
        object.__setattr__(self, "window", window)


def event_probability(event: EventOperator, sub: PhysicalSubspace,
                      phys: PhysicalState) -> float:
    """<psi| (P_V (x) sum_{m in window} |T_m><T_m|) |psi>."""
    space = sub.space
    if event.projector.shape[0] != space.system.n_levels:
        raise InvalidInputError("projector dimension does not match the system")
    if event.window and event.window[-1] >= space.clock.M:
        raise InvalidInputError("window contains bins outside the grid")
    block = phys.vector.reshape(space.system.n_levels, space.clock.M)
    windowed = block[:, list(event.window)]
    return float(np.einsum("im,ij,jm->", windowed.conj(), event.projector, windowed).real)


@dataclass(frozen=True)
class CovarianceReport:
    """Clock-marginal response to extended evolution by theta.

    For a generic state the marginal cyclically shifts by sigma * j bins
    (j = theta / deltaT); for a physical state it does not move.  Both
    deviations are reported so either behaviour can be asserted.
    """

    theta: float
    bins: int
    interpolated: bool
    shift_deviation: float
    stationary_deviation: float
    sigma: int


def covariance_report(ext: ExtendedSpace, psi, theta: float) -> CovarianceReport:
    """Compare the evolved clock marginal with the cyclic shift of the original.

    theta is expected to be an integer multiple of deltaT (the shift is then
    bin-exact); otherwise the report is computed at the nearest bin count and
    flagged as interpolated.
    """
    ratio = theta / ext.clock.deltaT
    bins = int(round(ratio))
    interpolated = abs(ratio - bins) > 1e-9
    theta_used = bins * ext.clock.deltaT
    before = clock_marginal(psi, ext.clock.M)
    after = clock_marginal(evolve_extended(ext, psi, theta_used), ext.clock.M)
    shifted = np.roll(before, ext.sigma * bins)
    return CovarianceReport(
        theta=float(theta),
        bins=bins,
        interpolated=interpolated,
        shift_deviation=float(np.max(np.abs(after - shifted))),
        stationary_deviation=float(np.max(np.abs(after - before))),
        sigma=ext.sigma,
    )


def restricted_time_operator(povm: TimePOVM) -> np.ndarray:
    """First moment sum_m T_m E_m = W^dag diag(T) W: the physical time operator."""
    W = povm.frame
    return W.conj().T @ (povm.times[:, None] * W)


def first_moment_vs_closed_form(povm: TimePOVM, pairs) -> float:
    """max |W^dag diag(T) W - closed form| for matched plane waves, whose
    first moment is T0 + (M - 1) deltaT / 2 on the diagonal and
    deltaT / (exp(2 pi i (k_b - k_a) / M) - 1) off it."""
    ks = np.array([p.k for p in pairs])
    with np.errstate(divide="ignore", invalid="ignore"):  # diagonal replaced below
        expected = povm.deltaT / (np.exp(2j * np.pi * (ks - ks[:, None]) / povm.M) - 1.0)
    np.fill_diagonal(expected, povm.times[0] + (povm.M - 1) * povm.deltaT / 2)
    return float(np.max(np.abs(restricted_time_operator(povm) - expected)))
