"""Classical side: canonical states, the time-extended system and its flow.

A Hamiltonian system on R^2n is extended by a canonical pair (T, S); fixing
the extended energy H + S to zero on the initial data makes the extended
flow in the evolution parameter theta reproduce the original flow in t,
with T advancing at unit rate and S frozen at minus the energy.  Both flows
are integrated by one implicit-midpoint loop, in pure Python, so the
equivalence can be checked trajectory against trajectory.  Brackets are
central differences over one stacked array of probe points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, InvalidInputError, NumericalFailureError
from .serialize import write_csv

__all__ = [
    "PhaseState",
    "ExtendedPhaseState",
    "HamiltonianSystem",
    "ExtendedSystem",
    "Trajectory",
    "EquivalenceReport",
    "harmonic_oscillator",
    "free_particle",
    "quartic_oscillator",
    "extend_state",
    "poisson_bracket",
    "coordinate",
    "integrate_original",
    "integrate_extended",
    "check_equivalence",
]

# Fixed-point iteration settings of the implicit midpoint rule.
MIDPOINT_TOL = 1e-13
MIDPOINT_MAX_ITER = 50
# Most grid steps one classical run may take; the bundled runs take 6,283.
MAX_CLASSICAL_STEPS = 10 ** 6

_VELOCITY_PROBE_SEED = 172
_VELOCITY_PROBE_POINTS = 4
_VELOCITY_PROBE_STEP = 1e-5
_VELOCITY_PROBE_RTOL = 1e-6


def _as_finite_vector(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError(f"{name} must be a 1-d vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PhaseState:
    """Point (q, p) of the original 2n-dimensional phase space."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = _as_finite_vector(self.q, "q")
        p = _as_finite_vector(self.p, "p")
        if q.size != p.size:
            raise InvalidInputError(
                f"q and p must have equal length, got {q.size} and {p.size}"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class ExtendedPhaseState:
    """Point (q, p, T, S) of the extended phase space; T is the time coordinate."""

    base: PhaseState
    T: float
    S: float

    def __post_init__(self):
        T = float(self.T)
        S = float(self.S)
        if not (np.isfinite(T) and np.isfinite(S)):
            raise InvalidInputError("T and S must be finite")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "S", S)

    @property
    def n(self) -> int:
        return self.base.n


@dataclass(frozen=True)
class HamiltonianSystem:
    """Autonomous system: energy H(q, p), its vector field and a label.

    `energy` takes stacked points, two (..., n) float arrays, and returns
    the (...) array of their energies.  `velocity` is the Hamiltonian
    vector field (q, p) -> (dH/dp, -dH/dq): on Python floats when n == 1,
    on length-n float arrays otherwise; the midpoint loop steps the same
    kind.  At construction the field is probe-checked against central
    differences of the energy, read in one stacked call; a mismatch, or an
    energy that cannot take the stack, raises InvalidInputError.
    """

    n: int
    energy: Callable[[np.ndarray, np.ndarray], np.ndarray]
    velocity: Callable
    label: str

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("dimension n must be >= 1")
        self._probe_velocity()

    def _probe_velocity(self):
        rng = np.random.default_rng(_VELOCITY_PROBE_SEED)
        h, n = _VELOCITY_PROBE_STEP, self.n
        x = rng.normal(size=(_VELOCITY_PROBE_POINTS, 2 * n))
        probes = _probe_points(x, h)  # (point, +h on each coordinate then -h, coordinate)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                energies = np.asarray(self.energy(probes[..., :n], probes[..., n:]), float)
                if energies.shape != probes.shape[:-1]:
                    raise ValueError(f"got shape {energies.shape}")
                grad = (energies[:, :2 * n] - energies[:, 2 * n:]) / (2 * h)
        except (TypeError, ValueError, IndexError) as exc:
            raise InvalidInputError(f"energy of '{self.label}' must map stacked (..., n) "
                                    f"points to (...) energies: {exc}") from exc
        if not np.all(np.isfinite(grad)):
            raise InvalidInputError(f"energy of '{self.label}' overflows the float range")
        grad_q, grad_p = grad[:, :n], grad[:, n:]
        for k in range(_VELOCITY_PROBE_POINTS):
            field = (self.velocity(float(x[k, 0]), float(x[k, 1])) if n == 1
                     else self.velocity(x[k, :n], x[k, n:]))
            vq, vp = (np.asarray(v, dtype=float).reshape(n) for v in field)
            for i in range(n):
                for name, v, fd in (("dq", vq[i], grad_p[k, i]), ("dp", vp[i], -grad_q[k, i])):
                    if abs(fd - v) > _VELOCITY_PROBE_RTOL * max(1.0, abs(fd)):
                        raise InvalidInputError(
                            f"velocity of '{self.label}' disagrees with finite differences "
                            f"of its energy ({name}_{i}/dt: {v} vs {fd})"
                        )

    def extended(self) -> "ExtendedSystem":
        return ExtendedSystem(self)


@dataclass(frozen=True)
class ExtendedSystem:
    """Extended Hamiltonian H_ex(q, p, T, S) = H(q, p) + S (unit scaling)."""

    inner: HamiltonianSystem

    def energy(self, y: ExtendedPhaseState) -> float:
        """H + S at y; an H past the float range raises InvalidInputError."""
        # the lift of (q, p) onto H + S = 0 checks the point and carries S = -H
        return y.S - extend_state(self.inner, y.base, y.T).S


def harmonic_oscillator(omega: float = 1.0) -> HamiltonianSystem:
    """H = p^2/2 + omega^2 q^2 / 2."""
    omega = float(omega)
    if not (omega > 0 and np.isfinite(omega)):
        raise InvalidInputError("omega must be positive and finite")
    w2 = omega * omega

    def energy(q, p):
        return 0.5 * p[..., 0] ** 2 + 0.5 * w2 * q[..., 0] ** 2

    def velocity(q, p):
        return p, -w2 * q

    return HamiltonianSystem(1, energy, velocity, f"harmonic(omega={omega})")


def free_particle() -> HamiltonianSystem:
    """H = p^2/2."""

    def energy(q, p):
        return 0.5 * p[..., 0] ** 2

    def velocity(q, p):
        return p, 0.0

    return HamiltonianSystem(1, energy, velocity, "free-particle")


def quartic_oscillator() -> HamiltonianSystem:
    """H = p^2/2 + q^4/4, the nonlinear stressor without a closed-form flow."""

    def energy(q, p):
        return 0.5 * p[..., 0] ** 2 + 0.25 * q[..., 0] ** 4

    def velocity(q, p):
        return p, -q * q * q

    return HamiltonianSystem(1, energy, velocity, "quartic")


def extend_state(system: HamiltonianSystem, x: PhaseState, t0: float) -> ExtendedPhaseState:
    """Lift (q, p) onto the constraint surface: T = t0 and S = -H(q, p).

    An energy that overflows the float range raises InvalidInputError.
    """
    if x.n != system.n:
        raise InvalidInputError(
            f"state dimension {x.n} does not match system dimension {system.n}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # numpy warns; checked below
        energy = float(system.energy(x.q, x.p))
    if not math.isfinite(energy):
        raise InvalidInputError(f"energy of '{system.label}' overflows the float range")
    return ExtendedPhaseState(base=x, T=float(t0), S=-energy)


def coordinate(name: str, index: int = 0):
    """Coordinate function of the flat extended point, for bracket evaluation.

    The point is the read-only row [q_1..q_n, p_1..p_n, T, S].  `name` is
    one of 'q', 'p', 'T', 'S'; `index` selects the component for 'q' and
    'p', and one outside [0, n) raises InvalidInputError on evaluation.
    """
    if name == "T":
        return lambda x: x[-2]
    if name == "S":
        return lambda x: x[-1]
    if name not in ("q", "p"):
        raise InvalidInputError(f"unknown coordinate {name!r}")
    block = 0 if name == "q" else 1

    def component(x):
        n = (x.size - 2) // 2
        if not 0 <= index < n:
            raise InvalidInputError(f"{name}_{index} is not a coordinate of a {n}-dof point")
        return x[block * n + index]

    return component


def _probe_points(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rows x + h_i e_i for every coordinate i, then x - h_i e_i, for each
    point x of the (B, dim) stack: a read-only (B, 2 dim, dim) array,
    checked for finiteness once.
    """
    dim = x.shape[1]
    probes = np.repeat(x[:, None], 2 * dim, axis=1)
    diag = np.arange(dim)
    with np.errstate(over="ignore", invalid="ignore"):  # the error raised below
        probes[:, diag, diag] += h
        probes[:, dim + diag, diag] -= h
    if not np.all(np.isfinite(probes)):
        raise InvalidInputError("bracket probe point contains non-finite entries")
    probes.setflags(write=False)
    return probes


def _central_differences(fun, probes: np.ndarray, h: np.ndarray) -> np.ndarray:
    dim = h.shape[1]
    values = np.array([fun(row) for row in probes.reshape(-1, dim)], float).reshape(-1, 2 * dim)
    grad = (values[:, :dim] - values[:, dim:]) / (2 * h)
    if not np.all(np.isfinite(grad)):
        raise NumericalFailureError("non-finite derivative in bracket evaluation")
    return grad


def poisson_bracket(f, g, y: ExtendedPhaseState | np.ndarray, rel_step: float = 1e-5):
    """{f, g} at y over all n+1 canonical pairs, including (T, S).

    f and g are functions of the flat point [q_1..q_n, p_1..p_n, T, S],
    giving a float, or equal-length sequences of them, giving the float
    array {f_k, g_k}.  y is an ExtendedPhaseState or a (B, 2n+2) array of
    flat points, which adds a leading B axis, bit-identical to B single
    calls.  Partial derivatives are central differences with step
    rel_step * max(1, |coordinate|) on one stack of 2(2n+2) probe rows per
    point, each distinct function read once per row.  A probe that leaves
    the finite range raises InvalidInputError.
    """
    scalar = callable(f) and callable(g)
    fs, gs = ((f,), (g,)) if scalar else (f, g)
    if callable(fs) or callable(gs) or len(fs) != len(gs) or len(fs) == 0:
        raise InvalidInputError("f and g must be two functions or two equal-length, "
                                "non-empty sequences of functions")
    single = isinstance(y, ExtendedPhaseState)
    x = np.concatenate([y.base.q, y.base.p, [y.T, y.S]])[None] if single else np.asarray(y, float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 4 or x.shape[1] % 2:
        raise InvalidInputError("bracket points must form a (B, 2n+2) array, B >= 1, n >= 1")
    n = x.shape[1] // 2 - 1
    h = rel_step * np.maximum(1.0, np.abs(x))
    probes = _probe_points(x, h)
    # T plays q_{n+1} and S plays p_{n+1}
    q_index = np.r_[0:n, 2 * n]
    p_index = np.r_[n:2 * n, 2 * n + 1]
    split = {}  # id(function) -> its partial derivatives as (d/dq, d/dp), (B, n+1) each
    for fun in itertools.chain.from_iterable(zip(fs, gs)):
        if id(fun) not in split:
            d = _central_differences(fun, probes, h)
            split[id(fun)] = (d[:, q_index], d[:, p_index])
    values = []
    for fk, gk in zip(fs, gs):
        (dfq, dfp), (dgq, dgp) = split[id(fk)], split[id(gk)]
        # B batched (1, n+1) @ (n+1, 1) products: numpy's dot kernel per point
        values.append((dfq[:, None] @ dgp[..., None] - dfp[:, None] @ dgq[..., None])[:, 0, 0])
    values = np.stack(values, axis=-1)  # (B, K)
    values = values[:, 0] if scalar else values
    return (float(values[0]) if scalar else values[0]) if single else values


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled trajectory; extended runs carry the (T, S) channels.

    `step` is the grid spacing, read off `params`.
    """

    params: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    Ts: np.ndarray | None = None
    Ss: np.ndarray | None = None
    step: float = field(init=False)

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        if params.ndim != 1 or params.size < 2:
            raise InvalidInputError("parameter grid must hold at least two points")
        diffs = np.diff(params)
        if np.any(diffs <= 0):
            raise InvalidInputError("parameter grid must be strictly increasing")
        h = diffs[0]
        if np.max(np.abs(diffs - h)) > 1e-12 * max(1.0, abs(h)):
            raise InvalidInputError("parameter grid must be uniform to 1e-12")
        for name in ("qs", "ps", "Ts", "Ss"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape[0] != params.size:
                raise InvalidInputError(f"{name} count does not match the grid")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        params = params.copy()
        params.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "step", float(h))

    @property
    def extended(self) -> bool:
        return self.Ts is not None

    @property
    def n(self) -> int:
        return self.qs.shape[1]

    def to_csv(self, path):
        """Write `param,q1..qn,p1..pn[,T,S]` rows at full double precision."""
        n = self.n
        header = ["param"] + [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
        cols = [self.params, *self.qs.T, *self.ps.T]
        if self.extended:
            header += ["T", "S"]
            cols += [self.Ts, self.Ss]
        write_csv(path, header, cols)


def _step_count(t_end: float, dt: float) -> int:
    """Number of uniform steps covering [0, t_end]: the nearest whole count.

    The final grid point lands within dt/2 of t_end; callers that need an
    exact endpoint should pick commensurate (t_end, dt).
    """
    if not (dt > 0 and np.isfinite(dt)):
        raise InvalidInputError("dt must be positive and finite")
    if not (t_end > 0 and np.isfinite(t_end)):
        raise InvalidInputError("t_end must be positive and finite")
    ratio = float(t_end) / float(dt)  # inf when the quotient overflows
    if not ratio <= MAX_CLASSICAL_STEPS:
        raise InvalidInputError(
            f"t_end/dt = {ratio:.6g} exceeds the budget of {MAX_CLASSICAL_STEPS} steps"
        )
    nsteps = round(ratio)
    if nsteps < 1:
        raise InvalidInputError("t_end must be at least half a step dt")
    return nsteps


def _midpoint(velocity, q, p, nsteps, dt, finite, sup):
    """Implicit-midpoint steps of (dq, dp)/dt = velocity(q, p) from (q, p).

    q and p are Python floats or arrays alike: `finite` tests one block of
    coordinates and `sup` is its sup-norm, the fixed-point gap.  From the
    third step on, the fixed-point iteration starts at the quadratic
    extrapolation through the last three grid points instead of at (q, p),
    which saves about two velocity calls per step (Hairer, Lubich & Wanner,
    Geometric Numerical Integration, VIII.6).  A sweep tests convergence
    first (a gap <= MIDPOINT_TOL implies finite iterates), then `finite`; a
    non-finite iterate, or a float field that raises OverflowError, is a
    divergence.  Returns the lists of q and p on the nsteps + 1 grid points.
    """
    qs = [q]
    ps = [p]
    try:
        for step in range(nsteps):
            if step >= 2:
                qa = 3 * (q - qs[-2]) + qs[-3]
                pa = 3 * (p - ps[-2]) + ps[-3]
            else:
                qa = q
                pa = p
            for _ in range(MIDPOINT_MAX_ITER):
                fq, fp = velocity(0.5 * (q + qa), 0.5 * (p + pa))
                qn = q + dt * fq
                pn = p + dt * fp
                if sup(qn - qa) <= MIDPOINT_TOL and sup(pn - pa) <= MIDPOINT_TOL:
                    break
                if not (finite(qn) and finite(pn)):
                    raise DivergenceError(f"non-finite state at step {step}", step=step)
                qa = qn
                pa = pn
            else:
                raise NumericalFailureError(
                    f"implicit-midpoint iteration stalled at step {step} "
                    f"(max {MIDPOINT_MAX_ITER} iterations)"
                )
            q = qn
            p = pn
            qs.append(q)
            ps.append(p)
    except OverflowError as exc:
        raise DivergenceError(f"float overflow at step {step}", step=step) from exc
    return qs, ps


def _all_finite(block):
    return bool(np.all(np.isfinite(block)))


def _sup(block):
    return np.max(np.abs(block))


def _run(system, q0, p0, nsteps, dt):
    """q and p as (nsteps + 1, n) arrays along the implicit-midpoint flow."""
    if system.n == 1:
        qs, ps = _midpoint(system.velocity, float(q0[0]), float(p0[0]), nsteps, dt,
                           math.isfinite, abs)
    else:
        qs, ps = _midpoint(system.velocity, q0, p0, nsteps, dt, _all_finite, _sup)
    shape = (nsteps + 1, system.n)
    return np.array(qs, dtype=float).reshape(shape), np.array(ps, dtype=float).reshape(shape)


def integrate_original(system: HamiltonianSystem, x0: PhaseState, t_end: float,
                       dt: float) -> Trajectory:
    """Flow of Hamilton's equations from t = 0 to t_end with step dt."""
    if x0.n != system.n:
        raise InvalidInputError("initial state dimension does not match the system")
    nsteps = _step_count(t_end, dt)
    qs, ps = _run(system, x0.q, x0.p, nsteps, dt)
    return Trajectory(params=dt * np.arange(nsteps + 1), qs=qs, ps=ps)


def integrate_extended(ext: ExtendedSystem, y0: ExtendedPhaseState, theta_end: float,
                       dtheta: float) -> Trajectory:
    """Flow of the extended canonical equations in the parameter theta."""
    system = ext.inner
    if y0.n != system.n:
        raise InvalidInputError("initial state dimension does not match the system")
    nsteps = _step_count(theta_end, dtheta)
    qs, ps = _run(system, y0.base.q, y0.base.p, nsteps, dtheta)
    # dT/dtheta = dH_ex/dS = 1 and dS/dtheta = -dH_ex/dT = 0 for autonomous
    # inner systems, so these channels step exactly: T accumulates dtheta.
    Ts = list(itertools.accumulate(itertools.repeat(dtheta, nsteps), initial=y0.T))
    return Trajectory(
        params=dtheta * np.arange(nsteps + 1),
        qs=qs,
        ps=ps,
        Ts=np.array(Ts),
        Ss=np.full(nsteps + 1, y0.S),
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """How far an extended trajectory is from reproducing the original one.

    max_state_deviation  largest (q, p) 2-norm gap over the grid
    max_time_mismatch    largest |T(theta_k) - t_k|
    max_slope_residual   largest |T(theta_k) - T(0) - theta_k|
    max_constraint_residual  largest |H + S| = |H_ex| along the extended run
    """

    max_state_deviation: float
    max_time_mismatch: float
    max_slope_residual: float
    max_constraint_residual: float


def check_equivalence(orig: Trajectory, ext: Trajectory,
                      system: HamiltonianSystem) -> EquivalenceReport:
    """Compare an original-flow trajectory with an extended-flow one.

    Both trajectories must share the parameter grid (same length and step);
    `system` supplies the energy of the constraint channel, in one call.
    """
    if ext.Ts is None or ext.Ss is None:
        raise InvalidInputError("second trajectory must carry the (T, S) channels")
    if orig.Ts is not None:
        raise InvalidInputError("first trajectory must be an original-flow run")
    if orig.params.size != ext.params.size:
        raise InvalidInputError("parameter grids differ in length")
    if abs(orig.step - ext.step) > 1e-12 * max(1.0, abs(orig.step)):
        raise InvalidInputError("parameter grids differ in step size")
    if orig.n != ext.n:
        raise InvalidInputError("trajectories have different phase-space dimension")

    dev = np.sqrt(
        np.sum((orig.qs - ext.qs) ** 2, axis=1) + np.sum((orig.ps - ext.ps) ** 2, axis=1)
    )
    energies = system.energy(ext.qs, ext.ps)
    slope_residual = ext.Ts - ext.Ts[0] - ext.params
    return EquivalenceReport(
        max_state_deviation=float(np.max(dev)),
        max_time_mismatch=float(np.max(np.abs(ext.Ts - orig.params))),
        max_slope_residual=float(np.max(np.abs(slope_residual))),
        max_constraint_residual=float(np.max(np.abs(ext.Ss + energies))),
    )
