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

_GRADIENT_PROBE_SEED = 172
_GRADIENT_PROBE_POINTS = 4
_GRADIENT_PROBE_STEP = 1e-5
_GRADIENT_PROBE_RTOL = 1e-6


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
    """Autonomous system: energy H(q, p) and its gradient, plus a label.

    The gradient is probe-checked against central differences of the energy
    at construction; a mismatch raises InvalidInputError.  `velocity` is the
    optional Hamiltonian vector field (q, p) -> (dH/dp, -dH/dq) of a one-dof
    system on Python floats, probe-checked against `gradient`; the built-in
    systems set it, and the midpoint loop steps floats through it instead
    of arrays through `gradient`.
    """

    n: int
    energy: Callable[[np.ndarray, np.ndarray], float]
    gradient: Callable[[np.ndarray, np.ndarray], tuple]
    label: str
    velocity: Callable[[float, float], tuple] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("dimension n must be >= 1")
        if self.velocity is not None and self.n != 1:
            raise InvalidInputError("a float velocity field needs a one-dof system")
        self._probe_gradient()

    def _probe_gradient(self):
        rng = np.random.default_rng(_GRADIENT_PROBE_SEED)
        h = _GRADIENT_PROBE_STEP
        for _ in range(_GRADIENT_PROBE_POINTS):
            q = rng.normal(size=self.n)
            p = rng.normal(size=self.n)
            gq, gp = self.gradient(q, p)
            gq = np.asarray(gq, dtype=float)
            gp = np.asarray(gp, dtype=float)
            if self.velocity is not None:
                vq, vp = self.velocity(float(q[0]), float(p[0]))
                if (abs(vq - gp[0]) > _GRADIENT_PROBE_RTOL * max(1.0, abs(gp[0]))
                        or abs(vp + gq[0]) > _GRADIENT_PROBE_RTOL * max(1.0, abs(gq[0]))):
                    raise InvalidInputError(
                        f"velocity of '{self.label}' disagrees with its gradient "
                        f"({(vq, vp)} vs {(gp[0], -gq[0])})"
                    )
            for i in range(self.n):
                for arr, grad in ((q, gq), (p, gp)):
                    shift = np.zeros(self.n)
                    shift[i] = h
                    if arr is q:
                        fd = (self.energy(q + shift, p) - self.energy(q - shift, p)) / (2 * h)
                    else:
                        fd = (self.energy(q, p + shift) - self.energy(q, p - shift)) / (2 * h)
                    if abs(fd - grad[i]) > _GRADIENT_PROBE_RTOL * max(1.0, abs(fd)):
                        raise InvalidInputError(
                            f"gradient of '{self.label}' disagrees with finite "
                            f"differences (coordinate {i}: {grad[i]} vs {fd})"
                        )

    def extended(self) -> "ExtendedSystem":
        return ExtendedSystem(self)


@dataclass(frozen=True)
class ExtendedSystem:
    """Extended Hamiltonian H_ex(q, p, T, S) = H(q, p) + S (unit scaling)."""

    inner: HamiltonianSystem

    def energy(self, y: ExtendedPhaseState) -> float:
        if y.n != self.inner.n:
            raise InvalidInputError(
                f"state dimension {y.n} does not match system dimension {self.inner.n}"
            )
        return float(self.inner.energy(y.base.q, y.base.p)) + y.S


def harmonic_oscillator(omega: float = 1.0) -> HamiltonianSystem:
    """H = p^2/2 + omega^2 q^2 / 2."""
    omega = float(omega)
    if not (omega > 0 and np.isfinite(omega)):
        raise InvalidInputError("omega must be positive and finite")
    w2 = omega * omega

    def energy(q, p):
        return 0.5 * float(p[0]) ** 2 + 0.5 * w2 * float(q[0]) ** 2

    def gradient(q, p):
        return np.array([w2 * q[0]]), np.array([p[0]])

    def velocity(q, p):
        return p, -w2 * q

    return HamiltonianSystem(1, energy, gradient, f"harmonic(omega={omega})", velocity)


def free_particle() -> HamiltonianSystem:
    """H = p^2/2."""

    def energy(q, p):
        return 0.5 * float(p[0]) ** 2

    def gradient(q, p):
        return np.array([0.0]), np.array([p[0]])

    def velocity(q, p):
        return p, 0.0

    return HamiltonianSystem(1, energy, gradient, "free-particle", velocity)


def quartic_oscillator() -> HamiltonianSystem:
    """H = p^2/2 + q^4/4, the nonlinear stressor without a closed-form flow."""

    def energy(q, p):
        return 0.5 * float(p[0]) ** 2 + 0.25 * float(q[0]) ** 4

    def gradient(q, p):
        return np.array([q[0] ** 3]), np.array([p[0]])

    def velocity(q, p):
        return p, -q * q * q

    return HamiltonianSystem(1, energy, gradient, "quartic", velocity)


def extend_state(system: HamiltonianSystem, x: PhaseState, t0: float) -> ExtendedPhaseState:
    """Lift (q, p) onto the constraint surface: T = t0 and S = -H(q, p)."""
    if x.n != system.n:
        raise InvalidInputError(
            f"state dimension {x.n} does not match system dimension {system.n}"
        )
    return ExtendedPhaseState(base=x, T=float(t0), S=-float(system.energy(x.q, x.p)))


def coordinate(name: str, index: int = 0):
    """Coordinate function on the extended phase space, for bracket evaluation.

    `name` is one of 'q', 'p', 'T', 'S'; `index` selects the component for
    'q' and 'p'.
    """
    if name == "q":
        return lambda y: float(y.base.q[index])
    if name == "p":
        return lambda y: float(y.base.p[index])
    if name == "T":
        return lambda y: y.T
    if name == "S":
        return lambda y: y.S
    raise InvalidInputError(f"unknown coordinate {name!r}")


def _trusted(cls, **fields):
    """Instance of a frozen state class whose fields are already validated."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _probe_states(x: np.ndarray, h: np.ndarray, n: int) -> list:
    """States at x + h_i e_i for every coordinate i, then at x - h_i e_i.

    All probes are rows of one read-only array, checked for finiteness
    once; each state views its row instead of re-validating a copy.
    """
    dim = x.size
    probes = np.tile(x, (2 * dim, 1))
    diag = np.arange(dim)
    with np.errstate(over="ignore"):  # an overflow is the error raised below
        probes[diag, diag] += h
        probes[dim + diag, diag] -= h
    if not np.all(np.isfinite(probes)):
        raise InvalidInputError("bracket probe state contains non-finite entries")
    probes.setflags(write=False)
    return [
        _trusted(ExtendedPhaseState,
                 base=_trusted(PhaseState, q=row[:n], p=row[n:2 * n]), T=T, S=S)
        for row, T, S in zip(probes, probes[:, 2 * n].tolist(), probes[:, 2 * n + 1].tolist())
    ]


def _central_differences(fun, states: list, h: np.ndarray) -> np.ndarray:
    values = np.array([fun(state) for state in states], dtype=float)
    grad = (values[:h.size] - values[h.size:]) / (2 * h)
    if not np.all(np.isfinite(grad)):
        raise NumericalFailureError("non-finite derivative in bracket evaluation")
    return grad


def poisson_bracket(f, g, y: ExtendedPhaseState, rel_step: float = 1e-5):
    """{f, g} at y over all n+1 canonical pairs, including (T, S).

    f and g are functions of an extended state, giving a float, or
    equal-length sequences of them, giving the float array {f_k, g_k}.
    Partial derivatives are central differences with step
    rel_step * max(1, |coordinate|) on one set of 2(2n+2) probe states,
    where each distinct function is read once.  A probe that leaves the
    finite range raises InvalidInputError.
    """
    scalar = callable(f) and callable(g)
    fs, gs = ((f,), (g,)) if scalar else (f, g)
    if callable(fs) or callable(gs) or len(fs) != len(gs) or len(fs) == 0:
        raise InvalidInputError("f and g must be two functions or two equal-length, "
                                "non-empty sequences of functions")
    n = y.n
    x = np.concatenate([y.base.q, y.base.p, [y.T], [y.S]])
    h = rel_step * np.maximum(1.0, np.abs(x))
    states = _probe_states(x, h, n)
    split = {}  # id(function) -> its gradient as (d/dq, d/dp)
    for fun in itertools.chain.from_iterable(zip(fs, gs)):
        if id(fun) not in split:
            d = _central_differences(fun, states, h)
            # layout: [q_1..q_n, p_1..p_n, T, S]; T plays q_{n+1}, S plays p_{n+1}
            split[id(fun)] = (np.concatenate([d[:n], [d[2 * n]]]),
                              np.concatenate([d[n:2 * n], [d[2 * n + 1]]]))
    values = []
    for fk, gk in zip(fs, gs):
        (dfq, dfp), (dgq, dgp) = split[id(fk)], split[id(gk)]
        values.append(float(np.dot(dfq, dgp) - np.dot(dfp, dgq)))
    return values[0] if scalar else np.array(values)


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
    Geometric Numerical Integration, VIII.6).  Returns the lists of q and
    of p on the nsteps + 1 grid points.
    """
    qs = [q]
    ps = [p]
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
            if not (finite(qn) and finite(pn)):
                raise DivergenceError(f"non-finite state at step {step}", step=step)
            delta = max(sup(qn - qa), sup(pn - pa))
            qa = qn
            pa = pn
            if delta <= MIDPOINT_TOL:
                break
        else:
            raise NumericalFailureError(
                f"implicit-midpoint iteration stalled at step {step} "
                f"(max {MIDPOINT_MAX_ITER} iterations)"
            )
        q = qa
        p = pa
        qs.append(q)
        ps.append(p)
    return qs, ps


def _all_finite(block):
    return bool(np.all(np.isfinite(block)))


def _sup(block):
    return np.max(np.abs(block))


def _run(system, q0, p0, nsteps, dt):
    """q and p as (nsteps + 1, n) arrays along the implicit-midpoint flow."""
    if system.velocity is not None:
        qs, ps = _midpoint(system.velocity, float(q0[0]), float(p0[0]), nsteps, dt,
                           math.isfinite, abs)
    else:
        def velocity(q, p):
            gq, gp = system.gradient(q, p)
            return np.asarray(gp, dtype=float), -np.asarray(gq, dtype=float)

        qs, ps = _midpoint(velocity, q0, p0, nsteps, dt, _all_finite, _sup)
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
    `system` supplies the energy for the constraint channel.
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
    energies = np.array([system.energy(ext.qs[k], ext.ps[k]) for k in range(ext.params.size)])
    slope_residual = ext.Ts - ext.Ts[0] - ext.params
    return EquivalenceReport(
        max_state_deviation=float(np.max(dev)),
        max_time_mismatch=float(np.max(np.abs(ext.Ts - orig.params))),
        max_slope_residual=float(np.max(np.abs(slope_residual))),
        max_constraint_residual=float(np.max(np.abs(ext.Ss + energies))),
    )
