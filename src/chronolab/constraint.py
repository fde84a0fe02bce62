"""Physical subspace: the (approximate) kernel of the extended generator.

Two independent routes extract it.  The spectral route matches system
energies against the clock frequency grid (E_i + sigma w_k = 0) and emits
product vectors; the kernel route eigendecomposes the assembled H_ex (one
eigh per exactly decoupled block of its zero pattern, see
ExtendedSpace.eigensystem) and keeps the near-null eigenvectors.  On
commensurate spectra the two must agree, which is the main cross-method
oracle of the test suite.

An exact kernel exists only when the energies sit on the grid, so
commensurability is a first-class scenario parameter here: spectra are
either snapped onto the grid (`snap_energies`, reported) or run unsnapped
to exercise the empty-kernel diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NoPhysicalStatesError
from .quantum import (ExtendedSpace, SystemSpace, _eigenbasis_apply, _hex_apply,
                      _kron_sums, clock_marginal, evolve_extended, separable_state, unit)

__all__ = [
    "MatchedPair",
    "MissDiagnostic",
    "PhysicalSubspace",
    "PhysicalState",
    "StationarityReport",
    "solve_constraint_spectral",
    "solve_constraint_kernel",
    "snap_energies",
    "make_physical_state",
    "stationarity_check",
    "principal_angles",
    "constraint_residual",
]


class MatchedPair(NamedTuple):
    """Level i paired with integer clock frequency k; s_value is the S_op
    eigenvalue of the matched mode (-sigma E_i up to `mismatch`)."""

    i: int
    k: int
    energy: float
    s_value: float
    mismatch: float


class MissDiagnostic(NamedTuple):
    """Unmatched level with its nearest grid frequency and the gap."""

    i: int
    energy: float
    nearest_k: int
    distance: float


@dataclass(frozen=True)
class PhysicalSubspace:
    """Orthonormal basis of the near-kernel of H_ex with its pair labels."""

    space: ExtendedSpace
    basis: np.ndarray  # (n_levels * M, d), columns orthonormal
    pairs: tuple
    eps: float
    misses: tuple
    method: str

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def d(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class PhysicalState:
    """Unit-norm combination of the matched-pair basis states."""

    subspace: PhysicalSubspace
    coeffs: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        for name in ("coeffs", "vector"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def default_eps_match(ext: ExtendedSpace) -> float:
    """Half the clock frequency spacing: the largest tolerance that still
    assigns each energy to at most its nearest grid frequency."""
    return np.pi / (ext.clock.M * ext.clock.deltaT)


def _match_levels(ext: ExtendedSpace, eps: float):
    """Pair each energy with the grid frequencies solving E_i + sigma w_k = 0.

    All candidates within eps are kept; an exact distance tie at the minimum
    resolves to the lower frequency index, so the default eps (half spacing)
    never double-matches a level.
    """
    omega = ext.clock.frequencies
    k_values = np.arange(-ext.clock.M // 2, ext.clock.M // 2)
    pairs = []
    misses = []
    for i, (energy, sums) in enumerate(zip(ext.system.energies, _kron_sums(ext))):
        dist = np.abs(sums)
        nearest = int(np.argmin(dist))  # the first of tied minima: the lowest index
        selected = np.flatnonzero((dist <= eps) & ((dist > dist[nearest])
                                                   | (k_values == k_values[nearest])))
        if selected.size == 0:
            misses.append(MissDiagnostic(i=i, energy=float(energy),
                                         nearest_k=int(k_values[nearest]),
                                         distance=float(dist[nearest])))
            continue
        for j in selected:
            pairs.append(MatchedPair(i=i, k=int(k_values[j]), energy=float(energy),
                                     s_value=float(omega[j]), mismatch=float(dist[j])))
    return pairs, misses


def solve_constraint_spectral(ext: ExtendedSpace, eps_match: float | None = None) -> PhysicalSubspace:
    """Physical subspace from spectral matching of the two factor spectra.

    Basis vectors are the products |E_i> (x) |w_k> for every matched pair,
    orthonormal by construction.  An empty result is not an error; the
    `misses` table then lists the nearest missed frequency per level.
    """
    eps = default_eps_match(ext) if eps_match is None else float(eps_match)
    if not (eps > 0 and np.isfinite(eps)):
        raise InvalidInputError("eps_match must be positive and finite")
    pairs, misses = _match_levels(ext, eps)
    levels = [pair.i for pair in pairs]
    waves = ext.clock.plane_wave(np.array([pair.k for pair in pairs], dtype=int))
    # one product state per pair, a row each; the basis holds them as columns
    basis = np.ascontiguousarray(separable_state(ext.system.vectors[:, levels].T, waves).T)
    return PhysicalSubspace(space=ext, basis=basis, pairs=tuple(pairs), eps=eps,
                            misses=tuple(misses), method="spectral")


def solve_constraint_kernel(ext: ExtendedSpace, eps_eig: float | None = None) -> PhysicalSubspace:
    """Physical subspace as the near-null eigenspace of the assembled H_ex.

    Independent of the spectral route: the span comes from the dense
    eigendecomposition.  Pair labels and miss diagnostics are attached with
    the same matching rule, as metadata only.
    """
    eps = default_eps_match(ext) if eps_eig is None else float(eps_eig)
    if not (eps > 0 and np.isfinite(eps)):
        raise InvalidInputError("eps_eig must be positive and finite")
    # each block's near-null eigenvectors on its own rows: orthonormal as they stand
    kept = [(rows, vectors[:, np.abs(values) <= eps])
            for rows, values, vectors in ext.eigensystem()]
    ends = np.cumsum([vectors.shape[1] for _, vectors in kept])
    basis = np.zeros((ext.dim, ends[-1]), dtype=complex)
    for (rows, vectors), end in zip(kept, ends):
        basis[rows, end - vectors.shape[1]:end] = vectors
    pairs, misses = _match_levels(ext, eps)
    return PhysicalSubspace(space=ext, basis=basis, pairs=tuple(pairs), eps=eps,
                            misses=tuple(misses), method="kernel")


def snap_energies(system: SystemSpace, clock) -> tuple[SystemSpace, tuple]:
    """Snap each energy onto the representable set {-sigma w_k}, read from
    `clock.frequencies`, so a snapped level matches its frequency exactly.

    Returns the snapped SystemSpace and the per-level shifts
    (i, old energy, snapped energy); callers are expected to report them.
    A snap moves eigenvalues only: the snapped space keeps the eigenvectors
    and takes the snapped values as its energies, with no second eigh.
    The snap is monotone, so the snapped energies ascend, ties in level order.
    """
    sigma = clock.sigma
    step = clock.freq_step
    k_lo, k_hi = -clock.M // 2, clock.M // 2 - 1
    shifts = []
    energies = np.empty_like(system.energies)
    for i, energy in enumerate(system.energies.tolist()):
        # clipped before rounding: a ratio past the float range is inf
        k = round(min(max(-sigma * energy / step, k_lo), k_hi))
        snapped = -sigma * clock.frequencies[k - k_lo] + 0.0  # + 0.0: no -0.0 level
        energies[i] = snapped
        shifts.append((i, float(energy), float(snapped)))
    # rows of the identity give (V diag V^dag)^T, symmetrised as build_system_space does
    H = _eigenbasis_apply(system.vectors, energies, np.eye(system.n_levels)).T
    H = 0.5 * H + 0.5 * H.conj().T
    for arr in (H, energies):
        arr.setflags(write=False)
    return SystemSpace(matrix=H, energies=energies, vectors=system.vectors), tuple(shifts)


def make_physical_state(sub: PhysicalSubspace, coeffs) -> PhysicalState:
    """Normalized combination sum_a c_a |E_a> (x) |w_a> of the pair basis."""
    if sub.d == 0:
        raise NoPhysicalStatesError("the physical subspace is empty")
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (sub.d,):
        raise InvalidInputError(f"need {sub.d} coefficients, got shape {c.shape}")
    c = unit(c)
    return PhysicalState(subspace=sub, coeffs=c, vector=sub.basis @ c)


def constraint_residual(ext: ExtendedSpace, vec) -> float:
    """||H_ex v|| for a unit vector; zero on the exact kernel."""
    return float(np.linalg.norm(_hex_apply(ext, np.asarray(vec, dtype=complex))))


@dataclass(frozen=True)
class StationarityReport:
    thetas: tuple
    fidelities: tuple

    @property
    def min_fidelity(self) -> float:
        return min(self.fidelities)


def stationarity_check(ext: ExtendedSpace, phys: PhysicalState, thetas) -> StationarityReport:
    """Survival overlap |<psi| U(theta) |psi>| for each theta.

    Exact-kernel states are frozen (fidelity 1 up to a global phase); a
    residual r degrades the short-time overlap by at most (r theta)^2 / 2.
    """
    thetas = tuple(float(t) for t in thetas)
    evolved = evolve_extended(ext, phys.vector, np.array(thetas))
    fids = np.abs(evolved @ phys.vector.conj())
    return StationarityReport(thetas=thetas, fidelities=tuple(map(float, fids)))


def principal_angles(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of two orthonormal bases.

    Small angles come from the sine-based residual (arccos of a cosine near 1
    cannot resolve below ~1e-8), large ones from the cosine singular values.
    """
    A = np.asarray(basis_a, dtype=complex)
    B = np.asarray(basis_b, dtype=complex)
    overlap = A.conj().T @ B
    cosines = np.linalg.svd(overlap, compute_uv=False)  # descending
    sines = np.sort(np.linalg.svd(B - A @ overlap, compute_uv=False))  # ascending
    angles = np.empty(min(len(cosines), len(sines)))
    for k in range(angles.size):
        if sines[k] ** 2 < 0.5:
            angles[k] = np.arcsin(np.clip(sines[k], -1.0, 1.0))
        else:
            angles[k] = np.arccos(np.clip(cosines[k], -1.0, 1.0))
    return angles


def physical_clock_marginal(phys: PhysicalState) -> np.ndarray:
    """Clock-bin distribution of a physical state (uniform for exact matches)."""
    return clock_marginal(phys.vector, phys.subspace.space.clock.M)
