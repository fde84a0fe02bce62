"""JSON container for the physical subspace and CSV emitters for plot data.

Complex arrays travel as row-major [re, im] pairs together with shape,
basis-ordering tag, the sign convention and the clock-grid metadata.
Floats are serialized via repr, so the entries keep full double precision.

A spectral physical subspace is written by its factors, never as its dense
(n_levels * M, d) basis: the (n_levels, d) system factors, whose column a is
pair a's system eigenvector, and the pair table, whose k gives the clock
factor.  Column a of the basis is the product |E_i> (x) |w_k>, so

    basis[i * M + m, a] = F[i, a] * exp(2 pi i k_a m / M) / sqrt(M),

which rebuilds the basis bit-for-bit as `separable_state(F.T,
clock.plane_wave(ks)).T`, the expression `solve_constraint_spectral` uses.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "array_to_container",
    "subspace_to_container",
    "write_csv",
    "write_distribution_csv",
    "write_defect_sweep_csv",
]

ORDERING = "system-major"


def _grid_metadata(clock) -> dict:
    return {"M": clock.M, "deltaT": clock.deltaT, "T0": clock.T0}


def array_to_container(arr, sigma=None, grid=None) -> dict:
    """Pack a complex array into the JSON container."""
    arr = np.asarray(arr, dtype=complex)
    flat = arr.ravel(order="C")
    return {
        "shape": list(arr.shape),
        "entries": np.stack((flat.real, flat.imag), axis=1).tolist(),
        "ordering": ORDERING,
        "sigma": sigma,
        "grid": grid,
    }


def subspace_to_container(sub) -> dict:
    """Spectral physical subspace: its system factors plus the matched-pair
    table; a kernel-route basis is not a product, so it has no such form."""
    if sub.method != "spectral":
        raise InvalidInputError(
            f"only a spectral subspace is written by its factors, got method {sub.method!r}")
    clock = sub.space.clock
    levels = [pair.i for pair in sub.pairs]
    return {
        "system_factors": array_to_container(sub.space.system.vectors[:, levels],
                                             sigma=clock.sigma, grid=_grid_metadata(clock)),
        "pairs": [
            {"i": p.i, "k": p.k, "E_i": p.energy, "s_k": p.s_value,
             "mismatch": p.mismatch}
            for p in sub.pairs
        ],
        "misses": [
            {"i": m.i, "E_i": m.energy, "nearest_k": m.nearest_k,
             "distance": m.distance}
            for m in sub.misses
        ],
        "eps": sub.eps,
        "method": sub.method,
        "d": sub.d,
    }


def write_csv(path, header, columns):
    """Write the `header` line, then one row per index of the equal-length
    `columns`, one per header name.

    Every value is written as `%.17g`, which reads back as the same double
    and writes integers below 2**53 without a point.  All rows come from one
    `%` on the repeated row template, in one write.
    """
    values = np.column_stack(columns).ravel().tolist()
    row = ",".join(["%.17g"] * len(header)) + "\n"
    rows = (row * (len(values) // len(header))) % tuple(values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n" + rows)


def write_distribution_csv(path, times, probabilities):
    """Rows `m,T_m,p_m`; an empty distribution produces a header-only file."""
    times = np.asarray(times, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    if times.shape != probabilities.shape:
        raise InvalidInputError("times and probabilities must have equal length")
    write_csv(path, ["m", "T_m", "p_m"], [np.arange(times.size), times, probabilities])


def write_defect_sweep_csv(path, rows):
    """Rows `M,orthogonality_defect,idempotency_defect` for grid-size sweeps."""
    table = np.array(rows, dtype=float).reshape(-1, 3)
    write_csv(path, ["M", "orthogonality_defect", "idempotency_defect"], table.T)
