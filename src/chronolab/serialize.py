"""JSON containers for operators/states and CSV emitters for plot data.

Complex arrays travel as row-major [re, im] pairs together with shape,
basis-ordering tag, the sign convention and the clock-grid metadata.
Round-trips preserve full double precision (floats are serialized via
repr), though bit-exactness across platforms is not promised.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "array_to_container",
    "container_to_array",
    "save_operator",
    "load_operator",
    "subspace_to_container",
    "write_csv",
    "write_distribution_csv",
    "write_defect_sweep_csv",
]

ORDERING = "system-major"


def _grid_metadata(clock) -> dict:
    return {"M": clock.M, "deltaT": clock.deltaT, "T0": clock.T0}


def array_to_container(arr, sigma=None, grid=None, ordering=ORDERING) -> dict:
    """Pack a complex array into the JSON container."""
    arr = np.asarray(arr, dtype=complex)
    flat = arr.ravel(order="C")
    return {
        "shape": list(arr.shape),
        "entries": np.stack((flat.real, flat.imag), axis=1).tolist(),
        "ordering": ordering,
        "sigma": sigma,
        "grid": grid,
    }


def container_to_array(doc: dict) -> np.ndarray:
    """Unpack the JSON container back into a complex array."""
    try:
        shape = tuple(doc["shape"])
        entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed operator container: {exc}") from exc
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    if flat.size != int(np.prod(shape)):
        raise InvalidInputError("entry count does not match the declared shape")
    return flat.reshape(shape)


def save_operator(path, arr, clock=None, sigma=None):
    grid = _grid_metadata(clock) if clock is not None else None
    if sigma is None and clock is not None:
        sigma = clock.sigma
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(array_to_container(arr, sigma=sigma, grid=grid), fh, sort_keys=True)


def load_operator(path) -> tuple[np.ndarray, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    arr = container_to_array(doc)
    meta = {k: doc.get(k) for k in ("ordering", "sigma", "grid")}
    return arr, meta


def subspace_to_container(sub) -> dict:
    """Physical subspace: basis container plus the matched-pair table."""
    clock = sub.space.clock
    return {
        "basis": array_to_container(sub.basis, sigma=clock.sigma,
                                    grid=_grid_metadata(clock)),
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
