import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolab import InvalidInputError, build_clock, build_extended, build_system_space
from chronolab import separable_state, snap_energies, solve_constraint_kernel
from chronolab import solve_constraint_spectral
from chronolab.serialize import (
    array_to_container,
    subspace_to_container,
    write_defect_sweep_csv,
    write_distribution_csv,
)


def decode(doc):
    """The container's entries as the complex array they were packed from."""
    pairs = np.array(doc["entries"], dtype=float).reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(doc["shape"])


def rebuild(doc):
    """The basis from a subspace container's factors, as
    `solve_constraint_spectral` builds it: one product per pair."""
    factors = decode(doc["system_factors"])
    grid = doc["system_factors"]["grid"]
    clock = build_clock(grid["M"], grid["deltaT"], grid["T0"], doc["system_factors"]["sigma"])
    ks = np.array([pair["k"] for pair in doc["pairs"]], dtype=int)
    return separable_state(factors.T, clock.plane_wave(ks)).T


def rebuild_plain(doc):
    """The same basis by the documented formula in plain numpy:
    basis[i * M + m, a] = F[i, a] * exp(2 pi i k_a m / M) / sqrt(M)."""
    factors = decode(doc["system_factors"])
    M = doc["system_factors"]["grid"]["M"]
    ks = np.array([pair["k"] for pair in doc["pairs"]], dtype=int)
    waves = np.exp(2j * np.pi * ks[:, None] * np.arange(M) / M) / np.sqrt(M)
    products = factors.T[:, :, None] * waves[:, None, :]  # (d, n_levels, M)
    return products.reshape(ks.size, factors.shape[0] * M).T


def test_container_roundtrip_preserves_doubles():
    rng = np.random.default_rng(131)
    arr = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    arr[0, 0] = 1e-300 + 1j * np.pi
    back = decode(array_to_container(arr))
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)  # bit-exact through repr floats


def test_container_entries_match_the_per_element_loop_byte_for_byte():
    def loop_container(arr):  # the reference: one float pair per element
        arr = np.asarray(arr, dtype=complex)
        doc = array_to_container(arr)
        doc["entries"] = [[float(z.real), float(z.imag)] for z in arr.ravel(order="C")]
        return doc

    rng = np.random.default_rng(137)
    arr = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    tiny = np.nextafter(0.0, 1.0)
    arr[0] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(tiny, -tiny),
              complex(2.5e-310, 1e-320)]  # signed zeros and subnormals
    arr[1, :2] = [complex(1.7976931348623157e308, -1e-300), complex(1 / 3, -2 / 3)]
    for case in (arr, arr.T, arr[:, 0].real, np.zeros((0, 3)), np.complex128(1j)):
        assert (json.dumps(array_to_container(case))
                == json.dumps(loop_container(case)))


def test_container_roundtrip_through_json_text():
    rng = np.random.default_rng(133)
    arr = rng.normal(size=7) + 1j * rng.normal(size=7)
    doc = json.loads(json.dumps(array_to_container(arr)))
    assert np.array_equal(decode(doc), arr)


def test_subspace_container_contents():
    clock = build_clock(16, 0.5)
    system = build_system_space(np.diag([0.0, 4 * clock.freq_step]))
    ext = build_extended(system, clock)
    sub = solve_constraint_spectral(ext)
    doc = subspace_to_container(sub)
    assert doc["d"] == 2
    assert doc["method"] == "spectral"
    assert [p["i"] for p in doc["pairs"]] == [0, 1]
    assert [p["k"] for p in doc["pairs"]] == [0, -4]
    for pair in doc["pairs"]:
        assert pair["mismatch"] < 1e-12
        assert pair["s_k"] == pytest.approx(-pair["E_i"], abs=1e-12)
    assert "basis" not in doc
    factors = doc["system_factors"]
    assert factors["shape"] == [2, 2]
    assert factors["sigma"] == 1
    assert factors["grid"] == {"M": 16, "deltaT": 0.5, "T0": 0.0}
    assert np.array_equal(decode(factors), sub.space.system.vectors[:, [0, 1]])
    assert np.array_equal(rebuild(doc), sub.basis)
    assert np.array_equal(rebuild_plain(doc), sub.basis)
    json.dumps(doc)  # must be serializable as-is


def test_kernel_subspace_is_not_written():
    clock = build_clock(16, 0.5)
    ext = build_extended(build_system_space(np.diag([0.0, 4 * clock.freq_step])), clock)
    with pytest.raises(InvalidInputError, match="kernel"):
        subspace_to_container(solve_constraint_kernel(ext))


@pytest.mark.parametrize("M", [16, 1024])
def test_subspace_container_size_does_not_grow_with_the_clock(M):
    system = build_system_space(np.diag([0.0, 0.1, 2.0]))
    sub = solve_constraint_spectral(build_extended(system, build_clock(M, 0.5)))
    assert sub.d == 3
    factors = subspace_to_container(sub)["system_factors"]
    assert factors["shape"] == [3, 3]
    assert len(factors["entries"]) == 3 * 3  # n_levels * d, whatever M


def test_empty_subspace_writes_no_factor_columns():
    clock = build_clock(16, 0.5)
    sub = solve_constraint_spectral(build_extended(
        build_system_space(np.diag([0.3, 0.7])), clock), 0.01)
    assert sub.d == 0
    doc = json.loads(json.dumps(subspace_to_container(sub)))
    assert doc["system_factors"]["shape"] == [2, 0]
    assert doc["system_factors"]["entries"] == []
    assert [miss["i"] for miss in doc["misses"]] == [0, 1]
    assert rebuild(doc).shape == sub.basis.shape == (32, 0)


@st.composite
def spectral_subspaces(draw):
    """Diagonal systems off the grid by less than half a step, and snapped
    random-hermitian ones, under either sign, on M in {8, 16, 64, 1024};
    a narrow eps_match leaves levels unmatched, a wide one matches a level
    more than once."""
    M = draw(st.sampled_from([8, 16, 64, 1024]))
    clock = build_clock(M, draw(st.sampled_from([0.25, 1.0, 3.0])),
                        sigma=draw(st.sampled_from([1, -1])))
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(-M // 2, M // 2 - 1), min_size=n, max_size=n))
        offsets = draw(st.lists(st.floats(-0.45, 0.45), min_size=n, max_size=n))
        system = build_system_space(np.diag(clock.freq_step * (np.array(ks) + offsets)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        system, _ = snap_energies(build_system_space(0.5 * (raw + raw.conj().T)), clock)
    eps = draw(st.sampled_from([None, 0.3, 1.2]))
    return solve_constraint_spectral(build_extended(system, clock),
                                     eps and eps * clock.freq_step)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(spectral_subspaces())
def test_subspace_container_rebuilds_the_basis_bit_for_bit(sub):
    doc = json.loads(json.dumps(subspace_to_container(sub), sort_keys=True))
    assert doc["d"] == sub.d
    assert doc["system_factors"]["shape"] == [sub.space.system.n_levels, sub.d]
    assert np.array_equal(rebuild(doc), sub.basis)
    assert np.array_equal(rebuild_plain(doc), sub.basis)


def test_distribution_csv(tmp_path):
    path = tmp_path / "dist.csv"
    times = np.array([0.0, 0.5, 1.0])
    probs = np.array([0.25, 0.5, 0.25])
    write_distribution_csv(path, times, probs)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,T_m,p_m"
    assert len(lines) == 4
    assert lines[1].startswith("0,0,")


def test_distribution_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_distribution_csv(path, np.array([]), np.array([]))
    assert path.read_text() == "m,T_m,p_m\n"


def test_distribution_csv_length_mismatch(tmp_path):
    with pytest.raises(InvalidInputError):
        write_distribution_csv(tmp_path / "x.csv", np.array([1.0]), np.array([]))


def test_defect_sweep_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    write_defect_sweep_csv(path, [(16, 1e-3, 2e-2), (32, 5e-4, 1e-2)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "M,orthogonality_defect,idempotency_defect"
    assert len(lines) == 3


def per_row_distribution_csv(path, times, probabilities):
    """The per-row writer the shared `%.17g` rule replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("m,T_m,p_m\n")
        for m, (t, p) in enumerate(zip(times, probabilities)):
            fh.write(f"{m},{t:.17g},{p:.17g}\n")


def per_row_defect_sweep_csv(path, rows):
    """The per-row writer the shared `%.17g` rule replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("M,orthogonality_defect,idempotency_defect\n")
        for M, orth, idem in rows:
            fh.write(f"{M},{orth:.17g},{idem:.17g}\n")


EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1 / 3,
                        -1.7976931348623157e308, np.inf, -np.inf, np.nan, 1e17, 2.0 ** 53])


@pytest.mark.parametrize("size", [0, 1, 5, EDGE_VALUES.size])
def test_distribution_csv_matches_per_row_writer_byte_for_byte(tmp_path, size):
    times = EDGE_VALUES[:size]
    probabilities = EDGE_VALUES[::-1][:size]
    write_distribution_csv(tmp_path / "shared.csv", times, probabilities)
    per_row_distribution_csv(tmp_path / "per_row.csv", times, probabilities)
    shared = (tmp_path / "shared.csv").read_bytes()
    assert shared == (tmp_path / "per_row.csv").read_bytes()
    if size == EDGE_VALUES.size:
        for text in (b"-0,", b",4.9406564584124654e-324", b"inf", b"-inf", b"nan"):
            assert text in shared


@pytest.mark.parametrize("rows", [
    [],
    [(16, 1e-3, 2e-2), (32, 5e-4, 1e-2)],
    [(8, -0.0, 5e-324), (np.int64(64), np.inf, np.nan), (1024, 1e-310, -np.inf)],
])
def test_defect_sweep_csv_matches_per_row_writer_byte_for_byte(tmp_path, rows):
    write_defect_sweep_csv(tmp_path / "shared.csv", rows)
    per_row_defect_sweep_csv(tmp_path / "per_row.csv", rows)
    assert ((tmp_path / "shared.csv").read_bytes()
            == (tmp_path / "per_row.csv").read_bytes())
