import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolab import (
    ExtendedPhaseState,
    HamiltonianSystem,
    InvalidInputError,
    NumericalFailureError,
    PhaseState,
    coordinate,
    free_particle,
    harmonic_oscillator,
    poisson_bracket,
    quartic_oscillator,
)

SYSTEMS = (harmonic_oscillator(), free_particle(), quartic_oscillator())


def random_point(rng, n=1):
    return ExtendedPhaseState(
        base=PhaseState(q=rng.normal(size=n), p=rng.normal(size=n)),
        T=rng.normal(),
        S=rng.normal(),
    )


def test_canonical_table_on_random_points():
    rng = np.random.default_rng(42)
    f_T, f_S = coordinate("T"), coordinate("S")
    f_q, f_p = coordinate("q"), coordinate("p")
    table = (
        (f_T, f_S, 1.0),
        (f_T, f_q, 0.0),
        (f_T, f_p, 0.0),
        (f_S, f_q, 0.0),
        (f_S, f_p, 0.0),
    )
    for _ in range(100):
        y = random_point(rng)
        for f, g, expected in table:
            assert abs(poisson_bracket(f, g, y) - expected) < 1e-8


def test_qp_pair_is_canonical():
    rng = np.random.default_rng(3)
    y = random_point(rng)
    assert abs(poisson_bracket(coordinate("q"), coordinate("p"), y) - 1.0) < 1e-8


def extended_hamiltonian(system):
    """H_ex = H(q, p) + S as a function of the flat point [q, p, T, S]."""
    n = system.n
    return lambda x: float(system.energy(x[:n], x[n:2 * n])) + x[-1]


def test_antisymmetry_and_self_bracket():
    rng = np.random.default_rng(5)
    h_ex = extended_hamiltonian(quartic_oscillator())
    for _ in range(10):
        y = random_point(rng)
        ab = poisson_bracket(h_ex, coordinate("T"), y)
        ba = poisson_bracket(coordinate("T"), h_ex, y)
        assert abs(ab + ba) < 1e-7
        assert abs(poisson_bracket(h_ex, h_ex, y)) < 1e-7


def test_time_generates_unit_rate():
    # {T, H_ex} = dH_ex/dS = 1: the time coordinate advances at unit rate.
    rng = np.random.default_rng(11)
    for system in SYSTEMS:
        h_ex = extended_hamiltonian(system)
        for _ in range(10):
            y = random_point(rng)
            assert abs(poisson_bracket(coordinate("T"), h_ex, y) - 1.0) < 1e-6


def test_multidim_bracket_pairs():
    rng = np.random.default_rng(8)
    y = random_point(rng, n=2)
    assert abs(poisson_bracket(coordinate("q", 0), coordinate("p", 0), y) - 1.0) < 1e-8
    assert abs(poisson_bracket(coordinate("q", 0), coordinate("p", 1), y)) < 1e-8
    assert abs(poisson_bracket(coordinate("q", 1), coordinate("p", 1), y) - 1.0) < 1e-8


def test_non_finite_derivative_raises():
    y = ExtendedPhaseState(base=PhaseState(q=[1.0], p=[1.0]), T=0.0, S=0.0)

    def exploding(x):
        return float(np.inf) if x[-2] > 0 else 0.0

    with pytest.raises(NumericalFailureError):
        poisson_bracket(exploding, coordinate("S"), y)


def reference_bracket(f, g, y, rel_step=1e-5):
    """The per-probe bracket: one checked copy of the flat point per probe."""
    n = y.n
    x = np.concatenate([y.base.q, y.base.p, [y.T], [y.S]])

    def partials(fun):
        grad = np.empty(x.size)
        for i in range(x.size):
            h = rel_step * max(1.0, abs(x[i]))
            plus = x.copy()
            minus = x.copy()
            plus[i] += h
            minus[i] -= h
            if not (np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))):
                raise InvalidInputError("bracket probe point contains non-finite entries")
            grad[i] = (fun(plus) - fun(minus)) / (2 * h)
        if not np.all(np.isfinite(grad)):
            raise NumericalFailureError("non-finite derivative in bracket evaluation")
        return grad

    df = partials(f)
    dg = partials(g)
    dfq = np.concatenate([df[:n], [df[2 * n]]])
    dfp = np.concatenate([df[n:2 * n], [df[2 * n + 1]]])
    dgq = np.concatenate([dg[:n], [dg[2 * n]]])
    dgp = np.concatenate([dg[n:2 * n], [dg[2 * n + 1]]])
    return float(np.dot(dfq, dgp) - np.dot(dfp, dgq))


def anharmonic_system(n):
    def energy(q, p):
        qq = np.sum(q * q, axis=-1)
        return 0.5 * np.sum(p * p, axis=-1) + 0.5 * qq + 0.25 * qq ** 2

    def velocity(q, p):
        return p.copy(), -q * (1.0 + float(q @ q))

    return HamiltonianSystem(n, energy, velocity, f"anharmonic-{n}d")


PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, max_examples=150)
coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def draw_point_and_functions(draw):
    """An extended point y and a drawer of functions on its phase space:
    coordinates, or H_ex of one of the systems of y's dimension."""
    n = draw(st.sampled_from((1, 2, 3)))
    y = ExtendedPhaseState(
        base=PhaseState(q=draw(st.lists(coords, min_size=n, max_size=n)),
                        p=draw(st.lists(coords, min_size=n, max_size=n))),
        T=draw(coords),
        S=draw(coords),
    )
    names = st.sampled_from(("q", "p", "T", "S", "H_ex"))
    systems = SYSTEMS if n == 1 else (anharmonic_system(n),)
    system = draw(st.sampled_from(systems))

    def function():
        name = draw(names)
        if name == "H_ex":
            return extended_hamiltonian(system)
        return coordinate(name, draw(st.integers(0, n - 1)))

    return y, function


@st.composite
def bracket_cases(draw):
    y, function = draw_point_and_functions(draw)
    return function(), function(), y


@st.composite
def bracket_pair_lists(draw):
    # pairs drawn from a pool of 1-4 function objects, so a list can repeat
    # a function, a pair, or put one function on both sides
    y, function = draw_point_and_functions(draw)
    pool = [function() for _ in range(draw(st.integers(1, 4)))]
    pair = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    return draw(st.lists(pair, min_size=1, max_size=6)), y


@PROPERTY_SETTINGS
@given(bracket_cases())
def test_bracket_matches_per_probe_reference_bit_for_bit(case):
    f, g, y = case
    value = poisson_bracket(f, g, y)
    assert np.array(value).tobytes() == np.array(reference_bracket(f, g, y)).tobytes()


@PROPERTY_SETTINGS
@given(bracket_pair_lists())
def test_sequence_form_matches_scalar_calls_bit_for_bit(case):
    pairs, y = case
    fs, gs = (list(side) for side in zip(*pairs))
    values = poisson_bracket(fs, gs, y)
    assert values.dtype == float and values.shape == (len(pairs),)
    scalars = np.array([poisson_bracket(f, g, y) for f, g in pairs])
    assert values.tobytes() == scalars.tobytes()


def test_each_function_is_read_once_per_call():
    seen = []

    def record(x):
        seen.append(x)
        return x[-2] * x[-1] + x[1]

    y = ExtendedPhaseState(base=PhaseState(q=[0.5, -1.0], p=[2.0, 0.0]), T=1.0, S=-2.0)
    dim = 2 * y.n + 2
    f_q = coordinate("q", 1)
    for f, g in ((record, f_q), (record, record), ([record], [record]),
                 ([record, f_q, record, record], [f_q, record, record, f_q])):
        seen.clear()
        poisson_bracket(f, g, y)
        assert len(seen) == 2 * dim


def test_sequence_form_rejects_mismatched_or_empty_sequences():
    y = ExtendedPhaseState(base=PhaseState(q=[0.5], p=[2.0]), T=1.0, S=-2.0)
    f_T, f_S = coordinate("T"), coordinate("S")
    for f, g in (([f_T, f_T], [f_S]), ([], []), ((), ()), (f_T, [f_S]), ([f_T], f_S)):
        with pytest.raises(InvalidInputError):
            poisson_bracket(f, g, y)


def test_scalar_form_returns_a_python_float():
    y = ExtendedPhaseState(base=PhaseState(q=[0.5], p=[2.0]), T=1.0, S=-2.0)
    value = poisson_bracket(coordinate("T"), coordinate("S"), y)
    assert type(value) is float
    assert abs(value - 1.0) < 1e-8


def test_probe_states_are_read_only():
    seen = []

    def record(x):
        seen.append(x)
        return x[-2]

    y = ExtendedPhaseState(base=PhaseState(q=[0.5, -1.0], p=[2.0, 0.0]), T=1.0, S=-2.0)
    poisson_bracket(record, coordinate("S"), y)
    assert len(seen) == 2 * (2 * y.n + 2)
    for x in seen:
        assert x.shape == (2 * y.n + 2,) and not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0


def test_out_of_range_coordinate_raises_invalid_input():
    y = ExtendedPhaseState(base=PhaseState(q=[0.5], p=[2.0]), T=1.0, S=-2.0)
    for name in ("q", "p"):
        for index in (1, -1):
            with pytest.raises(InvalidInputError):
                poisson_bracket(coordinate(name, index), coordinate("T"), y)
    with pytest.raises(InvalidInputError):
        coordinate("x")


@pytest.mark.parametrize("q, rel_step", [(1.7e308, 0.1), (np.finfo(float).max, 1e-5)])
def test_overflowing_probe_raises_invalid_input(q, rel_step):
    y = ExtendedPhaseState(base=PhaseState(q=[q], p=[0.0]), T=0.0, S=0.0)
    f, g = coordinate("q"), coordinate("p")
    with np.errstate(over="ignore"), pytest.raises(InvalidInputError):
        reference_bracket(f, g, y, rel_step)
    with pytest.raises(InvalidInputError):
        poisson_bracket(f, g, y, rel_step)


def as_state(x):
    n = (x.size - 2) // 2
    return ExtendedPhaseState(base=PhaseState(q=x[:n], p=x[n:2 * n]), T=x[-2], S=x[-1])


@st.composite
def stacked_bracket_cases(draw):
    """B flat points of one dimension n in {1, 2, 3}, and 1-4 pairs of
    functions: coordinates, or the nonlinear H_ex of an anharmonic system."""
    n = draw(st.sampled_from((1, 2, 3)))
    B = draw(st.integers(1, 5))
    dim = 2 * n + 2
    points = np.array(draw(st.lists(coords, min_size=B * dim, max_size=B * dim)))
    h_ex = extended_hamiltonian(quartic_oscillator() if n == 1 else anharmonic_system(n))

    def function():
        name = draw(st.sampled_from(("q", "p", "T", "S", "H_ex")))
        return h_ex if name == "H_ex" else coordinate(name, draw(st.integers(0, n - 1)))

    pairs = [(function(), function()) for _ in range(draw(st.integers(1, 4)))]
    return pairs, points.reshape(B, dim)


@PROPERTY_SETTINGS
@given(stacked_bracket_cases())
def test_stacked_points_match_single_point_calls_bit_for_bit(case):
    pairs, points = case
    states = [as_state(x) for x in points]
    f, g = pairs[0]
    values = poisson_bracket(f, g, points)
    assert values.shape == (len(points),)
    assert values.tobytes() == np.array([poisson_bracket(f, g, y) for y in states]).tobytes()
    fs, gs = (list(side) for side in zip(*pairs))
    table = poisson_bracket(fs, gs, points)
    assert table.shape == (len(points), len(pairs))
    assert table.tobytes() == np.array([poisson_bracket(fs, gs, y) for y in states]).tobytes()


def test_stacked_points_read_each_function_once_per_probe_row():
    seen = []

    def record(x):
        seen.append(x)
        return x[-2] * x[-1] + x[1]

    points = np.random.default_rng(13).normal(size=(7, 6))
    poisson_bracket([record, record], [coordinate("q", 1), record], points)
    assert len(seen) == 7 * 2 * 6
    assert all(x.shape == (6,) and not x.flags.writeable for x in seen)


@pytest.mark.parametrize("points", [
    np.zeros(4), np.zeros((0, 4)), np.zeros((2, 2)), np.zeros((2, 5)), np.zeros((1, 2, 4)),
], ids=["one-point-1d", "no-points", "no-dof", "odd-width", "three-axes"])
def test_stacked_form_rejects_malformed_point_arrays(points):
    with pytest.raises(InvalidInputError):
        poisson_bracket(coordinate("T"), coordinate("S"), points)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_stacked_form_rejects_a_non_finite_point(bad):
    points = np.zeros((3, 4))
    points[1, 2] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        poisson_bracket(coordinate("T"), coordinate("S"), points)
