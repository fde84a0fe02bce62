import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolab import ConfigError, parse_config, serialize_config
from chronolab import config
from chronolab.classical import MAX_CLASSICAL_STEPS
from chronolab.config import (
    SUITE_NAMES,
    SYSTEM_KINDS,
    ClassicalConfig,
    ClockConfig,
    ConstraintConfig,
    ScenarioConfig,
    SystemConfig,
    ToleranceConfig,
)


MINIMAL = """
scenario = tiny
system.kind = qubit
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.scenario == "tiny"
    assert cfg.clock.M == 64
    assert cfg.clock.deltaT == 0.25
    assert cfg.clock.sigma == 1
    assert cfg.classical.t_end == pytest.approx(2 * math.pi)
    assert cfg.seed == 0
    assert cfg.tolerances.constraint_drift == 1e-10
    assert cfg.suites == ()


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("""
# leading comment
scenario = c  # trailing comment

system.kind = oscillator
""")
    assert cfg.scenario == "c"
    assert cfg.system.kind == "oscillator"


def test_odd_m_is_named_in_the_error():
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "clock.M = 63\n")
    assert any("clock.M" in p for p in info.value.problems)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "foo = 1\n")
    assert any("unknown key 'foo'" in p for p in info.value.problems)


def test_every_problem_is_reported_at_once():
    bad = """
scenario = broken
system.kind = qubit
clock.M = 63
clock.deltaT = -1.0
clock.sigma = 3
bogus = yes
"""
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    text = "\n".join(info.value.problems)
    assert "clock.M" in text
    assert "clock.deltaT" in text
    assert "clock.sigma" in text
    assert "bogus" in text
    assert len(info.value.problems) >= 4


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as info:
        parse_config("scenario = x\nsystem.kind qubit\n")
    assert any("line 2" in p for p in info.value.problems)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "scenario = again\n")
    assert any("duplicate" in p for p in info.value.problems)


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "clock.M = many\n")
    assert any("clock.M" in p and "line" in p for p in info.value.problems)


def test_float_lists():
    cfg = parse_config(MINIMAL + "classical.q0 = 1.0, 2.0\nclassical.p0 = 0.5, -0.5\n")
    assert cfg.classical.q0 == (1.0, 2.0)
    assert cfg.classical.p0 == (0.5, -0.5)
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "classical.q0 = 1.0, 2.0\n")  # p0 length differs


def test_suites_are_validated():
    cfg = parse_config(MINIMAL + "suites = povm-audit, covariance\n")
    assert cfg.suites == ("povm-audit", "covariance")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "suites = povm-audit, sightseeing\n")


def test_roundtrip_is_identity():
    text = MINIMAL + """
suites = constraint-solve, povm-audit
seed = 17
compare_sigmas = true
system.energies = 0.0, 3.141592653589793
system.snap = true
clock.M = 128
clock.deltaT = 0.125
tolerances.eps_match = 0.02454369260617026
classical.q0 = 0.25
classical.p0 = -1.5
constraint.expected_dim = 2
constraint.expect_misses = false
"""
    once = parse_config(text)
    twice = parse_config(serialize_config(once))
    assert once == twice
    assert serialize_config(once) == serialize_config(twice)


def test_serialized_keys_are_the_fields_in_declaration_order():
    # this order feeds every report's config_digest
    keys = [line.split(" = ")[0] for line in serialize_config(ScenarioConfig()).splitlines()]
    assert keys == [
        "scenario", "suites", "seed", "compare_sigmas",
        "system.kind", "system.n_levels", "system.omega", "system.energies", "system.snap",
        "clock.M", "clock.deltaT", "clock.T0", "clock.sigma",
        "tolerances.eps_match", "tolerances.constraint_drift",
        "classical.dt", "classical.t_end", "classical.q0", "classical.p0",
        "constraint.expected_dim", "constraint.expect_misses",
    ]


def test_a_field_type_without_a_parser_is_refused(monkeypatch):
    monkeypatch.delitem(config._PARSERS, float)
    with pytest.raises(TypeError, match="'system.omega' has a type with no parser"):
        config._key_table()


@pytest.mark.parametrize("name", ["", ".", "..", "sub/dir", "../escaped", "a\\b", "nul\0"])
def test_scenario_name_must_be_a_file_stem(name):
    with pytest.raises(ConfigError) as info:
        parse_config(f"scenario = {name}\nsystem.kind = qubit\n")
    assert any(p.startswith("scenario must be a file-name stem") for p in info.value.problems)


# --- properties ----------------------------------------------------------------

PROPERTY_SETTINGS = settings(deadline=None, derandomize=True)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def valid_configs(draw):
    n = draw(st.integers(1, 4))
    return ScenarioConfig(
        scenario=draw(st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_.-]{0,15}", fullmatch=True)
                      .filter(lambda name: name not in (".", ".."))),
        suites=tuple(draw(st.lists(st.sampled_from(SUITE_NAMES), unique=True))),
        seed=draw(st.integers(0, 2 ** 63)),
        compare_sigmas=draw(st.booleans()),
        system=SystemConfig(kind=draw(st.sampled_from(SYSTEM_KINDS)),
                            n_levels=draw(st.integers(1, 10 ** 6)),
                            omega=draw(positive),
                            energies=tuple(draw(st.lists(finite, max_size=5))),
                            snap=draw(st.booleans())),
        clock=ClockConfig(M=2 * draw(st.integers(4, 512)), deltaT=draw(positive),
                          T0=draw(finite), sigma=draw(st.sampled_from((1, -1)))),
        tolerances=ToleranceConfig(eps_match=draw(st.floats(min_value=0.0,
                                                            allow_infinity=False)),
                                   constraint_drift=draw(positive)),
        classical=ClassicalConfig(dt=(dt := draw(positive)),
                                  # at most half the step budget, whatever the rounding
                                  t_end=draw(st.floats(min_value=0.0, exclude_min=True,
                                                       max_value=dt * MAX_CLASSICAL_STEPS / 2,
                                                       allow_infinity=False)),
                                  q0=tuple(draw(st.lists(finite, min_size=n, max_size=n))),
                                  p0=tuple(draw(st.lists(finite, min_size=n, max_size=n)))),
        constraint=ConstraintConfig(expected_dim=draw(st.integers(-1, 10 ** 6)),
                                    expect_misses=draw(st.booleans())),
    )


@PROPERTY_SETTINGS
@given(valid_configs())
def test_serialize_then_parse_is_identity(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


KEYS = [line.split(" = ")[0] for line in serialize_config(ScenarioConfig()).splitlines()]

fuzz_lines = st.one_of(
    st.tuples(st.sampled_from(KEYS) | st.text(max_size=12), st.text(max_size=24))
    .map(" = ".join),
    st.text(max_size=32),
)


@PROPERTY_SETTINGS
@given(st.lists(fuzz_lines, max_size=12).map("\n".join))
def test_fuzzed_text_parses_or_raises_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass
