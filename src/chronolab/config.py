"""Scenario configuration: a flat dotted-key document, strictly parsed.

Grammar: one `key = value` per line; `#` starts a comment; blank lines are
ignored.  Values are booleans (true/false), integers, floats, names, or
comma-separated float lists.  Unknown keys are rejected, and every problem
in a document is reported at once.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, is_dataclass

from .classical import MAX_CLASSICAL_STEPS
from .errors import ConfigError

__all__ = [
    "SystemConfig",
    "ClockConfig",
    "ToleranceConfig",
    "ClassicalConfig",
    "ConstraintConfig",
    "ScenarioConfig",
    "parse_config",
    "serialize_config",
    "SUITE_NAMES",
]

SUITE_NAMES = (
    "classical-equivalence",
    "quantum-equivalence",
    "constraint-solve",
    "povm-audit",
    "time-distribution",
    "covariance",
)

SYSTEM_KINDS = (
    "oscillator",
    "qubit",
    "free-particle",
    "quartic",
    "random-hermitian",
    "explicit-matrix",
)

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class SystemConfig:
    kind: str = "qubit"
    n_levels: int = 2
    omega: float = 1.0
    energies: tuple[float, ...] = ()
    snap: bool = False


@dataclass(frozen=True)
class ClockConfig:
    M: int = 64
    deltaT: float = 0.25
    T0: float = 0.0
    sigma: int = 1


@dataclass(frozen=True)
class ToleranceConfig:
    eps_match: float = 0.0  # 0 means "use the default half frequency spacing"
    constraint_drift: float = 1e-10


@dataclass(frozen=True)
class ClassicalConfig:
    dt: float = 1e-3
    t_end: float = TWO_PI
    q0: tuple[float, ...] = (1.0,)
    p0: tuple[float, ...] = (0.0,)


@dataclass(frozen=True)
class ConstraintConfig:
    expected_dim: int = -1  # -1 means "no expectation recorded"
    expect_misses: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "unnamed"
    suites: tuple[str, ...] = ()
    seed: int = 0
    compare_sigmas: bool = False
    system: SystemConfig = field(default_factory=SystemConfig)
    clock: ClockConfig = field(default_factory=ClockConfig)
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    classical: ClassicalConfig = field(default_factory=ClassicalConfig)
    constraint: ConstraintConfig = field(default_factory=ConstraintConfig)


def _parse_bool(text):
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_float_list(text):
    return tuple(_parse_float(part.strip()) for part in text.split(",") if part.strip())


def _parse_name_list(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# field type -> the parser of its values
_PARSERS = {str: str, int: int, float: _parse_float, bool: _parse_bool,
            tuple[float, ...]: _parse_float_list, tuple[str, ...]: _parse_name_list}

_SECTIONS = {name: hint for name, hint in typing.get_type_hints(ScenarioConfig).items()
             if is_dataclass(hint)}


def _key_table() -> dict:
    """key -> (section, field, parser), in field declaration order (the order
    of `serialize_config`): a top-level field is its own key, a field of a
    section is `section.field`.  A field type with no parser fails here."""
    table = {}
    for top, hint in typing.get_type_hints(ScenarioConfig).items():
        section = top if top in _SECTIONS else None
        for name, field_type in (typing.get_type_hints(hint).items() if section
                                 else [(top, hint)]):
            key = f"{section}.{name}" if section else name
            if field_type not in _PARSERS:
                raise TypeError(f"config key {key!r} has a type with no parser: {field_type!r}")
            table[key] = (section, name, _PARSERS[field_type])
    return table


_KEYS = _key_table()  # built at import, so a field without a parser fails there


def _validate(cfg: ScenarioConfig, problems: list):
    sys_c, clk, tol, cla = cfg.system, cfg.clock, cfg.tolerances, cfg.classical
    # the name is the stem of every artifact file written under --out
    if (cfg.scenario in ("", ".", "..")
            or any(ch in cfg.scenario for ch in ("/", "\\", "\0"))):
        problems.append("scenario must be a file-name stem: non-empty, not '.' or '..', "
                        f"without '/', '\\' or NUL; got {cfg.scenario!r}")
    if sys_c.kind not in SYSTEM_KINDS:
        problems.append(
            f"system.kind must be one of {', '.join(SYSTEM_KINDS)}; got {sys_c.kind!r}"
        )
    if sys_c.n_levels < 1:
        problems.append("system.n_levels must be >= 1")
    if not sys_c.omega > 0:
        problems.append("system.omega must be positive")
    if clk.M % 2 != 0 or not 8 <= clk.M <= 1024:
        problems.append(f"clock.M must be even and within [8, 1024]; got {clk.M}")
    if not clk.deltaT > 0:
        problems.append("clock.deltaT must be positive")
    if clk.sigma not in (1, -1):
        problems.append(f"clock.sigma must be 1 or -1; got {clk.sigma}")
    if tol.eps_match < 0:
        problems.append("tolerances.eps_match must be >= 0")
    if not tol.constraint_drift > 0:
        problems.append("tolerances.constraint_drift must be positive")
    if not cla.dt > 0:
        problems.append("classical.dt must be positive")
    if not cla.t_end > 0:
        problems.append("classical.t_end must be positive")
    elif cla.dt > 0:
        steps = float(cla.t_end) / float(cla.dt)  # inf when the quotient overflows
        if not steps <= MAX_CLASSICAL_STEPS:
            problems.append(f"classical.t_end / classical.dt must be at most "
                            f"{MAX_CLASSICAL_STEPS} steps; got {steps:.6g}")
    if len(cla.q0) != len(cla.p0):
        problems.append("classical.q0 and classical.p0 must have equal length")
    if not cla.q0:
        problems.append("classical.q0 must hold at least one value")
    if cfg.seed < 0:
        problems.append("seed must be >= 0")
    for suite in cfg.suites:
        if suite not in SUITE_NAMES:
            problems.append(
                f"unknown suite {suite!r}; valid: {', '.join(SUITE_NAMES)}"
            )
    if cfg.constraint.expected_dim < -1:
        problems.append("constraint.expected_dim must be >= 0 (or omitted)")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document.

    Raises ConfigError carrying every syntax and semantic problem found, not
    just the first one.
    """
    problems: list[str] = []
    top: dict = {}
    sections: dict = {name: {} for name in _SECTIONS}
    seen: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        section, attr, parser = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            problems.append(f"line {lineno}: bad value for {key!r}: {exc}")
            continue
        if section is None:
            top[attr] = parsed
        else:
            sections[section][attr] = parsed

    # build from whatever parsed so semantic problems surface alongside
    # the syntactic ones; bad-value keys fell back to their defaults above
    cfg = ScenarioConfig(
        **top,
        **{name: cls(**sections[name]) for name, cls in _SECTIONS.items()},
    )
    _validate(cfg, problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) == parse(text)."""
    lines = []
    for key, (section, attr, _) in _KEYS.items():
        holder = cfg if section is None else getattr(cfg, section)
        value = getattr(holder, attr)
        lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"

