"""Command-line driver for the audit scenarios.

Subcommands map to the audit suites plus `all`, which replays every bundled
scenario.  Exit codes: 0 all checks pass, 1 at least one check failed,
2 usage, configuration or invalid-input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import SUITE_NAMES, parse_config
from .errors import ChronolabError, ConfigError, InvalidInputError, NoPhysicalStatesError
from .scenarios import bundled_scenarios, run_scenario

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronolab",
        description="Audit runner for the clock-extended dynamics laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUITE_NAMES + ("all",):
        p = sub.add_parser(name, help=f"run the {name} suite"
                           if name != "all" else "run every bundled scenario")
        p.add_argument("--config", type=Path, default=None,
                       help="scenario config file"
                       + (" (optional extra scenario)" if name == "all" else ""))
        p.add_argument("--out", type=Path, default=None,
                       help="directory for reports and plot data")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="emit JSON reports only, or CSV plot data as well")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def _load_config(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _print_report(report):
    for rec in report.records:
        mark = "PASS" if rec.passed else "FAIL"
        threshold = "" if rec.threshold is None else f" {rec.comparator} {rec.threshold:g}"
        note = f"  [{rec.note}]" if rec.note else ""
        print(f"[{mark}] {rec.check_id}: {rec.value:.6g}{threshold}{note}")
    status = "OK" if report.passed else "FAILED"
    print(f"{status}: {report.scenario} "
          f"({sum(r.passed for r in report.records)}/{len(report.records)} checks)")


def _run_isolated(label: str, load, **options) -> int:
    """Load and run one scenario, print its report and return its exit code.

    An error is reported on stderr, under `label`, as this scenario's
    outcome; it does not stop the scenarios after it.
    """
    try:
        report = run_scenario(load(), **options)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {label}: {problem}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (InvalidInputError, NoPhysicalStatesError) as exc:
        print(f"invalid input: {label}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ChronolabError as exc:
        print(f"numerical failure: {label}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    _print_report(report)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    options = {"out_dir": args.out, "seed": args.seed,
               "formats": ("json",) if args.format == "json" else ("json", "csv")}

    if args.command == "all":
        runs = [(cfg.scenario, lambda cfg=cfg: cfg) for cfg in bundled_scenarios()]
    else:
        if args.config is None:
            parser.error(f"{args.command} requires --config")
        runs = []
        options["suites"] = (args.command,)
    if args.config is not None:
        runs.append((str(args.config), lambda: _load_config(args.config)))
    # the worst outcome over all scenarios sets the exit code
    return max([_run_isolated(label, load, **options) for label, load in runs])


if __name__ == "__main__":
    sys.exit(main())
