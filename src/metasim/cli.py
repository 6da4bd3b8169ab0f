"""Command-line interface.

Subcommands:

- ``metasim run <scenario.json> [--out DIR] [--log-scale]``
- ``metasim sweep <sweep.json> [--out DIR] [--jobs N]``
- ``metasim catalog [--emit DIR]``
- ``metasim lambda0 <scenario.json>``

Exit codes: 0 success, 2 configuration or validation error,
3 integration blowup, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace
from functools import cache

from .errors import (
    ConfigurationError,
    IntegrationBlowupError,
    InvalidStateError,
    NoRootError,
    NotLinearError,
)
from .runner import _json_text, _write_atomic, malthus_exponent, run_scenario, run_sweep
from .scenarios import catalog, load_scenario, load_sweep, scenario_to_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4


# built once per process: parse_args leaves the parser as it was, and a
# parser is a reference cycle the size of its actions
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metasim",
        description="Simulator for metastatic populations under shared "
        "angiogenesis inhibition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its artifacts")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", default=".", metavar="DIR", help="output directory")
    p_run.add_argument(
        "--log-scale",
        action="store_true",
        help="plot burden and count on a log axis",
    )

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("sweep", help="path to a sweep JSON file")
    p_sweep.add_argument("--out", default=".", metavar="DIR", help="output directory")
    p_sweep.add_argument(
        "--jobs", type=int, default=None, metavar="N", help="worker process count"
    )

    p_cat = sub.add_parser("catalog", help="list or emit the built-in scenarios")
    p_cat.add_argument(
        "--emit",
        default=None,
        metavar="DIR",
        help="write each catalog scenario as a JSON file into DIR",
    )

    p_lam = sub.add_parser(
        "lambda0",
        help="print the growth exponent of the uncoupled model (e = 0)",
    )
    p_lam.add_argument("scenario", help="path to a scenario JSON file")

    return parser


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    sc = replace(sc, log_scale=sc.log_scale or args.log_scale)
    result = run_scenario(sc, out_dir=args.out)
    for path in result.files:
        print(path)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    sw = load_sweep(args.sweep)
    rows = run_sweep(sw, out_dir=args.out, jobs=args.jobs)
    print(os.path.join(args.out, "summary.csv"))
    failures = [row for row in rows if row["error"] is not None]
    for row in failures:
        print(f"{sw.point_label(row['value'])} failed: {row['error']}", file=sys.stderr)
    if rows and len(failures) == len(rows):
        return EXIT_BLOWUP
    return EXIT_OK


def _cmd_catalog(args) -> int:
    scenarios = catalog()
    if args.emit is None:
        for sc in scenarios:
            print(sc.name)
        return EXIT_OK
    os.makedirs(args.emit, exist_ok=True)
    for sc in scenarios:
        path = os.path.join(args.emit, f"{sc.name}.json")
        _write_atomic(path, _json_text(scenario_to_dict(sc)))
        print(path)
    return EXIT_OK


def _cmd_lambda0(args) -> int:
    sc = load_scenario(args.scenario)
    result = malthus_exponent(sc.params)
    sys.stdout.write(_json_text({"name": sc.name, **asdict(result)}))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "catalog": _cmd_catalog,
        "lambda0": _cmd_lambda0,
    }
    try:
        return handlers[args.command](args)
    except (ConfigurationError, InvalidStateError, NotLinearError, NoRootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
