"""Command-line entry point.

Subcommands:
  analytic   print the critical seed size, bottleneck generation and
             assumption report for every sweep point of a config
  dichotomy  sweep simulations around the analytic critical seed size
  intervene  trigger interventions mid-run and compare prediction to outcome
  validate   run the built-in property battery
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness

__all__ = ["main"]


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True, help="path to a JSON config")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_config(parser)
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="output path base (overrides config)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker processes")


def _load(args: argparse.Namespace) -> harness.ExperimentConfig:
    """Parse the config file once, with ``--seed`` set on the dict as written."""
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if args.seed is not None and isinstance(raw, dict):  # load_config rejects a non-object
        raw = {**raw, "master_seed": args.seed}
    return harness.load_config(raw)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tmperc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser("analytic", help="print critical seed sizes")
    _add_config(p_analytic)  # it draws nothing and writes no file
    p_analytic.set_defaults(seed=None)

    p_dichotomy = sub.add_parser("dichotomy", help="run a dichotomy sweep")
    _add_common(p_dichotomy)

    p_intervene = sub.add_parser("intervene", help="run an intervention sweep")
    _add_common(p_intervene)

    p_validate = sub.add_parser("validate", help="run the property battery")
    p_validate.add_argument("--quick", action="store_true", help="smaller draw counts")

    args = parser.parse_args(argv)

    if args.command == "validate":
        from . import checks  # only the battery needs it

        failures = 0
        for name, ok, detail in checks.run_validation(quick=args.quick):
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
            failures += 0 if ok else 1
        return 1 if failures else 0

    config = _load(args)
    if args.command == "analytic":
        for row in harness.analytic_summary(config):
            print(json.dumps(row))
        return 0
    run = harness.run_dichotomy if args.command == "dichotomy" else harness.run_intervention
    table = run(config, jobs=args.jobs)
    for path in harness.emit(table, args.out or config.output or f"out/{config.name}"):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
