"""Command-line experiment runner.

Verbs: ``run`` executes a config file and writes CSV + JSON artifacts,
``validate`` checks a config without computing anything, and
``list-experiments`` prints the available kinds.  Exit codes: 0 success,
1 runtime failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import sys

from .runners import run_experiment
from .spec import ConfigError, describe_kinds, load_spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsmhp",
        description="Run seeded estimator and tracking experiments from a config file.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run an experiment config")
    run_parser.add_argument("config", help="path to the experiment config file")
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the master seed (unsigned 64-bit integer)",
    )
    run_parser.add_argument(
        "--out", default=None, help="override the output directory"
    )
    run_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for a study's replications or episodes, capped at "
        "the task count (never changes results)",
    )

    validate_parser = commands.add_parser(
        "validate", help="check a config file without running it"
    )
    validate_parser.add_argument("config", help="path to the experiment config file")

    commands.add_parser("list-experiments", help="list available experiment kinds")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-experiments":
            for name, description in describe_kinds():
                print(f"{name:20s} {description}")
            return 0

        spec = load_spec(args.config)
        if args.command == "validate":
            print(f"ok: {spec.kind.value} (seed {spec.master_seed}) -> {spec.output}")
            return 0

        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        spec = spec.with_overrides(master_seed=args.seed, output=args.out)
        metadata = run_experiment(spec, workers=args.workers)
        print(f"{spec.kind.value}: wrote {len(metadata['files'])} data file(s) to {spec.output}")
        for name in metadata["files"]:
            print(f"  {name}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
