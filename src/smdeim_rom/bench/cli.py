"""Command line entry point.

    smdeim-rom <simulate|offline|online|sweep> --config <path>
               [--out <dir>] [--seed <u64>] [--jobs <count>]

simulate runs the full-order model and persists snapshots; offline builds
reduced-model artifacts; online integrates them and reports metrics; sweep
does all of it across the configured grid.  --out and --seed override the
run.out and run.seed settings of the config file.
"""

import argparse
import sys

from ..io import FormatError
from .config import ConfigError, parse_config, with_overrides
from .runner import (
    MissingArtifactError,
    cmd_offline,
    cmd_online,
    cmd_simulate,
    cmd_sweep,
)

_COMMANDS = {
    "simulate": cmd_simulate,
    "offline": cmd_offline,
    "online": cmd_online,
    "sweep": cmd_sweep,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smdeim-rom",
        description="Reduced-order-model benchmark driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "run the full-order model and persist snapshots",
        "offline": "build reduced-model artifacts from snapshots",
        "online": "integrate persisted reduced models and report metrics",
        "sweep": "full campaign over the configured grid",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=None, help="output directory (overrides run.out)")
        p.add_argument("--seed", type=int, default=None,
                       help="single seed (overrides run.seed)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes for grid points")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(args.config)
        cfg = with_overrides(cfg, out_dir=args.out, seed=args.seed)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, jobs=args.jobs)
    except (MissingArtifactError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
