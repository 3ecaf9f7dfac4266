"""Command-line front end: bjlab <mode> --config <path> [--seed N] [--out <path>].

Exit codes: 0 when every predicted-true trial passes, 1 on a configuration
error, 2 on any unexplained failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import BjlabError, ConfigError
from .harness import MODES, parse_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bjlab",
        description="Orthogonality experiments on discretized vector-valued L^p spaces.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the config's seed")
    parser.add_argument("--out", default=argparse.SUPPRESS,
                        help="override the config's CSV output path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"bjlab: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, mode=args.mode)
        overrides = {key: value for key, value in vars(args).items()
                     if key in ("seed", "out")}
        report = run(dataclasses.replace(config, **overrides))
    except ConfigError as exc:
        print(f"bjlab: config error: {exc}", file=sys.stderr)
        return 1
    except (BjlabError, OSError) as exc:
        print(f"bjlab: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if report.summary["fail"] == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
