"""Command-line entry point: run pipeline stages over a run directory.

Exit status: 0 on success, 1 on validation/sequencing errors, 2 on data
errors inside a stage.
"""
from __future__ import annotations

import argparse
import sys

from .pipeline import (
    STAGE_ORDER,
    ConfigError,
    StageDataError,
    load_config,
    run_stage,
)

__all__ = ["build_parser", "main"]


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # a usage error is a validation error (exit 1), not argparse's exit 2,
        # which this program reserves for data errors
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="archive-rank",
        description="Rank web-archive documents from non-content evidence.",
    )
    parser.add_argument("stage", choices=STAGE_ORDER, help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--run-dir", required=True, help="directory holding stage artifacts")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, seed_override=args.seed)
        counts = run_stage(args.stage, cfg, args.run_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StageDataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"{args.stage}: ok {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
