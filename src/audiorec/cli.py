"""Command-line entry point: `rec <stage> --config <path> [--seed N] [--out DIR]`."""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import PipelineConfig, PipelineError, STAGES, run_stage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rec",
        description="Co-listening graph + two-tower recommendation pipeline",
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    for name in STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="out", help="artifact directory (default: out)")
        if name == "recommend":
            p.add_argument("--user", required=True, help="user id to recommend for")
            p.add_argument("--k", type=int, default=10, help="number of items")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = (
            PipelineConfig.load(args.config) if args.config else PipelineConfig()
        )
        if args.seed is not None:
            config = config.with_overrides({"seed": args.seed})
        if args.stage == "recommend":
            results = run_stage(
                "recommend", config, args.out, user=args.user, k=args.k
            )
            for item_id, score in results:
                print(json.dumps({"item_id": item_id, "score": score}))
        else:
            run_stage(args.stage, config, args.out)
    except (PipelineError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc), "stage": args.stage}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
