#!/usr/bin/env python3
"""Run the multi-seed ordering benchmark: full model vs popularity,
graph-feature-free, and weak-signal-free variants on synthetic data, each
through the file pipeline in a temporary directory."""

import argparse
import json
import tempfile

import numpy as np

from audiorec.benchmark import run_ordering_benchmark, run_weak_signal_seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--out", help="optional JSON output path")
    args = parser.parse_args()

    seeds = list(range(args.seeds))
    with tempfile.TemporaryDirectory() as work:
        results = run_ordering_benchmark(seeds, work)
    print(f"{'seed':>4} {'warm':>5} {'popularity':>11} {'2T-only':>8} {'no-weak':>8} {'full':>7}")
    for r in results:
        d = r.hr_warm
        print(
            f"{r.seed:>4} {r.n_warm_users:>5} {d['popularity']:>11.3f} "
            f"{d['two_tower_only']:>8.3f} {d['no_weak_signals']:>8.3f} "
            f"{d['two_tower_hgnn']:>7.3f}"
        )
    full = [r.hr_warm["two_tower_hgnn"] for r in results]
    print(f"\nmean HR@10: full {np.mean(full):.3f}, "
          f"popularity {np.mean([r.hr_warm['popularity'] for r in results]):.3f}, "
          f"2T-only {np.mean([r.hr_warm['two_tower_only'] for r in results]):.3f}, "
          f"no-weak {np.mean([r.hr_warm['no_weak_signals'] for r in results]):.3f}")

    weak = run_weak_signal_seeds(seeds)
    # a skipped fit reads odds ratio 1, which is no estimate: leave it out
    for w in weak:
        if w["skipped_reason"] is not None:
            print(f"follow fit skipped on seed {w['seed']}: {w['skipped_reason']}")
    ors = [w["odds_ratio"] for w in weak if w["skipped_reason"] is None]
    if ors:
        print(
            f"follow odds ratios over {len(ors)} fitted seeds: min {min(ors):.2f}, "
            f"mean {np.mean(ors):.2f}, max {max(ors):.2f}"
        )

    if args.out:
        payload = {
            "ordering": [r.to_dict() for r in results],
            "weak_signals": weak,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
