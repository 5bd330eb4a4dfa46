#!/usr/bin/env python3
"""Quality sweep: rerun `train-hgnn` through `evaluate` for several HGNN seeds
on one fixed split and graph, and write every model's warm-segment HR@k and
MRR per seed as JSON.

    PYTHONPATH=src python scripts/quality_sweep.py --out out/sweep --json sweep.json
    PYTHONPATH=src python scripts/quality_sweep.py --out out/sweep --against sweep.json

`synth`, `split` and `build-graph` run once at data seed 7; each HGNN seed
(1-8) then reruns the model stages, seeded with it, in a copy of those
artifacts. `--against FILE` prints every value that differs from an earlier
sweep's JSON (for example one made on the parent commit), then a count.
"""

import argparse
import json
import shutil
from pathlib import Path

from audiorec.pipeline import DAILY, PipelineConfig, run_stage

FIRST_MODEL_STAGE = DAILY.index("train-hgnn")
METRICS = ("hr_at_k", "mrr")
DATA_SEED = 7
SEEDS = range(1, 9)


def sweep(config: PipelineConfig, out: Path) -> dict:
    base = out / f"data-{DATA_SEED}"
    config.seed = DATA_SEED
    for stage in DAILY[:FIRST_MODEL_STAGE]:
        run_stage(stage, config, base)
    result = {"data_seed": DATA_SEED, "config_hash": config.hash(), "seeds": {}}
    for seed in SEEDS:
        run_dir = out / f"hgnn-{seed}"
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.copytree(base, run_dir)
        config.seed = seed
        for stage in DAILY[FIRST_MODEL_STAGE:]:
            report = run_stage(stage, config, run_dir)
        result["seeds"][str(seed)] = {
            model: {m: entry["warm"][m] for m in METRICS} if entry["warm"] else None
            for model, entry in report["models"].items()
        }
        print(json.dumps({"seed": seed, "warm": result["seeds"][str(seed)]}))
    return result


def differences(got: dict, want: dict) -> list[str]:
    """One line per (seed, model, metric) whose value differs or is missing on
    one side."""
    lines = []
    for seed in sorted(set(got["seeds"]) | set(want["seeds"]), key=int):
        g_models, w_models = got["seeds"].get(seed) or {}, want["seeds"].get(seed) or {}
        for model in sorted(set(g_models) | set(w_models)):
            g, w = g_models.get(model) or {}, w_models.get(model) or {}
            for m in METRICS:
                if g.get(m) != w.get(m):
                    lines.append(f"seed {seed} {model} {m}: {w.get(m)} -> {g.get(m)}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="out/quality_sweep", help="artifact directory")
    parser.add_argument("--config", help="optional JSON config file")
    parser.add_argument("--json", help="write the sweep here")
    parser.add_argument("--against", help="an earlier sweep's JSON to compare with")
    args = parser.parse_args()

    config = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    result = sweep(config, Path(args.out))
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if args.against:
        reference = json.loads(Path(args.against).read_text())
        if reference.get("config_hash") != result["config_hash"]:
            print("note: the reference sweep used another config")
        lines = differences(result, reference)
        for line in lines:
            print(line)
        print(f"{len(lines)} warm-segment values differ from {args.against}")


if __name__ == "__main__":
    main()
