#!/usr/bin/env python3
"""Quality sweep: rerun `train-hgnn` through `evaluate` for several HGNN seeds
on the split and graph of each data seed, and write every model's warm-segment
HR@k and MRR per run as JSON.

    PYTHONPATH=src python scripts/quality_sweep.py --out out/sweep --json sweep.json
    PYTHONPATH=src python scripts/quality_sweep.py --out out/sweep --against sweep.json
    PYTHONPATH=src python scripts/quality_sweep.py --data-seeds 3 7 11 13 17 --json sweep.json
    PYTHONPATH=src python scripts/quality_sweep.py --from a.json --against b.json

For each data seed (default 7), `synth`, `split` and `build-graph` run once;
each HGNN seed (1-8) then reruns the model stages, seeded with it, in a copy
of those artifacts. `--against FILE` prints every value that differs from an
earlier sweep's JSON (for example one made on the parent commit), then a
count, then per model a paired-bootstrap 95% interval of the warm HR@k and
MRR differences (this sweep minus FILE) over the matched (data seed, HGNN
seed) runs. The bootstrap has two levels: it draws data seeds with
replacement, then HGNN seeds with replacement within each drawn data seed,
because runs on one split share that split's noise. With one data seed it
resamples the runs alone. `--from FILE` loads a sweep saved with `--json` in
place of running one, so `--from A --against B` compares two saved sweeps
(two configs, or two commits) without a rerun; `--out`, `--config` and
`--data-seeds` are then not read.
"""

import argparse
import json
import shutil
from pathlib import Path

import numpy as np

from audiorec.pipeline import DAILY, PipelineConfig, run_stage

FIRST_MODEL_STAGE = DAILY.index("train-hgnn")
METRICS = ("hr_at_k", "mrr")
DATA_SEED = 7
SEEDS = range(1, 9)
RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def sweep(config: PipelineConfig, out: Path, data_seed: int = DATA_SEED) -> dict:
    base = out / f"data-{data_seed}"
    config.seed = data_seed
    for stage in DAILY[:FIRST_MODEL_STAGE]:
        run_stage(stage, config, base)
    result = {"data_seed": data_seed, "config_hash": config.hash(), "seeds": {}}
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
        print(json.dumps({"data_seed": data_seed, "seed": seed, "warm": result["seeds"][str(seed)]}))
    return result


def runs(sweeps: dict) -> dict:
    """{(data seed, HGNN seed): {model: {metric: value} or None}} of a sweep file."""
    return {
        (int(data), int(seed)): models
        for data, result in sweeps["data_seeds"].items()
        for seed, models in result["seeds"].items()
    }


def differences(got: dict, want: dict) -> list[str]:
    """One line per (data seed, HGNN seed, model, metric) whose value differs
    or is missing on one side."""
    got, want = runs(got), runs(want)
    lines = []
    for key in sorted(set(got) | set(want)):
        g_models, w_models = got.get(key) or {}, want.get(key) or {}
        for model in sorted(set(g_models) | set(w_models)):
            g, w = g_models.get(model) or {}, w_models.get(model) or {}
            for m in METRICS:
                if g.get(m) != w.get(m):
                    lines.append(f"data {key[0]} seed {key[1]} {model} {m}: {w.get(m)} -> {g.get(m)}")
    return lines


def intervals(got: dict, want: dict) -> dict:
    """{(model, metric): (runs, mean, low, high)}: the mean of got minus want
    over the runs both sweeps scored, with its percentile-bootstrap 95%
    interval from RESAMPLES resamples, seeded with BOOTSTRAP_SEED. A resample
    draws as many data seeds as were scored, with replacement, then each
    drawn data seed's scored HGNN seeds, with replacement, and takes the mean
    over every run it drew."""
    got, want = runs(got), runs(want)
    keys = sorted(got.keys() & want.keys())
    result = {}
    for model in sorted({model for key in keys for model in got[key]}):
        scored = [key for key in keys if got[key].get(model) and want[key].get(model)]
        if not scored:
            continue
        data_seeds = sorted({data for data, _ in scored})
        for m in METRICS:
            groups = [
                np.array([got[key][model][m] - want[key][model][m] for key in scored if key[0] == data])
                for data in data_seeds
            ]
            rng = np.random.default_rng(BOOTSTRAP_SEED)
            drawn = rng.integers(0, len(groups), (RESAMPLES, len(groups)))
            sums, counts = np.zeros(drawn.shape), np.zeros(drawn.shape)
            for g, group in enumerate(groups):
                at = drawn == g
                sums[at] = group[rng.integers(0, len(group), (at.sum(), len(group)))].sum(axis=1)
                counts[at] = len(group)
            means = sums.sum(axis=1) / counts.sum(axis=1)
            low, high = np.percentile(means, [2.5, 97.5])
            diffs = np.concatenate(groups)
            result[model, m] = (len(diffs), float(diffs.mean()), float(low), float(high))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="out/quality_sweep", help="artifact directory")
    parser.add_argument("--config", help="optional JSON config file")
    parser.add_argument("--data-seeds", type=int, nargs="+", default=[DATA_SEED],
                        help="seeds of the synth/split/build-graph stages (default 7)")
    parser.add_argument("--json", help="write the sweep here")
    parser.add_argument("--against", help="an earlier sweep's JSON to compare with")
    parser.add_argument("--from", dest="saved", metavar="FILE",
                        help="load this saved sweep's JSON instead of running a sweep")
    args = parser.parse_args(argv)

    if args.saved:
        result = json.loads(Path(args.saved).read_text())
    else:
        config = PipelineConfig.load(args.config) if args.config else PipelineConfig()
        out = Path(args.out)
        result = {"data_seeds": {str(d): sweep(config, out, d) for d in args.data_seeds}}
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if args.against:
        reference = json.loads(Path(args.against).read_text())
        hashes = {d: r["config_hash"] for d, r in reference["data_seeds"].items()}
        if any(hashes.get(d) != r["config_hash"] for d, r in result["data_seeds"].items()):
            print("note: the reference sweep used another config")
        lines = differences(result, reference)
        for line in lines:
            print(line)
        print(f"{len(lines)} warm-segment values differ from {args.against}")
        for (model, m), (n, mean, low, high) in intervals(result, reference).items():
            print(f"{model} {m}: {mean:+.4f} [{low:+.4f}, {high:+.4f}] over {n} paired runs")


if __name__ == "__main__":
    main()
