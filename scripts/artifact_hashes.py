#!/usr/bin/env python3
"""Run the daily pipeline (`synth` through `evaluate`) at seed 7 on three
configs and print one sha256 per artifact, and one of what `rec recommend`
serves, so a change meant to keep every result byte-identical can be checked
against its parent with one `diff`.

    PYTHONPATH=src python scripts/artifact_hashes.py > after.txt
    PYTHONPATH=src python scripts/artifact_hashes.py --configs default wide

The configs are the defaults, `graph.relations=["pp"]`, and the
`wide-catalog` benchmark workload (its synth sizes and 3 HGNN epochs, from
perfbench/workloads.py). Each line is `config file sha256`; manifests are
listed under `manifests/`. The `recommend@10` line hashes the `recommend`
stage's ids and scores (k=10) for the first 20 train users by id and two
unseen ids. The `rankings` line hashes what `pipeline.model_rankings`
returns for `evaluate` to score: every `eval.models` model's filtered ranking
of each holdout user, not only the metrics, which can hide a change below a
user's first hit. `hgnn_train_log.jsonl` is skipped: its
`wall_time` field differs from run to run. BLAS runs on `--blas-threads`
threads, one by default as in the benchmark: the bytes of a large matrix
product can depend on how many threads computed it, so compare runs made
with the same count.

    PYTHONPATH=src python scripts/artifact_hashes.py --blas-threads 2
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path


if __name__ == "__main__":  # imported, it leaves the environment as it is
    # BLAS reads its thread count once, when numpy is first imported
    _early = argparse.ArgumentParser(add_help=False)
    _early.add_argument("--blas-threads", type=int, default=1)
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(_early.parse_known_args()[0].blas_threads)

from audiorec.data import parse_interactions  # noqa: E402
from audiorec.io import canonical_json, sha256_bytes  # noqa: E402
from audiorec.pipeline import ARTIFACTS, DAILY, PipelineConfig, model_rankings, run_stage  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 7
CONFIGS = {
    "default": {},
    "pp-only": {"graph": {"relations": ["pp"]}},
    "wide": WORKLOADS["wide-catalog"].overrides,
}
SKIPPED = {ARTIFACTS["hgnn_log"]}
SERVED_USERS, UNSEEN = 20, ["unseen-0", "unseen-1"]


def ranking_digest(config: PipelineConfig, out: Path) -> str:
    """sha256 of the rankings `pipeline.model_rankings` gives `evaluate` over
    the pipeline's files under `out`."""
    files = {key: out / name for key, name in ARTIFACTS.items()}
    _, _, rankings = model_rankings(config, files)
    return sha256_bytes(canonical_json(rankings).encode("utf-8"))


def artifact_hashes(overrides: dict, out: Path) -> dict[str, str]:
    """sha256 of every file the daily pipeline writes under `out`, by path
    relative to it, except the skipped logs; then of the served rankings and
    of the rankings `evaluate` scores."""
    config = PipelineConfig().with_overrides({**overrides, "seed": SEED})
    for stage in DAILY:
        run_stage(stage, config, out)
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name not in SKIPPED
    }
    train = parse_interactions(out / ARTIFACTS["train"]).records
    users = sorted({r.user_id for r in train})[:SERVED_USERS] + UNSEEN
    served = {user: run_stage("recommend", config, out, user=user, k=10) for user in users}
    digests["recommend@10"] = sha256_bytes(canonical_json(served).encode("utf-8"))
    digests["rankings"] = ranking_digest(config, out)
    return digests


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--configs", nargs="+", choices=sorted(CONFIGS), default=list(CONFIGS),
        help="configs to run (default: all three)",
    )
    parser.add_argument(
        "--blas-threads", type=int, default=1,
        help="BLAS threads, set before numpy is imported (default: 1)",
    )
    args = parser.parse_args()
    if args.blas_threads < 1:
        parser.error(f"--blas-threads must be >= 1, got {args.blas_threads}")
    for name in args.configs:
        with tempfile.TemporaryDirectory() as work:
            for file, digest in artifact_hashes(CONFIGS[name], Path(work)).items():
                print(f"{name} {file} {digest}", flush=True)


if __name__ == "__main__":
    main()
