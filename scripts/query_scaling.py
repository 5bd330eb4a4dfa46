#!/usr/bin/env python3
"""Time what a `rec recommend` query costs.

By default, time a single-user `UserHistoryTable.load`, the lookup
`rec recommend` makes in `user_features.bin`, on tables of different sizes,
to show that its cost does not grow with the number of users:

    PYTHONPATH=src python scripts/query_scaling.py
    PYTHONPATH=src python scripts/query_scaling.py --users 2000 1000000 --repeats 300

Each table is written with the table's own writer (embedding width 4, random
rows, ids `u0000000`, `u0000001`, ...) into a temporary directory, which is
deleted afterwards; the 1,000,000-user file takes about 130 MB. Each
repeat loads every one of a fixed set of users, present and absent, once.
The script prints, per table, the best and the median time of one load.

With `--run-dir`, time one `run_stage("recommend")` on the artifacts of a
finished run, under the config that run recorded in `resolved_config.json`,
and each of its parts on the same files:

    PYTHONPATH=src python scripts/query_scaling.py --run-dir out --user u0001

The parts are the manifest-chain walk (`_current_inputs`), the user-tower
load, the single-user history load, the index load and the ranking
(`recommend_scored` on a recommender built outside the timer, with an empty
per-user cache, as a fresh query has). Each repeat times every row once, in
turn; the script prints the best and the median time of each.
"""

import argparse
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from audiorec import pipeline
from audiorec.data import SIGNALS
from audiorec.index import load_index
from audiorec.recommenders import TwoTowerRecommender
from audiorec.two_tower import TowerParams, UserHistoryTable

DIM = 4
QUERIES = 16
TOP_K = 10


def user_id(i: int) -> str:
    return f"u{i:07d}"


def write_table(path: Path, n: int, rng: np.random.Generator) -> None:
    UserHistoryTable(
        [user_id(i) for i in range(n)],
        rng.normal(size=(n, DIM)),
        rng.normal(size=(n, DIM)),
        rng.integers(0, 50, size=(n, len(SIGNALS))),
    ).save(path)


def load_times(path: Path, users: list[str], repeats: int) -> list[float]:
    """Seconds per `load(user=)` call, every user once per repeat."""
    times = []
    for _ in range(repeats):
        for user in users:
            start = time.perf_counter()
            UserHistoryTable.load(path, user=user)
            times.append(time.perf_counter() - start)
    return times


def table_scaling(sizes: list[int], repeats: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    print(f"{'users':>10} {'file MB':>8} {'best ms':>8} {'median ms':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            path = Path(tmp) / f"user_features_{n}.bin"
            write_table(path, n, rng)
            # present users spread over the table, one below the first id and one above the last
            users = [user_id(int(i)) for i in rng.integers(0, n, QUERIES - 2)] + ["u", "v"]
            times = load_times(path, users, repeats)
            size = path.stat().st_size / 1e6
            path.unlink()
            print(f"{n:>10} {size:>8.1f} {min(times) * 1e3:>8.3f} {statistics.median(times) * 1e3:>9.3f}")


def query_parts(run_dir: Path, user: str, repeats: int) -> None:
    """Best and median seconds of one `run_stage("recommend")` and of each
    of its parts, on the run in `run_dir`."""
    config = pipeline.PipelineConfig.load(run_dir / "resolved_config.json")
    spec = pipeline.STAGES["recommend"]
    files, _ = pipeline._current_inputs(spec, config, run_dir)
    served = pipeline._two_tower_recommender(files, user)

    def fresh_recommender():
        return TwoTowerRecommender.from_table(
            served.params, served.index, served.histories, served.music_vectors, served.demographics
        )

    # name -> (untimed setup, timed call of the setup's result)
    parts = {
        "run_stage": (None, lambda _: pipeline.run_stage("recommend", config, run_dir, user=user, k=TOP_K)),
        "_current_inputs": (None, lambda _: pipeline._current_inputs(spec, config, run_dir)),
        "TowerParams.load": (None, lambda _: TowerParams.load(files["tower_params"], towers=("user",))),
        "UserHistoryTable.load": (None, lambda _: UserHistoryTable.load(files["user_features"], user=user)),
        "load_index": (None, lambda _: load_index(files["index"])),
        "recommend_scored": (fresh_recommender, lambda rec: rec.recommend_scored(user, TOP_K)),
    }
    times: dict[str, list[float]] = {name: [] for name in parts}
    for _ in range(repeats):
        for name, (setup, call) in parts.items():
            arg = setup() if setup else None
            start = time.perf_counter()
            call(arg)
            times[name].append(time.perf_counter() - start)
    print(f"{'part':<22} {'best ms':>8} {'median ms':>9}")
    for name, ts in times.items():
        print(f"{name:<22} {min(ts) * 1e3:>8.3f} {statistics.median(ts) * 1e3:>9.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--users", type=int, nargs="+", default=[2_000, 1_000_000])
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--run-dir", type=Path, help="time a query's parts on this run's artifacts")
    parser.add_argument("--user", default="u0001", help="the user a --run-dir query serves")
    args = parser.parse_args()
    if args.run_dir is not None:
        query_parts(args.run_dir, args.user, args.repeats)
    else:
        table_scaling(args.users, args.repeats, args.seed)


if __name__ == "__main__":
    main()
