#!/usr/bin/env python3
"""Time a single-user `UserHistoryTable.load`, the lookup `rec recommend`
makes in `user_features.bin`, on tables of different sizes, to show that its
cost does not grow with the number of users.

    PYTHONPATH=src python scripts/query_scaling.py
    PYTHONPATH=src python scripts/query_scaling.py --users 2000 1000000 --repeats 300

Each table is written with the table's own writer (embedding width 4, random
rows, ids `u0000000`, `u0000001`, ...) into a temporary directory, which is
deleted afterwards; the 1,000,000-user file takes about 130 MB. Each
repeat loads every one of a fixed set of users, present and absent, once.
The script prints, per table, the best and the median time of one load.
"""

import argparse
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from audiorec.data import SIGNALS
from audiorec.two_tower import UserHistoryTable

DIM = 4
QUERIES = 16


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--users", type=int, nargs="+", default=[2_000, 1_000_000])
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    print(f"{'users':>10} {'file MB':>8} {'best ms':>8} {'median ms':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.users:
            path = Path(tmp) / f"user_features_{n}.bin"
            write_table(path, n, rng)
            # present users spread over the table, one below the first id and one above the last
            users = [user_id(int(i)) for i in rng.integers(0, n, QUERIES - 2)] + ["u", "v"]
            times = load_times(path, users, args.repeats)
            size = path.stat().st_size / 1e6
            path.unlink()
            print(f"{n:>10} {size:>8.1f} {min(times) * 1e3:>8.3f} {statistics.median(times) * 1e3:>9.3f}")


if __name__ == "__main__":
    main()
