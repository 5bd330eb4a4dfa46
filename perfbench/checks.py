"""Output checks and summary statistics, independent of the program's code."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-12
NORM_TOL = 1e-9
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def samples_beyond(n: int, p: float) -> int:
    """How many of `n` samples lie strictly beyond the nearest-rank p-th."""
    return n - max(1, math.ceil(p / 100.0 * n))


def highest_supported(n: int, candidates=TAIL_CANDIDATES) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it."""
    return next((p for p in candidates if samples_beyond(n, p) >= 10), None)


def check_topk(result, ids, vectors, query, k: int, row_of: dict[str, int]) -> list[str]:
    """Problems with one top-k answer, checked against the index directly.

    Every score equals the per-row dot of its index row and the query within
    SCORE_TOL; scores do not increase down the list; equal scores are in
    ascending id order; no item left out scores strictly above the k-th, and
    none ties it with a smaller id.
    """
    problems = []
    want = min(k, len(ids))
    if len(result) != want:
        problems.append(f"returned {len(result)} items, expected {want}")
    rows = []
    for item_id, score in result:
        r = row_of.get(item_id)
        if r is None:
            problems.append(f"{item_id!r} is not in the index")
            continue
        rows.append(r)
        exact = float(np.dot(vectors[r], query))
        if abs(score - exact) > SCORE_TOL:
            problems.append(f"score of {item_id!r} is {score!r}, row dot is {exact!r}")
    if len(set(rows)) != len(rows):
        problems.append("an item is returned twice")
    for (id_a, s_a), (id_b, s_b) in zip(result, result[1:]):
        if s_b > s_a:
            problems.append(f"score rises from {id_a!r} to {id_b!r}")
        elif s_b == s_a and not id_a < id_b:
            problems.append(f"tie between {id_a!r} and {id_b!r} not in ascending id order")
    if problems or not result:
        return problems
    kth_id, kth = result[-1]
    left_out = np.ones(len(ids), dtype=bool)
    left_out[rows] = False
    scores = vectors @ query
    near = np.flatnonzero(left_out & (scores >= kth - SCORE_TOL))
    for r in near:  # rescore candidates near the boundary exactly
        s = float(np.dot(vectors[r], query))
        if s > kth + SCORE_TOL:
            problems.append(f"{ids[r]!r} scores {s!r}, above the k-th ({kth!r})")
        elif s == kth and ids[r] < kth_id:
            problems.append(f"{ids[r]!r} ties the k-th with a smaller id but is left out")
    return problems


def check_unit_rows(vectors) -> list[str]:
    norms = np.linalg.norm(np.asarray(vectors, dtype=np.float64), axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
    return [f"index row {int(r)} has norm {norms[r]!r}" for r in bad[:5]]


def check_evaluation(report: dict, models) -> list[str]:
    """Every configured model has `warm` and `all` rows with finite metrics."""
    problems = []
    entries = report.get("models", {})
    for model in models:
        entry = entries.get(model)
        if not isinstance(entry, dict):
            problems.append(f"evaluation has no entry for model {model!r}")
            continue
        for seg in ("warm", "all"):
            row = entry.get(seg)
            if not isinstance(row, dict):
                problems.append(f"evaluation of {model!r} has no {seg!r} row")
                continue
            for key in ("hr_at_k", "mrr", "coverage"):
                value = row.get(key)
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"evaluation of {model!r}/{seg} has bad {key}: {value!r}")
    return problems


def canonical_digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def manifest_outputs(out_dir) -> dict[str, dict]:
    """stage -> {output file: sha256} from every manifest the stages wrote."""
    found = {}
    for path in sorted(Path(out_dir, "manifests").glob("*.json")):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        found[manifest.get("stage", path.stem)] = manifest.get("outputs", {})
    return found
