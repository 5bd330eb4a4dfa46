"""Observational analyses: weak-signal co-occurrence and stream-prediction
fits, and the pair-similarity probe over item vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AUDIOBOOK, SIGNALS, STREAM, WEAK_SIGNALS, Interactions
from .graph import HeteroGraph


@dataclass
class LogisticFit:
    signal: str
    coefficient: float
    intercept: float
    odds_ratio: float
    n_examples: int
    n_positive: int
    converged: bool
    skipped_reason: str | None = None


@dataclass
class WeakSignalReport:
    signals: tuple[str, ...]
    cooccurrence: np.ndarray  # [i][j] = share of signal-i pairs also showing j
    fits: dict[str, LogisticFit]

    def to_dict(self) -> dict:
        return {
            "signals": list(self.signals),
            "cooccurrence": [[float(x) for x in row] for row in self.cooccurrence],
            "fits": {
                s: {
                    "coefficient": float(f.coefficient),
                    "intercept": float(f.intercept),
                    "odds_ratio": float(f.odds_ratio),
                    "n_examples": int(f.n_examples),
                    "n_positive": int(f.n_positive),
                    "converged": bool(f.converged),
                    "skipped_reason": f.skipped_reason,
                }
                for s, f in self.fits.items()
            },
        }


# Newton's method converges quadratically once near the optimum; a fit whose
# classes overlap needs well under this many steps.
_NEWTON_STEPS = 50
_GRAD_TOL = 1e-10


def _mean_gradient(design: np.ndarray, y: np.ndarray, theta: np.ndarray):
    """Gradient of the mean negative log likelihood at `theta`, and the fitted
    probabilities (a sigmoid written with tanh, which cannot overflow)."""
    p = 0.5 * (1.0 + np.tanh(0.5 * (design @ theta)))
    return design.T @ (p - y) / len(y), p


def _newton(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """(intercept, slope) where the mean gradient vanishes, or None if
    `_NEWTON_STEPS` steps do not get there. Each step is halved until it
    lowers the gradient norm, which a Newton step always does once short
    enough: along it, the squared norm falls at rate twice its own value."""
    design = np.column_stack([np.ones_like(x), x])
    theta = np.zeros(2)
    grad, p = _mean_gradient(design, y, theta)
    for _ in range(_NEWTON_STEPS):
        if np.abs(grad).max() < _GRAD_TOL:
            return theta
        hessian = design.T @ (design * (p * (1.0 - p))[:, None]) / len(y)
        step = np.linalg.solve(hessian, grad)
        norm = np.linalg.norm(grad)
        t = 1.0
        while True:
            trial = theta - t * step
            trial_grad, trial_p = _mean_gradient(design, y, trial)
            if np.linalg.norm(trial_grad) < norm or t < 2.0**-30:
                break
            t /= 2.0
        theta, grad, p = trial, trial_grad, trial_p
    return None


def logistic_fit(signal: str, x: np.ndarray, y: np.ndarray) -> LogisticFit:
    """Univariate logistic regression of 0/1 labels `y` on counts `x`
    (intercept + slope), fitted by Newton's method on the mean negative log
    likelihood.

    A unique finite maximum exists exactly when the two classes overlap in x
    (Albert & Anderson, Biometrika 1984). Every case without one is skipped
    with its reason: no nonzero count, labels of one class, a constant count
    (the Hessian is singular), and (quasi-)separation, where the likelihood
    keeps rising as the slope grows. A skipped fit reads coefficient 0, odds
    ratio 1 and not converged.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pos, neg = x[y == 1], x[y == 0]
    if not x.any():
        reason = "no pre-stream occurrences of this signal"
    elif len(pos) == 0 or len(neg) == 0:
        reason = "degenerate labels (all positive or all negative)"
    elif x.min() == x.max():
        reason = "constant predictor: every example has the same count"
    elif pos.min() >= neg.max():
        reason = "positive separation: no positive has a lower count than any negative"
    elif pos.max() <= neg.min():
        reason = "negative separation: no positive has a higher count than any negative"
    else:
        theta = _newton(x, y)
        if theta is not None:
            slope = float(theta[1])
            return LogisticFit(
                signal, slope, float(theta[0]), float(np.exp(slope)), len(x), len(pos), True
            )
        reason = f"no convergence in {_NEWTON_STEPS} Newton steps"
    return LogisticFit(signal, 0.0, 0.0, 1.0, len(x), len(pos), False, reason)


def weak_signal_analysis(log: Interactions) -> WeakSignalReport:
    """Co-occurrence of signals over (user, audiobook) pairs, plus one
    logistic regression per weak-signal type predicting whether the pair gets
    streamed from the count of that signal seen before the first stream.

    Rows for signals with no occurrences keep a unit diagonal and zero
    off-diagonal entries. `logistic_fit` skips each fit that has no unique
    finite slope, and says why. The pairs are examples in order of their
    first record, which fixes the order of Newton's sums.
    """
    ab = log.item_type == AUDIOBOOK
    signal, timestamp = log.signal[ab], log.timestamp[ab]
    _, first, pair = np.unique(
        log.user[ab].astype(np.int64) * len(log.item_ids) + log.item[ab], return_index=True, return_inverse=True
    )
    pair = np.argsort(np.argsort(first))[pair]  # pairs coded in order of first appearance
    n_pairs = len(first)
    has = np.zeros((n_pairs, len(SIGNALS)), dtype=np.int64)
    has[pair, signal] = 1
    with_signal = has.sum(axis=0)
    if np.count_nonzero(with_signal) < 2:
        raise ValueError("weak-signal analysis needs at least two signal types")

    # [i][j] = pairs showing both i and j over pairs showing i
    matrix = np.eye(len(SIGNALS))
    seen = with_signal > 0
    matrix[seen] = (has.T @ has)[seen] / with_signal[seen, None]

    streamed = has[:, STREAM]
    is_stream = signal == STREAM
    first_stream = np.full(n_pairs, np.iinfo(np.int64).max)
    np.minimum.at(first_stream, pair[is_stream], timestamp[is_stream])
    # a pair's weak signals before its first stream, or all of them if it has none
    counted = (streamed[pair] == 0) | (timestamp < first_stream[pair])
    fits = {
        name: logistic_fit(
            name, np.bincount(pair[counted & (signal == SIGNALS.index(name))], minlength=n_pairs), streamed
        )
        for name in WEAK_SIGNALS
    }
    return WeakSignalReport(signals=SIGNALS, cooccurrence=matrix, fits=fits)


@dataclass
class ProbeSummary:
    pairing: str
    n_pairs: int
    mean: float
    std: float

    def to_dict(self) -> dict:
        return {
            "pairing": self.pairing,
            "n_pairs": int(self.n_pairs),
            "mean": float(self.mean),
            "std": float(self.std),
        }


PAIRINGS = ("co-listened", "shared-podcast-only", "random")


def _eligible_pairs(
    pairing: str,
    ids: list[str],
    graph: HeteroGraph | None,
    item_type: str,
) -> list[tuple[str, str]]:
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}")
    if pairing == "random":
        return [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    if graph is None:
        raise ValueError(f"pairing {pairing!r} needs a graph")
    idx = graph.node_index.get(item_type, {})
    in_graph = [i for i in ids if i in idx]
    same_rel = (item_type, item_type)
    direct: set[tuple[str, str]] = set()
    if same_rel in graph.adj:
        csr = graph.adj[same_rel]
        for a in in_graph:
            ia = idx[a]
            for jb in csr.neighbors(ia):
                b = graph.nodes[item_type][int(jb)]
                if a < b:
                    direct.add((a, b))
    if pairing == "co-listened":
        return sorted(p for p in direct if p[0] in set(ids) and p[1] in set(ids))
    if pairing == "shared-podcast-only":
        other = "podcast" if item_type == "audiobook" else "audiobook"
        cross = graph.adj.get((item_type, other))
        if cross is None:
            return []
        neighbor_sets = {
            a: set(int(j) for j in cross.neighbors(idx[a])) for a in in_graph
        }
        out = []
        for i, a in enumerate(in_graph):
            for b in in_graph[i + 1 :]:
                key = (a, b) if a < b else (b, a)
                if key in direct:
                    continue
                if neighbor_sets[a] & neighbor_sets[b]:
                    out.append(key)
        return sorted(out)
    raise AssertionError(f"unhandled pairing {pairing!r}")


def pair_similarity_probe(
    vectors: dict[str, np.ndarray],
    pairing: str,
    n_pairs: int,
    seed: int,
    graph: HeteroGraph | None = None,
    item_type: str = "audiobook",
) -> ProbeSummary:
    """Mean and standard deviation of cosine similarity over sampled item
    pairs of the requested kind (sampled with replacement)."""
    ids = sorted(vectors)
    eligible = _eligible_pairs(pairing, ids, graph, item_type)
    if not eligible:
        raise ValueError(f"no eligible pairs for pairing {pairing!r}")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(eligible), size=n_pairs)
    sims = []
    for p in picks:
        a, b = eligible[int(p)]
        va, vb = vectors[a], vectors[b]
        denom = np.linalg.norm(va) * np.linalg.norm(vb)
        sims.append(float(va @ vb / denom) if denom > 0 else 0.0)
    sims_arr = np.array(sims)
    return ProbeSummary(
        pairing=pairing,
        n_pairs=n_pairs,
        mean=float(sims_arr.mean()),
        std=float(sims_arr.std()),
    )
