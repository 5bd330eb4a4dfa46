"""`optim.Adam`'s in-place step against the plain expressions it replaced:
the same bytes after every step, for both trainers' weight shapes and both
HGNN dtypes, with each weight's moments allocated on its first step only."""

import numpy as np
import pytest

from audiorec.graph import REL_KEYS
from audiorec.hgnn import HgnnConfig, HgnnParams
from audiorec import optim
from audiorec.optim import Adam
from audiorec.two_tower import TowerParams, TwoTowerConfig, Vocab

from oracles import AdamExpression


def hgnn_weights(dtype=np.float64) -> dict[str, np.ndarray]:
    params = HgnnParams.init(HgnnConfig(), 16, ("audiobook", "podcast"), REL_KEYS, seed=3)
    return params.astype(dtype).weights


def hgnn_weights_float32() -> dict[str, np.ndarray]:
    return hgnn_weights(np.float32)


def tower_weights() -> dict[str, np.ndarray]:
    vocabs = {
        "country": Vocab(["US", "SE", "DE"]),
        "age_bucket": Vocab(["18-24", "25-34"]),
        "language": Vocab(["en", "es", "de"]),
        "genre": Vocab([f"g{i}" for i in range(6)]),
    }
    config = TwoTowerConfig()
    return TowerParams.init(config, vocabs, 16, 64, seed=3).weights


@pytest.mark.parametrize("make_weights", [hgnn_weights, hgnn_weights_float32, tower_weights])
def test_in_place_steps_match_expressions(make_weights):
    got, want = make_weights(), make_weights()
    adam, oracle = Adam(learning_rate=5e-3), AdamExpression(learning_rate=5e-3)
    rng = np.random.default_rng(0)
    for step in range(20):
        grads = {}
        for key, w in want.items():
            g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=w.shape)
            g[rng.random(w.shape) < 0.2] = 0.0  # rows and columns without gradient
            grads[key] = g.astype(w.dtype)  # a gradient comes in its weight's dtype
        oracle.step(want, grads)
        adam.step(got, grads)  # last: the in-place step consumes `grads`
        for key in want:
            assert got[key].dtype == want[key].dtype
            assert got[key].tobytes() == want[key].tobytes(), (step, key)


def test_moments_are_allocated_on_a_weight_first_step_only(monkeypatch):
    got, want = tower_weights(), tower_weights()
    adam, oracle = Adam(), AdamExpression()
    rng = np.random.default_rng(1)
    steps = [{key: rng.normal(size=w.shape) for key, w in want.items()} for _ in range(3)]
    for grads in steps:
        oracle.step(want, {key: g.copy() for key, g in grads.items()})
    zeroed, zeros_like = [], optim.np.zeros_like

    def counted(a, *args, **kwargs):
        zeroed.append(a.shape)
        return zeros_like(a, *args, **kwargs)

    monkeypatch.setattr(optim.np, "zeros_like", counted)
    adam.step(got, steps[0])
    assert len(zeroed) == 2 * len(got)  # m and v of each weight
    zeroed.clear()
    for grads in steps[1:]:
        adam.step(got, grads)
    assert zeroed == []
    monkeypatch.undo()
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key


def test_non_finite_parameter_raises():
    params = {"w": np.ones(3)}
    with pytest.raises(RuntimeError, match="'w' became non-finite after step 1"):
        Adam().step(params, {"w": np.array([1.0, np.nan, 0.0])})
