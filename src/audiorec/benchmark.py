"""Multi-seed benchmark on the synthetic dataset: the ordering gates compare
the full model's warm-user hit rate with its ablated variants and the
popularity baseline; the weak-signal fits run per seed. Used by the
experiment scripts and the acceptance suite.

The ordering gates run the shipped stages through `run_stage`, so they score
the same files, manifests and stale-input checks as `rec`."""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import weak_signal_analysis
from .pipeline import DAILY, PipelineConfig, run_stage
from .synth import SynthConfig, synth_generate

# Reduced dimensions, smaller batches, and a hotter HGNN step size so ten
# seeds fit a desk-scale budget. min_co_users=2 drops single-user coincidence
# edges, which otherwise saturate the graph at this user count and bury the
# latent clusters.
ORDERING_SETTINGS = {
    "graph": {"min_co_users": 2},
    "hgnn": {
        "hidden_dim": 32,
        "out_dim": 32,
        "fanouts": [10, 10],
        "n_negatives": 5,
        "learning_rate": 5e-3,
        "batch_size": 64,
        "max_epochs": 30,
        "patience": 8,
    },
    "two_tower": {"hidden": [128, 64, 32], "epochs": 6},
    "eval": {"models": ["two_tower_hgnn", "popularity"], "tiers": False},
}

# The two-tower variants the gates compare, as overrides of the seed's config.
TOWER_VARIANTS = {
    "two_tower_hgnn": {},
    "two_tower_only": {"two_tower": {"use_hgnn_features": False}},
    "no_weak_signals": {"two_tower": {"use_weak_signals": False}},
}

_FIRST_TOWER_STAGE = DAILY.index("train-2t")  # where the variants part


@dataclass
class SeedResult:
    seed: int
    n_warm_users: int
    hr_warm: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_warm_users": self.n_warm_users,
            "hr_warm": {k: float(v) for k, v in self.hr_warm.items()},
        }


def _warm(entry: dict, metric: str):
    return entry["warm"][metric] if entry["warm"] else 0


def run_ordering_seed(config: PipelineConfig, work_dir) -> SeedResult:
    """Run `synth` through `embed` once in `<work_dir>/base`, then each tower
    variant's `train-2t`, `build-index` and `evaluate` in a copy of it, and
    report warm-user HR@k per variant and for the popularity baseline."""
    work_dir = Path(work_dir)
    base = work_dir / "base"
    for stage in DAILY[:_FIRST_TOWER_STAGE]:
        run_stage(stage, config, base)
    result = SeedResult(seed=config.seed, n_warm_users=0)
    for name, overrides in TOWER_VARIANTS.items():
        run_dir = shutil.copytree(base, work_dir / name)
        variant = config.with_overrides(overrides)
        for stage in DAILY[_FIRST_TOWER_STAGE:]:
            report = run_stage(stage, variant, run_dir)
        models = report["models"]
        result.hr_warm[name] = _warm(models["two_tower_hgnn"], "hr_at_k")
        result.hr_warm["popularity"] = _warm(models["popularity"], "hr_at_k")
        result.n_warm_users = _warm(models["two_tower_hgnn"], "n_users")
    return result


def run_ordering_benchmark(seeds, work_dir) -> list[SeedResult]:
    """The ordering gates' runs, each seed in `<work_dir>/seed-<s>`."""
    return [
        run_ordering_seed(
            PipelineConfig().with_overrides({**ORDERING_SETTINGS, "seed": s}),
            Path(work_dir) / f"seed-{s}",
        )
        for s in seeds
    ]


def run_weak_signal_seeds(seeds) -> list[dict]:
    """Follow-signal logistic fit per seed on freshly generated data."""
    out = []
    for seed in seeds:
        log, _ = synth_generate(SynthConfig(), seed)
        report = weak_signal_analysis(log)
        fit = report.fits["follow"]
        out.append(
            {
                "seed": seed,
                "coefficient": fit.coefficient,
                "odds_ratio": fit.odds_ratio,
                "skipped_reason": fit.skipped_reason,
                "diag_ok": bool(
                    all(report.cooccurrence[i, i] == 1.0 for i in range(len(report.signals)))
                ),
            }
        )
    return out
