#!/usr/bin/env python3
"""Time `synth` and one HGNN epoch as the catalog grows while each user's
activity stays fixed.

    PYTHONPATH=src python scripts/scale_curve.py          # s = 1 2 4 8
    PYTHONPATH=src python scripts/scale_curve.py 1 2

At scale s, the `wide-catalog` benchmark workload's user, podcast and
audiobook counts are multiplied by s and its two stream rates divided by s,
so each user streams about as much as at s = 1 while the catalog and the
co-listening graph grow s-fold. The script runs `synth`, `split` and
`build-graph` at seed 7, then `train-hgnn` for one epoch twice: once
untraced, for its times, and once under `stage_memory.StageTrace`, for the
`tracemalloc` peak of each phase. It prints one row per s:

- the graph's nodes, and its edges per relation;
- the `synth` stage's time, split into the dense per-cell Poisson draw
  (`synth._stream_counts`) and the rest;
- the epoch's time (`EpochLog.wall_time`, its validation pass included),
  its batches and the time per batch;
- each `train-hgnn` phase's `tracemalloc` peak in MiB.

BLAS runs on one thread, as in the benchmark, unless the environment sets
`OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` or `MKL_NUM_THREADS`. The four
default scales take about five minutes on a 2-vCPU host, most of it s = 8.
"""

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # imported, it leaves the environment as it is
    # BLAS reads its thread count once, when numpy is first imported
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from audiorec import hgnn, io, synth  # noqa: E402
from audiorec.graph import load_graph  # noqa: E402
from audiorec.pipeline import ARTIFACTS, PipelineConfig, run_stage  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from artifact_hashes import CONFIGS, SEED  # noqa: E402
from stage_memory import MIB, PHASES, StageTrace  # noqa: E402

SCALES = (1, 2, 4, 8)


def scaled(config: PipelineConfig, s: int) -> PipelineConfig:
    """`config` with its user, podcast and audiobook counts times `s`, its
    stream rates divided by `s`, and one HGNN epoch."""
    sizes = config.synth
    return config.with_overrides({
        "synth": {
            "n_users": sizes.n_users * s,
            "n_podcasts": sizes.n_podcasts * s,
            "n_audiobooks": sizes.n_audiobooks * s,
            "podcast_stream_rate": sizes.podcast_stream_rate / s,
            "audiobook_stream_rate": sizes.audiobook_stream_rate / s,
        },
        "hgnn": {"max_epochs": 1},
    })


class _Timed:
    """`fn`, adding the wall time of each call to `seconds` and counting
    the calls."""

    def __init__(self, fn):
        self.fn, self.seconds, self.calls = fn, 0.0, 0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1


def measure(config: PipelineConfig, s: int, out: Path) -> dict:
    """Run `synth` through `train-hgnn` of `scaled(config, s)` under `out`;
    the row `format_row` prints."""
    config = scaled(config, s)
    dense, step = _Timed(synth._stream_counts), _Timed(hgnn.batch_loss_and_grads)
    synth._stream_counts, hgnn.batch_loss_and_grads = dense, step
    try:
        start = time.perf_counter()
        run_stage("synth", config, out)
        synth_s = time.perf_counter() - start
        run_stage("split", config, out)
        run_stage("build-graph", config, out)
        run_stage("train-hgnn", config, out)
    finally:
        synth._stream_counts, hgnn.batch_loss_and_grads = dense.fn, step.fn
    (epoch,) = io.read_jsonl(out / ARTIFACTS["hgnn_log"])
    trace = StageTrace()
    trace.run("train-hgnn", config, out)
    graph = load_graph(out / ARTIFACTS["graph"])
    return {
        "s": s,
        "nodes": sum(len(ids) for ids in graph.nodes.values()),
        "edges": {rel: len(pairs) for rel, pairs in graph.edges.items()},
        "synth_s": synth_s,
        "dense_s": dense.seconds,
        "epoch_s": epoch["wall_time"],
        "batches": step.calls,
        "phase_mib": {phase: trace.phases[phase] / MIB for phase in PHASES if phase in trace.phases},
    }


HEADER = "s nodes edges synth_s dense_s rest_s epoch_s batches batch_ms " + " ".join(
    f"{phase}_mib" for phase in PHASES
)


def format_row(row: dict) -> str:
    edges = "/".join(f"{rel}={n}" for rel, n in row["edges"].items())
    per_batch = 1000 * row["epoch_s"] / max(1, row["batches"])
    phases = " ".join(f"{row['phase_mib'].get(phase, 0.0):.2f}" for phase in PHASES)
    return (
        f"{row['s']} {row['nodes']} {edges} {row['synth_s']:.2f} {row['dense_s']:.2f} "
        f"{row['synth_s'] - row['dense_s']:.2f} {row['epoch_s']:.2f} {row['batches']} "
        f"{per_batch:.1f} {phases}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("scales", nargs="*", type=int, default=list(SCALES), help="scales s (default: 1 2 4 8)")
    args = parser.parse_args(argv)
    if any(s < 1 for s in args.scales):
        parser.error(f"scales must be >= 1, got {args.scales}")
    base = PipelineConfig().with_overrides({**CONFIGS["wide"], "seed": SEED})
    print(HEADER, flush=True)
    for s in args.scales:
        with tempfile.TemporaryDirectory() as work:
            print(format_row(measure(base, s, Path(work))), flush=True)


if __name__ == "__main__":
    main()
