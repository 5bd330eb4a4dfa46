#!/usr/bin/env python3
"""Run the daily pipeline (`synth` through `evaluate`) in one process at
seed 7 on the configs of `scripts/artifact_hashes.py` (default, `pp`-only,
`wide`) and print, per stage, the `tracemalloc` peak of what the stage
allocates, its wall time and the process's `ru_maxrss` after it.

    PYTHONPATH=src python scripts/stage_memory.py
    PYTHONPATH=src python scripts/stage_memory.py --configs wide

Each stage is traced from its own start, so its peak counts only the memory
it allocates, not what an earlier stage left. A stage that runs the HGNN also
gets one line per phase it entered, each the largest peak over its calls:
`forward` (`forward_states`, a training batch's or the embedding pass),
`loss` (`margin_batch_loss`), `backward` (`backward_states`) and `validation`
(`_validate`, its own forward included); and `first-forward`, the memory the
stage holds when its first forward pass starts (in `train-hgnn`, the first
batch's, after its negatives and neighbor plan are drawn). Tracing slows
the stages, so wall times are only comparable with each other, and
`ru_maxrss` includes tracemalloc's own records; `perfbench` measures the
untraced peak RSS. BLAS runs on `--blas-threads` threads, one by default.
"""

import argparse
import os
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path


if __name__ == "__main__":  # imported, it leaves the environment as it is
    # BLAS reads its thread count once, when numpy is first imported
    _early = argparse.ArgumentParser(add_help=False)
    _early.add_argument("--blas-threads", type=int, default=1)
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(_early.parse_known_args()[0].blas_threads)

from audiorec import hgnn  # noqa: E402
from audiorec.pipeline import DAILY, PipelineConfig, run_stage  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from artifact_hashes import CONFIGS, SEED  # noqa: E402

MIB = 1 << 20
# the `hgnn` functions whose calls are phases, by phase name
PHASES = {
    "forward": "forward_states",
    "loss": "margin_batch_loss",
    "backward": "backward_states",
    "validation": "_validate",
}


class StageTrace:
    """The tracemalloc peaks of one stage: the whole stage's, each phase's,
    and the memory held when the first forward pass starts. A phase resets
    the peak when it starts, so the stage peak is kept across the resets; a
    phase called from inside another (validation's forward) counts toward
    the outer one only."""

    def __init__(self):
        self.peak = 0
        self.phases: dict[str, int] = {}
        self.first_forward: int | None = None
        self._depth = 0

    def wrap(self, phase: str, fn):
        def call(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            self.peak = max(self.peak, peak)
            if phase == "forward" and self.first_forward is None:
                self.first_forward = current
            tracemalloc.reset_peak()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                peak = tracemalloc.get_traced_memory()[1]
                self.phases[phase] = max(self.phases.get(phase, 0), peak)

        return call

    def run(self, stage: str, config: PipelineConfig, out: Path) -> float:
        """Run `stage` traced, with the phases wrapped; return its wall time."""
        originals = {name: getattr(hgnn, name) for name in PHASES.values()}
        for phase, name in PHASES.items():
            setattr(hgnn, name, self.wrap(phase, originals[name]))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            run_stage(stage, config, out)
            wall = time.perf_counter() - start
            self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            for name, fn in originals.items():
                setattr(hgnn, name, fn)
        return wall


def measure(config: PipelineConfig, out: Path) -> list[str]:
    """Run the daily stages of `config` under `out`, one after another; one
    line per stage (`<stage> peak <MiB> wall <s> maxrss <MiB>`), then one per
    phase it entered (`<stage> <phase> peak <MiB>`) and its `first-forward`
    (`<stage> first-forward <MiB>`)."""
    lines = []
    for stage in DAILY:
        trace = StageTrace()
        wall = trace.run(stage, config, out)
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        lines.append(f"{stage} peak {trace.peak / MIB:.2f} wall {wall:.2f} maxrss {maxrss:.1f}")
        lines += [
            f"{stage} {phase} peak {trace.phases[phase] / MIB:.2f}"
            for phase in PHASES
            if phase in trace.phases
        ]
        if trace.first_forward is not None:
            lines.append(f"{stage} first-forward {trace.first_forward / MIB:.2f}")
    return lines


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
        config = PipelineConfig().with_overrides({**CONFIGS[name], "seed": SEED})
        with tempfile.TemporaryDirectory() as work:
            for line in measure(config, Path(work)):
                print(f"{name} {line}", flush=True)


if __name__ == "__main__":
    main()
