"""Run one workload in this process and write its result as one JSON file.

run.py starts this with the BLAS thread count fixed in the environment:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workload-seed N --run-dir DIR --result FILE --trace-file FILE

Steps: set-up (the `synth` stage, repeated), the timed pipeline from `split`
through `evaluate`, output checks, then a closed serving loop with one caller:
(a) `TwoTowerRecommender.recommend_scored` on one recommender built from the
artifacts, (b) `run_stage("recommend", ...)`, which reloads every artifact per
call, as `rec recommend` does. Only this process's own timers and `getrusage`
are read. Every timing is taken with hostclock.HostClock: probe time left out,
then scaled to a fixed host speed (see that module); the raw values are kept
in the report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from checks import (  # noqa: E402
    canonical_digest,
    check_evaluation,
    check_topk,
    check_unit_rows,
    highest_supported,
    manifest_outputs,
    percentile,
)
from hostclock import HostClock  # noqa: E402
from spans import Recorder, self_by_ancestor, self_times, summarize, wrapper_cost  # noqa: E402
from workloads import (  # noqa: E402
    ARTIFACT_KEYS,
    INPROC_SHARE,
    LOADER_SPANS,
    MIN_CLI_SAMPLES,
    MIN_INPROC_SAMPLES,
    PIPELINE_STAGES,
    SERVE_CAP_S,
    SETUP_REPEATS,
    TOP_K,
    TRACE_TARGETS,
    WORKING_SET_KNOWN,
    WORKING_SET_UNSEEN,
    WORKLOADS,
)

TIMERS = (
    "own-process time.perf_counter and getrusage(RUSAGE_SELF) only, less the time of "
    "an in-process SIGALRM reference probe and scaled by its speed; no machine-wide "
    "tracing, no cache dropping, no kernel or cgroup settings"
)


class Ops:
    """Operations attempted and failed; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few, for the report

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, what: str, problems: list[str]) -> None:
        if problems:
            self.fail(f"{what}: {'; '.join(problems[:3])}")
        else:
            self.ok()


def _environment(blas_threads: str) -> dict:
    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "process_threads": threads,
        "timers": TIMERS,
    }


def _load_recommender(audiorec, out: Path):
    """One serving recommender from the artifacts, built from public loaders."""
    pipeline = audiorec.pipeline
    art = pipeline.ARTIFACTS
    train = audiorec.data.parse_interactions(out / art["train"]).records
    meta = audiorec.io.read_json(out / art["split_meta"])
    return audiorec.recommenders.TwoTowerRecommender(
        audiorec.two_tower.TowerParams.load(out / art["tower_params"]),
        audiorec.index.load_index(out / art["index"]),
        train,
        audiorec.hgnn.NodeEmbeddingTable.load(out / art["embeddings"]),
        as_of=meta["split_time"],
    )


def _known_users(audiorec, out: Path) -> list[str]:
    """Train and holdout users, sorted."""
    art = audiorec.pipeline.ARTIFACTS
    users = set()
    for key in ("train", "holdout"):
        users.update(r.user_id for r in audiorec.data.parse_interactions(out / art[key]).records)
    return sorted(users)


def _serve(paths, users, rng, seconds, ops, verify, rec, hc) -> dict[str, list[float]]:
    """Closed loop, one caller. `paths` maps a name to (call, min samples,
    share of busy time); the path furthest below its share goes next, so both
    see the same stretch of the run. Stops once `seconds` have passed and each
    path has tried its minimum, or SERVE_CAP_S later regardless. Latencies are
    raw `hc.now` seconds; the host probe runs between calls, never in one."""
    latencies = {name: [] for name in paths}
    tries = dict.fromkeys(paths, 0)
    busy = dict.fromkeys(paths, 0.0)
    stop = time.perf_counter() + seconds
    cap = stop + SERVE_CAP_S
    while True:
        now = time.perf_counter()
        short = [n for n, (_, least, _) in paths.items() if tries[n] < least]
        if now >= cap or (now >= stop and not short):
            break
        total = sum(busy.values()) or 1.0
        name = min(short if now >= stop else paths, key=lambda n: busy[n] / total - paths[n][2])
        call = paths[name][0]
        user = users[int(rng.integers(len(users)))]
        tries[name] += 1
        hc.poll()
        t0 = hc.now()
        try:
            if rec is None:
                result = call(user)
            else:
                with rec.span(name):
                    result = call(user)
        except Exception as exc:  # a failed query is counted, the loop goes on
            busy[name] += hc.now() - t0
            ops.fail(f"{name} {user}: {type(exc).__name__}: {exc}")
            continue
        elapsed = hc.now() - t0
        busy[name] += elapsed
        latencies[name].append(elapsed)
        verify(name, user, result)
    return latencies


def run(args, hc: HostClock) -> dict:
    import audiorec.data
    import audiorec.hgnn
    import audiorec.index
    import audiorec.io
    import audiorec.pipeline
    import audiorec.recommenders
    import audiorec.two_tower

    pipeline = audiorec.pipeline
    workload = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    out = run_dir / "out"
    ops = Ops()
    detail: dict = {"workload": workload.name, "seed": args.seed, "workload_seed": args.workload_seed}
    detail["loadavg_before"] = list(os.getloadavg())
    np.ones((64, 64)) @ np.ones((64, 64))  # start the BLAS threads before counting them
    detail["environment"] = _environment(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))

    cfg = pipeline.PipelineConfig().with_overrides(
        {**workload.overrides, "seed": args.workload_seed}
    )

    # -- set-up: generate the inputs, several times, median reported ------
    setup_times = []
    m_setup = hc.mark()
    for _ in range(SETUP_REPEATS):
        t0 = hc.now()
        pipeline.run_stage("synth", cfg, out)
        setup_times.append(hc.now() - t0)
        ops.ok()
    setup_scale = hc.scale(m_setup, hc.mark())  # one repeat holds too few probes

    rec = None
    if args.trace:
        rec = Recorder(clock=hc.now)
        for target, name, hook in TRACE_TARGETS:
            rec.install(target, name, hook)

    # -- timed pipeline ---------------------------------------------------
    stage_wall: dict[str, float] = {}
    stage_cpu: dict[str, float] = {}
    pipeline_ok = True
    m_start, t_start, c_start = hc.mark(), hc.now(), hc.cpu()
    for stage in PIPELINE_STAGES:
        t0, c0 = hc.now(), hc.cpu()
        try:
            if rec is None:
                pipeline.run_stage(stage, cfg, out)
            else:
                with rec.span(f"stage.{stage}"):
                    pipeline.run_stage(stage, cfg, out)
        except Exception as exc:  # the run reports the failed stage and stops
            ops.fail(f"stage {stage}: {type(exc).__name__}: {exc}")
            detail["traceback"] = traceback.format_exc(limit=5)
            pipeline_ok = False
            break
        finally:
            stage_wall[stage] = hc.now() - t0
            stage_cpu[stage] = hc.cpu() - c0
        ops.ok()
    pipeline_s = hc.now() - t_start
    pipeline_cpu_s = hc.cpu() - c_start
    pipeline_scale = hc.scale(m_start, hc.mark())
    detail["stage_wall_s"] = {k: v * pipeline_scale for k, v in stage_wall.items()}
    detail["stage_cpu_s"] = {k: v * pipeline_scale for k, v in stage_cpu.items()}

    metrics: dict[str, float] = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "pipeline_s": pipeline_s * pipeline_scale,
        "pipeline_cpu_s": pipeline_cpu_s * pipeline_scale,
    }
    detail["setup_samples_s"] = [t * setup_scale for t in setup_times]
    raw = detail["raw"] = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": pipeline_s,
        "pipeline_cpu_s": pipeline_cpu_s,
    }
    detail["host"] = {"pipeline_ref_us": hc.ref_mean(m_start, hc.mark()) * 1e6}
    if not pipeline_ok:
        return _finish(args, metrics, ops, detail, rec, None, {}, {}, hc)

    paused = rec.paused if rec is not None else contextlib.nullcontext
    art = pipeline.ARTIFACTS
    with paused():
        report = audiorec.io.read_json(out / art["evaluation"])
        ops.check("evaluation.json", check_evaluation(report, cfg.eval.models))
        tt = report.get("models", {}).get("two_tower_hgnn") or {}
        metrics["hr10_warm"] = (tt.get("warm") or {}).get("hr_at_k", 0.0)
        metrics["mrr_warm"] = (tt.get("warm") or {}).get("mrr", 0.0)
        metrics["coverage_all"] = (tt.get("all") or {}).get("coverage", 0.0)
        recommender = _load_recommender(audiorec, out)
        index = recommender.index
        ops.check("index rows unit norm", check_unit_rows(index.vectors))
        known = _known_users(audiorec, out)
        unseen = [f"unseen-user-{i:03d}" for i in range(WORKING_SET_UNSEEN)]
        fixed_users = known[:20] + unseen[:2]
        served = {u: recommender.recommend_scored(u, TOP_K) for u in fixed_users}
        detail["digest"] = canonical_digest(
            {"manifests": manifest_outputs(out), "served": {u: [list(p) for p in r] for u, r in served.items()}}
        )
        rng = np.random.default_rng(args.seed)
        picked = rng.choice(len(known), size=min(WORKING_SET_KNOWN, len(known)), replace=False)
        working_set = sorted(known[int(i)] for i in picked) + unseen
        for user in working_set:  # fill the per-user feature cache, untimed
            recommender.recommend_scored(user, TOP_K)

    row_of = {item_id: r for r, item_id in enumerate(index.ids)}
    verified: set = set()

    def verify(path: str, user: str, result) -> None:
        key = (user, tuple(result))
        if key in verified:
            ops.ok()
            return
        with paused():
            query = recommender.user_vector(user)
        problems = check_topk(result, index.ids, index.vectors, query, TOP_K, row_of)
        ops.check(f"{path} top-{TOP_K} for {user}", problems)
        if not problems:
            verified.add(key)

    m_serve = hc.mark()
    with hc.polled():
        latencies = _serve(
            {
                "serve.inproc": (
                    lambda u: recommender.recommend_scored(u, TOP_K),
                    MIN_INPROC_SAMPLES,
                    INPROC_SHARE,
                ),
                "serve.cli": (
                    lambda u: pipeline.run_stage("recommend", cfg, out, user=u, k=TOP_K),
                    MIN_CLI_SAMPLES,
                    1.0 - INPROC_SHARE,
                ),
            },
            working_set,
            rng,
            args.seconds * workload.serve_share,
            ops,
            verify,
            rec,
            hc,
        )
    serve_scale = hc.scale(m_serve, hc.mark())
    detail["host"]["serve_ref_us"] = hc.ref_mean(m_serve, hc.mark()) * 1e6
    detail["host"]["serve_scale"] = serve_scale
    raw_a, raw_b = sorted(latencies["serve.inproc"]), sorted(latencies["serve.cli"])
    if raw_a:
        raw["recommend_mean_ms"] = statistics.fmean(raw_a) * 1e3
    if raw_b:
        raw["cli_recommend_mean_ms"] = statistics.fmean(raw_b) * 1e3
    lat_a = [x * serve_scale for x in raw_a]
    lat_b = [x * serve_scale for x in raw_b]
    detail["recommend_samples"] = len(lat_a)
    detail["cli_recommend_samples"] = len(lat_b)
    detail["recommend_highest_supported_percentile"] = highest_supported(len(lat_a))
    detail["cli_recommend_highest_supported_percentile"] = highest_supported(len(lat_b))
    # Host contention switches per-query cost between two levels for seconds
    # at a time, so a run's median lands on one level or the other; the mean
    # moves smoothly with the share of time in each, so it is the end-to-end
    # central value. The tail of a 0.3-2 ms call is set by stalls of the
    # shared host that neither the probe nor the program controls: its p99
    # moved 10-35% between runs of the same code, so it is kept per-layer,
    # with the medians, where no bound applies.
    if lat_a:
        metrics["recommend_mean_ms"] = statistics.fmean(lat_a) * 1e3
        detail["recommend_p50_ms"] = percentile(lat_a, 50) * 1e3
        detail["recommend_p99_ms"] = percentile(lat_a, 99) * 1e3
    if lat_b:
        metrics["cli_recommend_mean_ms"] = statistics.fmean(lat_b) * 1e3
        detail["cli_recommend_p50_ms"] = percentile(lat_b, 50) * 1e3
        detail["cli_recommend_p90_ms"] = percentile(lat_b, 90) * 1e3
    return _finish(args, metrics, ops, detail, rec, report, {"inproc": lat_a, "cli": lat_b}, art, hc)


def _finish(args, metrics, ops, detail, rec, report, latencies, art, hc) -> dict:
    out = Path(args.run_dir) / "out"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if rec is not None:
        rec.uninstall()
        layers = _layer_metrics(rec, detail, report, latencies, art, out, hc.scale())
        layers["trace.pipeline_s"] = metrics["pipeline_s"]
        rec.save(args.trace_file)
        detail["absent_spans"] = rec.absent
    detail["host"]["probes"] = hc.mark()
    detail["host"]["run_ref_us"] = hc.ref_mean() * 1e6
    detail["loadavg_after"] = list(os.getloadavg())
    return {
        "end_to_end": metrics,
        "per_layer": layers,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "detail": detail,
    }


def _layer_metrics(rec, detail, report, latencies, art, out: Path, scale: float) -> dict[str, float]:
    """Per-layer numbers; span times are scaled by the whole run's host factor."""
    self_s = [s * scale for s in self_times(rec.start, rec.end, rec.parent)]
    summary = summarize(rec, self_s)
    layers: dict[str, float] = {}
    for stage in PIPELINE_STAGES:
        layers[f"stage.{stage}.wall_s"] = detail["stage_wall_s"].get(stage, 0.0)
        layers[f"stage.{stage}.cpu_s"] = detail["stage_cpu_s"].get(stage, 0.0)
    for name, entry in summary.items():
        layers[f"{name}.self_s"] = entry["self_s"]
        layers[f"{name}.calls"] = entry["calls"]
    layers.update(rec.counters)
    adam = self_by_ancestor(rec, self_s, "optim.adam_step", ("hgnn.", "two_tower."))
    layers["hgnn.adam_step.self_s"] = adam.get("hgnn.", 0.0)
    layers["two_tower.adam_step.self_s"] = adam.get("two_tower.", 0.0)
    topk = summary.get("index.query_topk")
    if topk:
        layers["index.query_topk.p50_us"] = percentile(topk["durations"], 50) * 1e6 * scale
    if report is not None:
        tt_all = (report.get("models", {}).get("two_tower_hgnn") or {}).get("all") or {}
        layers["evaluate.users"] = tt_all.get("n_users", 0)
    if art:
        log = out / art.get("hgnn_log", "hgnn_train_log.jsonl")
        if log.exists():
            layers["hgnn.epochs"] = sum(1 for line in log.read_text().splitlines() if line.strip())
        total = 0
        for path in out.rglob("*"):
            if path.is_file():
                total += path.stat().st_size
        layers["artifacts.bytes.total"] = total
        for key in ARTIFACT_KEYS:
            path = out / art.get(key, f"{key}-missing")
            if path.exists():
                layers[f"artifacts.bytes.{key}"] = path.stat().st_size

    # where path (a) and path (b) spend their self time
    for path, lat in latencies.items():
        layers[f"serve.{path}.queries"] = len(lat)
    for key, name in (
        ("recommend_p50_ms", "serve.inproc.p50_ms"),
        ("recommend_p99_ms", "serve.inproc.p99_ms"),
        ("cli_recommend_p50_ms", "serve.cli.p50_ms"),
        ("cli_recommend_p90_ms", "serve.cli.p90_ms"),
    ):
        if key in detail:
            layers[name] = detail[key]
    # serving walls back on the span times' scale, so a share is of like units
    rescale = scale / detail["host"].get("serve_scale", scale)
    inproc_wall = sum(latencies.get("inproc", [])) * rescale or 1.0
    cli_wall = sum(latencies.get("cli", [])) * rescale or 1.0
    inproc = summarize(rec, self_s, within="serve.inproc")
    cli = summarize(rec, self_s, within="serve.cli")
    layers["serve.inproc.query_topk_share"] = (
        inproc.get("index.query_topk", {}).get("self_s", 0.0) / inproc_wall
    )
    layers["serve.cli.loaders_share"] = (
        sum(e["self_s"] for n, e in cli.items() if n in LOADER_SPANS) / cli_wall
    )
    detail["serve_inproc_self_s"] = {n: e["self_s"] for n, e in inproc.items()}
    by_layer: dict[str, float] = {}
    for n, e in cli.items():
        group = "loaders" if n in LOADER_SPANS else n.split(".")[0]
        by_layer[group] = by_layer.get(group, 0.0) + e["self_s"]
    detail["serve_cli_self_s_by_layer"] = by_layer
    detail["top_self_s"] = sorted(
        ((e["self_s"], n) for n, e in summary.items()), reverse=True
    )[:12]
    layers["trace.spans"] = len(rec)
    layers["trace.overhead_est_s"] = len(rec) * wrapper_cost() * scale
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workload-seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file", required=True, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    with HostClock() as hc:
        result = run(args, hc)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
