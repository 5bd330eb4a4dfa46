"""The audiorec benchmark: one command, workloads from BENCHMARK.json.

    python3 perfbench/run.py --workload daily-default --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own worker process, started from this one with
OPENBLAS/OMP/MKL threads fixed at BLAS_THREADS (the same for every commit).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
Timings are scaled to a fixed host speed by an in-process reference probe
(hostclock.py); each run's report line keeps the raw values beside them.
`--seed` seeds the benchmark's own draws (the serving loop's user stream);
the program's inputs come from `synth` with `--workload-seed` (default 7),
the same on every run so that runs measure the same work. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload untraced then traced, prints a table,
the tracing overhead and the per-workload purpose checks, and exits
non-zero when any output check fails.

Everything is read and written inside the checkout, under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170
PURPOSE_SHARE_STAGES = ("embed", "train-2t", "evaluate")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def source_hash() -> str:
    """sha256 over the program's and the benchmark's source files, to key
    the digest store."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_worker(workload: str, seed: int, seconds: float, trace: int, workload_seed: int) -> dict:
    """Run one workload in a fresh worker process; its run directory is removed."""
    run_dir = WORK / "runs" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    result_path = run_dir / "result.json"
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workload-seed", str(workload_seed),
        "--run-dir", str(run_dir),
        "--result", str(result_path),
        "--trace-file", str(WORK / "traces" / f"{workload}.npz"),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S
        )
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        return {"end_to_end": {}, "per_layer": None, "attempted": 1, "failed": 1,
                "failures": [f"{workload}: {exc}"], "detail": {}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def check_digest(result: dict, workload: str, workload_seed: int) -> None:
    """Two runs of one source on one workload must write identical artifacts."""
    digest = result["detail"].get("digest")
    if digest is None:
        return
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    key = f"{workload}|workload_seed={workload_seed}|blas={BLAS_THREADS}|src={source_hash()}"
    result["attempted"] += 1
    if key in store and store[key] != digest:
        result["failed"] += 1
        result["failures"].append(
            f"output digest {digest[:12]} differs from an earlier run of this source ({store[key][:12]})"
        )
    store[key] = digest
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))


def contract_line(result: dict, rows: list[dict], section: str) -> dict:
    values = result.get(section) or {}
    metrics = {
        row["name"]: {"value": float(values.get(row["name"], 0.0)), "unit": row["unit"]}
        for row in rows
    }
    return {
        "correct": result["failed"] == 0 and bool(values),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def run_one(args, spec) -> int:
    result = run_worker(args.workload, args.seed, args.seconds, args.trace, args.workload_seed)
    check_digest(result, args.workload, args.workload_seed)
    section, rows = ("per_layer", spec["per_layer"]) if args.trace else ("end_to_end", spec["end_to_end"])
    missing = sorted({r["name"] for r in rows} - set(result.get(section) or {}))
    result["detail"]["unmeasured"] = missing
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"report": result["detail"], "failures": result["failures"]}))
    line = contract_line(result, rows, section)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _purposes(traced: dict) -> list[tuple[str, bool]]:
    """The stated purpose of each workload, checked on the traced numbers."""
    checks = []
    daily = traced.get("daily-default", {}).get("per_layer") or {}
    wide = traced.get("wide-catalog", {}).get("per_layer") or {}
    wide_detail = traced.get("wide-catalog", {}).get("detail", {})
    stage_walls = {k: v for k, v in daily.items() if k.startswith("stage.") and k.endswith(".wall_s")}
    if stage_walls:
        checks.append((
            "daily-default: train-hgnn is the largest stage",
            max(stage_walls, key=stage_walls.get) == "stage.train-hgnn.wall_s",
        ))

    def share(layers):
        total = sum(v for k, v in layers.items() if k.startswith("stage.") and k.endswith(".wall_s"))
        part = sum(layers.get(f"stage.{s}.wall_s", 0.0) for s in PURPOSE_SHARE_STAGES)
        return part / total if total else 0.0

    if daily and wide:
        checks.append((
            f"embed+train-2t+evaluate share: wide-catalog {share(wide):.3f} > daily-default {share(daily):.3f}",
            share(wide) > share(daily),
        ))
    inproc = wide_detail.get("serve_inproc_self_s") or {}
    if inproc:
        top = max(inproc, key=inproc.get)
        checks.append((f"wide-catalog path (a): largest self time is {top}", top == "index.query_topk"))
    cli = wide_detail.get("serve_cli_self_s_by_layer") or {}
    if cli:
        top = max(cli, key=cli.get)
        checks.append((f"wide-catalog path (b): largest self time is {top}", top == "loaders"))
    return checks


def run_all(args, spec) -> int:
    names = [w["name"] for w in spec["workloads"]]
    untraced, traced = {}, {}
    for name in names:
        for trace, store in ((0, untraced), (1, traced)):
            print(f"running {name} trace={trace} ...", file=sys.stderr, flush=True)
            store[name] = run_worker(name, args.seed, args.seconds, trace, args.workload_seed)
            check_digest(store[name], name, args.workload_seed)
    print(f"{'workload':<15} {'metric':<22} {'value':>14} {'unit':<6} better  samples")
    for name in names:
        result = untraced[name]
        detail = result["detail"]
        for row in spec["end_to_end"]:
            value = result["end_to_end"].get(row["name"])
            samples = ""
            if row["name"].startswith("recommend_"):
                samples = detail.get("recommend_samples", "")
            elif row["name"].startswith("cli_recommend_"):
                samples = detail.get("cli_recommend_samples", "")
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{name:<15} {row['name']:<22} {shown:>14} {row['unit']:<6} {row['better']:<7} {samples}")
    print()
    for name in names:
        layers = traced[name].get("per_layer") or {}
        overhead = layers.get("trace.pipeline_s", 0.0) - untraced[name]["end_to_end"].get("pipeline_s", 0.0)
        top = traced[name]["detail"].get("top_self_s", [])[:5]
        print(f"{name}: tracing overhead {overhead:+.3f} s on pipeline_s "
              f"({layers.get('trace.spans', 0):.0f} spans, estimated {layers.get('trace.overhead_est_s', 0.0):.3f} s); "
              "largest self times: " + ", ".join(f"{n} {s:.3f}s" for s, n in top))
    print()
    for text, ok in _purposes(traced):
        print(f"purpose {'met' if ok else 'NOT MET'}: {text}")
    results = list(untraced.values()) + list(traced.values())
    failures = [f for r in results for f in r["failures"]]
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    metrics = {
        f"{name}.{row['name']}": {"value": float(untraced[name]["end_to_end"].get(row["name"], 0.0)), "unit": row["unit"]}
        for name in names
        for row in spec["end_to_end"]
    }
    line = {
        "correct": not failures and all(r["end_to_end"] for r in results),
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "audiorec" / "pipeline.py").is_file():
        print(f"perfbench: no audiorec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="audiorec benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=7, help="seed of the benchmark's own draws")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=7, help="seed of the program's inputs")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    code = run_all(args, spec) if args.workload == "all" else run_one(args, spec)
    print(f"perfbench: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
