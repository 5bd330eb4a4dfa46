"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from checks import (  # noqa: E402
    check_evaluation,
    check_topk,
    check_unit_rows,
    highest_supported,
    percentile,
    samples_beyond,
)
from workloads import TRACE_TARGETS, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --- percentile rule -------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([5.0], 99) == 5.0


def test_highest_percentile_keeps_ten_samples_beyond():
    assert samples_beyond(1000, 99) == 10
    assert highest_supported(1000) == 99.0
    assert samples_beyond(999, 99) == 9
    assert highest_supported(999) == 95.0
    assert highest_supported(100) == 90.0
    assert highest_supported(40) == 75.0
    assert highest_supported(20) == 50.0
    assert highest_supported(19) is None


# --- self time ---------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_parent():
    # 0: parent [0, 10]; 1 and 2 overlap; 3 runs past the parent's end;
    # 4 is a grandchild inside 2.
    starts = [0.0, 1.0, 2.0, 9.0, 3.0]
    ends = [10.0, 3.0, 5.0, 12.0, 4.0]
    parents = [-1, 0, 0, 0, 2]
    got = spans.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - (4 + 1), 2.0, 3 - 1, 3.0, 1.0])


def test_recorded_nested_calls_give_self_time(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))
    rec = spans.Recorder()

    def leaf():
        return None

    wrapped_leaf = rec.wrap(leaf, "leaf")

    def middle():
        wrapped_leaf()
        wrapped_leaf()

    wrapped_middle = rec.wrap(middle, "middle")
    with rec.span("root"):
        wrapped_middle()
    # ticks: root 0..7, middle 1..6, leaf 2..3 and 4..5
    summary = spans.summarize(rec, spans.self_times(rec.start, rec.end, rec.parent))
    assert summary["root"]["self_s"] == pytest.approx(2.0)
    assert summary["middle"]["self_s"] == pytest.approx(3.0)
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["self_s"] == pytest.approx(2.0)
    inside = spans.summarize(rec, spans.self_times(rec.start, rec.end, rec.parent), within="middle")
    assert set(inside) == {"leaf"}


def test_self_time_split_by_ancestor():
    rec = spans.Recorder()
    step = rec.wrap(lambda: None, "optim.step")
    for owner in ("hgnn.train", "two_tower.train", "hgnn.train"):
        with rec.span(owner):
            step()
    self_s = spans.self_times(rec.start, rec.end, rec.parent)
    split = spans.self_by_ancestor(rec, self_s, "optim.step", ("hgnn.", "two_tower."))
    assert set(split) == {"hgnn.", "two_tower."}


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "def f(x):\n    return x + 1\n\n"
        "class C:\n"
        "    def m(self):\n        return 2\n\n"
        "    @classmethod\n    def make(cls):\n        return cls()\n"
    )
    (pkg / "b.py").write_text("from .a import f\n\ndef g(x):\n    return f(x) * 10\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def test_install_rebinds_every_reference_and_reports_absent(fake_package):
    import fakepkg.a
    import fakepkg.b

    rec = spans.Recorder(package=fake_package)
    assert rec.install("a:f", "a.f")
    assert rec.install("a:C.m", "a.C.m")
    assert rec.install("a:C.make", "a.C.make")
    assert not rec.install("a:gone", "a.gone")
    assert not rec.install("a:C.gone", "a.C.gone")
    assert not rec.install("nomodule:f", "nomodule.f")
    assert fakepkg.b.g(1) == 20
    assert fakepkg.a.C.make().m() == 2
    names = [n for n, *_ in rec.spans()]
    assert names == ["a.f", "a.C.make", "a.C.m"]
    assert rec.absent == ["a.gone", "a.C.gone", "nomodule.f"]
    with rec.paused():
        fakepkg.b.g(1)
    assert len(rec) == 3
    rec.uninstall()
    fakepkg.b.g(1)
    assert len(rec) == 3
    assert fakepkg.b.f is fakepkg.a.f


def test_trace_targets_exist_in_this_tree():
    rec = spans.Recorder()
    try:
        for target, name, hook in TRACE_TARGETS:
            rec.install(target, name, hook)
        assert rec.absent == []
    finally:
        rec.uninstall()


# --- output checks -------------------------------------------------------------


def _tied_index():
    ids = ["a", "b", "c", "d"]
    v = np.array([0.6, 0.8])
    vectors = np.stack([v, v, v, np.array([1.0, 0.0])])  # a, b, c tie
    return ids, vectors, {i: r for r, i in enumerate(ids)}


def test_topk_check_accepts_ties_in_ascending_id_order():
    ids, vectors, row_of = _tied_index()
    q = np.array([0.0, 1.0])
    s = float(np.dot(vectors[0], q))
    assert check_topk([("a", s), ("b", s)], ids, vectors, q, 2, row_of) == []


def test_topk_check_flags_tie_errors():
    ids, vectors, row_of = _tied_index()
    q = np.array([0.0, 1.0])
    s = float(np.dot(vectors[0], q))
    assert check_topk([("b", s), ("a", s)], ids, vectors, q, 2, row_of)  # wrong tie order
    assert check_topk([("a", s), ("c", s)], ids, vectors, q, 2, row_of)  # skips "b"
    assert check_topk([("a", s), ("b", s + 1e-9)], ids, vectors, q, 2, row_of)  # wrong score
    assert check_topk([("a", s)], ids, vectors, q, 2, row_of)  # too short


def test_topk_check_flags_a_better_item_left_out():
    ids, vectors, row_of = _tied_index()
    q = np.array([1.0, 0.0])  # "d" scores 1.0, the tied rows 0.6
    s = float(np.dot(vectors[0], q))
    assert check_topk([("a", s)], ids, vectors, q, 1, row_of)
    assert check_topk([("d", 1.0)], ids, vectors, q, 1, row_of) == []


def test_topk_check_passes_the_program_on_duplicate_rows():
    from audiorec.index import build_index, query_topk

    rng = np.random.default_rng(0)
    rows = rng.normal(size=(30, 8))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows[10:20] = rows[3]  # ten byte-identical rows
    index = build_index({f"i{n:02d}": rows[n] for n in range(30)})
    row_of = {i: r for r, i in enumerate(index.ids)}
    for q in (rows[3], rng.normal(size=8)):
        result = query_topk(index, q, 10)
        assert check_topk(result, index.ids, index.vectors, q, 10, row_of) == []


def test_unit_rows_and_evaluation_checks():
    assert check_unit_rows(np.eye(3)) == []
    assert check_unit_rows(np.array([[1.0, 1.0]]))
    row = {"hr_at_k": 0.5, "mrr": 0.2, "coverage": 1.0}
    good = {"models": {"m": {"warm": row, "all": row, "cold": None}}}
    assert check_evaluation(good, ["m"]) == []
    assert check_evaluation(good, ["m", "other"])
    assert check_evaluation({"models": {"m": {"warm": None, "all": row}}}, ["m"])


# --- host clock -----------------------------------------------------------------


def test_host_clock_leaves_probe_time_out():
    import time

    import hostclock

    with hostclock.HostClock(interval=0.05) as hc:
        t0, wall0, m0 = hc.now(), time.perf_counter(), hc.mark()
        while time.perf_counter() - wall0 < 0.5:
            sum(range(1000))
        measured, wall = hc.now() - t0, time.perf_counter() - wall0
        probes = hc.mark() - m0
    assert probes >= 5
    # what the clock left out is the probes' own time
    assert wall - measured == pytest.approx(hc.spent, abs=hc.spent * 0.05 + 1e-4)
    assert 0 < measured < wall
    assert hc.scale(m0, m0 + probes) == pytest.approx(
        hostclock.REF_NOMINAL_S / (sum(hc.durations[m0 : m0 + probes]) / probes)
    )
    # an interval that held no probe falls back to the whole run
    assert hc.scale(len(hc.durations), len(hc.durations)) == hc.scale()


def test_host_clock_polled_probes_only_on_poll():
    import time

    import hostclock

    with hostclock.HostClock(interval=0.05) as hc, hc.polled():
        m0, wall0 = hc.mark(), time.perf_counter()
        while time.perf_counter() - wall0 < 0.1:
            sum(range(1000))
        assert hc.mark() == m0
        assert hc.poll()
        assert hc.mark() == m0 + 1
        assert not hc.poll()  # too soon after the last probe
        assert hc.mark() == m0 + 1


# --- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"][:1] == ["python3"] and len(spec["command"]) <= 32
    assert all(len(a) <= 200 and not a.startswith("/") and ".." not in a for a in spec["command"])
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert any("audiorec.benchmark" in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for name in names:
        assert NAME.match(name), name
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
