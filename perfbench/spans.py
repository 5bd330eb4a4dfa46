"""Span recorder that times the program from outside.

A target such as ``hgnn:forward_states`` or ``optim:Adam.step`` is wrapped by
rebinding it: a module-level function in every ``audiorec`` module that holds
a reference to it, a method on its class. Spans (name, start, end, parent) are
kept in flat arrays in memory and written out when the run ends. Self time is
a span's duration minus the part of it that its child spans cover.

A target missing on the commit under test is reported as absent instead of
failing, so the same benchmark runs on a parent and on a change that merges
or renames functions.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

_clock = time.perf_counter


class Recorder:
    def __init__(self, package: str = "audiorec", clock=None):
        self.package = package
        self._now = clock if clock is not None else _clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.enabled = True
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self._now())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self._now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around calls into the program."""
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans or counts."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name: str, hook=None):
        """`fn` recording a span per call; `hook(recorder, args, kwargs, result)`
        adds counts after a call that returned."""
        nid = self._nid(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = rec._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if hook is not None:
                try:
                    hook(rec, args, kwargs, result)
                except Exception:  # a renamed field must not stop the run
                    rec.mark_absent(f"{name} (count hook)")
            return result

        return wrapper

    def mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    # -- installing --------------------------------------------------------

    def install(self, target: str, name: str, hook=None) -> bool:
        """Wrap `module:function` or `module:Class.method`; False if absent."""
        mod_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(f"{self.package}.{mod_name}")
        except ImportError:
            self.mark_absent(name)
            return False
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                self.mark_absent(name)
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(raw.__func__, name, hook))
            else:
                new = self.wrap(raw, name, hook)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            return True
        orig = getattr(module, attr, None)
        if orig is None or not callable(orig):
            self.mark_absent(name)
            return False
        wrapped = self.wrap(orig, name, hook)
        prefix = self.package + "."
        for mod_key, mod in list(sys.modules.items()):
            if mod is None or not (mod_key == self.package or mod_key.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))
        return True

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i])
            for i in range(len(self))
        ]

    def save(self, path) -> None:
        """Write the spans as one .npz: names, name_id, parent, start, end."""
        import numpy as np

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def self_times(starts, ends, parents) -> list[float]:
    """Per span: duration minus the union of its children's intervals, each
    child clipped to the parent's interval."""
    n = len(starts)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(kids, key=lambda c: starts[c]):
            s, e = max(starts[c], lo), min(ends[c], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def summarize(rec: Recorder, self_s: list[float], within: str | None = None) -> dict[str, dict]:
    """Per span name: calls, total duration, self time and sorted durations,
    given every span's self time. With `within`, only spans below a span of
    that name count."""
    n = len(rec)
    keep = [True] * n
    if within is not None:
        root = rec._ids.get(within, -2)
        inside = [False] * n
        for i in range(n):  # a parent is always recorded before its children
            p = rec.parent[i]
            inside[i] = p >= 0 and (inside[p] or rec.name_id[p] == root)
        keep = inside
    out: dict[str, dict] = {}
    for i in range(n):
        if not keep[i]:
            continue
        entry = out.setdefault(
            rec.names[rec.name_id[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        dur = rec.end[i] - rec.start[i]
        entry["total_s"] += dur
        entry["self_s"] += self_s[i]
        entry["durations"].append(dur)
    for entry in out.values():
        entry["durations"].sort()
    return out


def self_by_ancestor(
    rec: Recorder, self_s: list[float], name: str, prefixes: tuple[str, ...]
) -> dict[str, float]:
    """Self time of spans called `name`, keyed by the prefix of their nearest
    ancestor whose name starts with one of `prefixes` ("" when none does)."""
    target = rec._ids.get(name)
    out: dict[str, float] = {}
    if target is None:
        return out
    for i in range(len(rec)):
        if rec.name_id[i] != target:
            continue
        key = ""
        p = rec.parent[i]
        while p >= 0 and not key:
            key = next((x for x in prefixes if rec.names[rec.name_id[p]].startswith(x)), "")
            p = rec.parent[p]
        out[key] = out.get(key, 0.0) + self_s[i]
    return out


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one recorded call costs over a plain call, best of three."""

    def noop():
        return None

    best = float("inf")
    for _ in range(3):
        wrapped = Recorder().wrap(noop, "calibrate")
        t0 = _clock()
        for _ in range(calls):
            noop()
        t1 = _clock()
        for _ in range(calls):
            wrapped()
        t2 = _clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
