"""In-memory span tracer around qprim's public functions.

qprim's modules bind their imports by name (``from .arith import factor``),
so a function is wrapped in every qprim module that holds a binding to it,
not only in the module that defines it.  Methods are wrapped on their class.

A span records its name, start, end, the span that was open when it began
(its parent) and whether the call raised.  Spans live in flat arrays while
the run goes and are summarised, or written out, when it ends; a layer's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

_NO_PARENT = -1
_FALSE, _TRUE, _RAISED = 0, 1, 2


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.status = array("b")
        self._stack = [_NO_PARENT]
        self.counts: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, on_result=None):
        """fn wrapped so that every call records one span named `name`;
        `on_result`, if given, sees each value returned."""
        nid = self._name_id(name)
        kind, parent, start, end, status = self.kind, self.parent, self.start, self.end, self.status
        stack = self._stack
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0)
            status.append(_RAISED)
            stack.append(idx)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()
            status[idx] = _TRUE if result is True else _FALSE
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, name: str, fn):
        """fn wrapped so that its calls are counted, without a span."""
        cell = self.counts.setdefault(name, [0])

        def traced(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return traced

    def spanned_generator(self, name: str, fn):
        """fn returns an iterator; each step of it is one span."""
        tracer = self

        def traced(*args, **kwargs):
            step = tracer.spanned(name, fn(*args, **kwargs).__next__)

            def steps():
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    yield item

            return steps()

        return traced

    def record(self, name: str, t0_ns: int, t1_ns: int) -> None:
        """Add a span measured by the caller (a phase run outside the wrappers)."""
        self.kind.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(t0_ns)
        self.end.append(t1_ns)
        self.status.append(_FALSE)

    def wrap(self, owner, attr: str, name: str, how: str = "span", on_result=None) -> None:
        """Wrap `owner.attr` and every other binding of the same object in the
        loaded qprim modules.  `how` is "span", "count" or "generator"."""
        original = getattr(owner, attr)
        if how == "span":
            wrapped = self.spanned(name, original, on_result)
        elif how == "count":
            wrapped = self.counted(name, original)
        else:
            wrapped = self.spanned_generator(name, original)
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not (mod_name == "qprim" or mod_name.startswith("qprim.")):
                    continue
                for key, value in vars(mod).items():
                    if value is original:
                        targets.append((mod, key))
        for target, key in targets:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "status": np.frombuffer(self.status, dtype=np.int8).copy(),
            "names": np.array(self.names),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, raised and
        true-result counts.  Also, per name, the calls whose parent span has
        another given name, under key "parents"."""
        a = self.arrays()
        kind, parent = a["kind"].astype(np.int64), a["parent"]
        n_names = len(self.names)
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        out: dict[str, dict] = {}
        calls = np.bincount(kind, minlength=n_names)
        incl = np.bincount(kind, weights=dur, minlength=n_names)
        excl = np.bincount(kind, weights=self_time, minlength=n_names)
        raised = np.bincount(kind, weights=(a["status"] == _RAISED), minlength=n_names)
        trues = np.bincount(kind, weights=(a["status"] == _TRUE), minlength=n_names)
        parent_kind = np.where(has_parent, kind[np.where(has_parent, parent, 0)], -1)
        for nid, name in enumerate(self.names):
            mine = kind == nid
            by_parent = {
                self.names[p]: int(c)
                for p, c in enumerate(np.bincount(parent_kind[mine & has_parent], minlength=n_names))
                if c
            }
            out[name] = {
                "calls": int(calls[nid]),
                "s": float(incl[nid]) / 1e9,
                "self_s": float(excl[nid]) / 1e9,
                "raised": int(raised[nid]),
                "true": int(trues[nid]),
                "parents": by_parent,
            }
        return out
