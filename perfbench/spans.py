"""In-memory span tracer that wraps akwinfer functions from outside.

A span is (name, start, end, parent); spans live in flat arrays while the
run goes on and are written out once, when it ends. Wrapping replaces the
function in every akwinfer namespace that holds it, because modules that
import a function by name keep their own reference and would otherwise
bypass the wrapper.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``count(result)`` adds to ``counts[name]`` after each call. A missing
        attribute is noted in ``missing`` and its metrics read zero.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        nid = len(self.names)
        self.names.append(name)
        self.counts.setdefault(name, 0)
        stack, ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(now())
            try:
                result = orig(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if count is not None:
                counts[name] += count(result)
            return result

        traced.__wrapped__ = orig
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "akwinfer" or mod_name.startswith("akwinfer.")
                for key, value in list(vars(mod).items())
                if value is orig
            ]
        for obj, key in targets:
            self._restore.append((obj, key, orig))
            setattr(obj, key, traced)

    def unwrap_all(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def mark(self) -> int:
        """Index of the next span; pass it to ``totals`` to see only later spans."""
        return len(self.start)

    def totals(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per name: inclusive seconds, call count, and self seconds (own
        duration minus the time covered by direct children)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)[since:]
        parents = np.frombuffer(self.parent, dtype=np.int32)[since:]
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))[since:]
        child = np.zeros(len(self.start))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_dur = dur - child[since:]
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = {
                "s": float(dur[sel].sum()),
                "calls": int(sel.sum()),
                "self_s": float(self_dur[sel].sum()),
            }
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
