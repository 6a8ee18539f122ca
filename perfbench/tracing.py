"""Spans around calls into baxq, recorded from outside the library.

`Tracer.install` replaces a public function of baxq with a timing wrapper
in every baxq module that holds a reference to it, so the wrapper is what
each caller looks up (for example `multiply` as imported into `qop` and
`lop`).  Methods are wrapped on their class.  Each call records one span:
name, start, end, parent span and the id of the workload operation it ran
under.  Spans stay in memory until `dump` writes them out after the run.

Very hot calls are counted without spans (`install_counter`), because
timing each of them would distort the run.  A target that no longer exists
is listed in `missing` and its metrics read 0.
"""
from __future__ import annotations

import json
import time
from types import ModuleType
from typing import Callable, Dict, List, Optional

Tally = Callable[[Dict[str, int], tuple, object], None]


class Tracer:
    def __init__(self, modules: Dict[str, ModuleType]):
        self.modules = modules
        self.spans: list = []
        self.counts: Dict[str, int] = {}
        self.op: object = None
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._cells: Dict[str, list] = {}
        self._patches: list = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, tally: Optional[Tally]):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if tally is not None:
                tally(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, module: str, attr: str, name: str,
                tally: Optional[Tally] = None) -> None:
        """Wrap function `module.attr` wherever a baxq module refers to it."""
        home = self.modules.get(module)
        fn = getattr(home, attr, None)
        if fn is None:
            self._missing(name)
            return
        wrapper = self._wrap(name, fn, tally)
        for mod in self.modules.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, key, wrapper)

    def install_prefix(self, module: str, prefix: str, name: str) -> None:
        """Wrap every function of `module` whose name starts with `prefix`."""
        mod = self.modules[module]
        found = [k for k, v in vars(mod).items()
                 if k.startswith(prefix) and callable(v)
                 and getattr(v, "__module__", None) == mod.__name__]
        if not found:
            self._missing(name)
        for key in found:
            self.install(module, key, name)

    def install_method(self, module: str, cls: str, attr: str,
                       name: str) -> None:
        klass = getattr(self.modules.get(module), cls, None)
        fn = getattr(klass, "__dict__", {}).get(attr)
        if fn is None:
            self._missing(name)
            return
        self._patch(klass, attr, self._wrap(name, fn, None))

    def install_counter(self, module: str, cls: str, attr: str,
                        name: str) -> None:
        """Count calls of a method (and of its aliases on the class)."""
        klass = getattr(self.modules.get(module), cls, None)
        fn = getattr(klass, "__dict__", {}).get(attr)
        if fn is None:
            self._missing(name)
            return
        cell = self._cells.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        for key, value in list(vars(klass).items()):
            if value is fn:
                self._patch(klass, key, counted)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- per-pass bookkeeping ----------------------------------------------

    def take_counts(self) -> Dict[str, int]:
        """Counters since the last call (tallies and call counters)."""
        out = dict(self.counts)
        self.counts.clear()
        for name, cell in self._cells.items():
            out[name] = cell[0]
            cell[0] = 0
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write spans column-wise, times in seconds from the first span."""
        names: Dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        cols: Dict[str, list] = {"name": [], "start": [], "end": [],
                                 "parent": [], "op": []}
        for name, start, end, parent, op in self.spans:
            cols["name"].append(names.setdefault(name, len(names)))
            cols["start"].append(round(start - t0, 7))
            cols["end"].append(round(end - t0, 7))
            cols["parent"].append(parent)
            cols["op"].append(op)
        doc = {"meta": meta, "names": list(names), "spans": cols,
               "missing": self.missing}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
