"""Spans around the public functions of prismatic's modules.

``Tracer.install`` replaces every public function binding in the traced
modules with a wrapper that records a span: name, start, end, parent
span and query id.  A function imported into another module (``search``
imports ``lattice.instances_of``) is wrapped at both bindings and
reported under its defining module, so calls through either name land
in one row.  ``cli`` calls ``search.*`` and ``formats.*`` through module
attributes, which is why wrapping the bindings sees them.

Spans inside forked ``--threads`` workers are lost when the workers
exit, so fan-out is counted at the pool boundary: the executor class
that ``search`` binds is replaced by a subclass that counts pools.
"""

from __future__ import annotations

import json
import types
from collections import Counter
from time import perf_counter

MODULES = ("cli", "formats", "search", "lattice", "cock", "debruijn")

# Return-value counts that must repeat exactly for a given query list.
RESULT_COUNTS = {
    "search.enumerate_prismatic_colorings": ("search.solutions", len),
    "search.shape_census": ("search.census_shapes", len),
    "search.min_size_with_instances": ("search.witnesses", lambda r: len(r[1])),
    "lattice.instances_of": ("search.instances_checked", len),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.query_id = -1
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        counted = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            start = perf_counter()
            frame = [len(self.spans), 0.0]
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[frame[0]] = (name, start, end, parent, self.query_id)
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += end - start
            if counted is not None:
                self.counts[counted[0]] += counted[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap the bindings; :meth:`uninstall` puts the originals back."""
        mods = {m: getattr(package, m) for m in MODULES}
        owners = {mod.__name__: short for short, mod in mods.items()}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ in owners
                ):
                    name = f"{owners[value.__module__]}.{value.__name__}"
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, self._wrap(name, value))
        search = mods["search"]
        base = search.ProcessPoolExecutor
        counts = self.counts

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counts["search.fanout.pools"] += 1
                super().__init__(*args, **kwargs)

        self._saved.append((search, "ProcessPoolExecutor", base))
        search.ProcessPoolExecutor = CountingPool

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, query id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
