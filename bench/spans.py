"""In-memory span tracer that wraps the public functions of ``nfc`` from outside.

``Tracer.install`` replaces every public function of the traced layers with a
wrapper, under every name any ``nfc`` module holds it by (``from .surface
import transform`` leaves a second reference in ``nfc.normalizer``), and
``Tracer.remove`` puts every original object back.  A span is (name, start,
end, parent span, op id); spans stay in memory until ``write`` dumps them.

Hot scalar entry points are counted, not spanned: a normalize run makes
millions of GaussianRational operations, and a span each would cost more
memory and time than the work being measured.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

#: nfc modules whose public functions are wrapped; the span prefix is the key.
LAYERS = ("scalar", "series", "surface", "normalizer", "resonance", "families", "cli")

#: Public functions counted per call instead of spanned (hot and tiny).
COUNT_ONLY = frozenset({"scalar.as_gaussian"})

#: GaussianRational operators counted together as ``scalar.arith``.
ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


class Tracer:
    """Collects spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.counts: dict = {}
        self.op = -1                 # op id stamped on new spans; -1 = set-up
        self.normalize_calls: list = []   # (args, kwargs, result) of top-level normalize
        self._stack: list = []
        self._patches: list = []     # (owner, attribute, original object)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = start
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _bump(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _after(self, name: str):
        """Callback that records a layer's counters from its result, or None."""
        if name == "normalizer.solve_stage":
            return lambda args, kwargs, sol: self._bump("normalizer.dropped_conditions",
                                                        len(sol.dropped))
        if name == "normalizer.normalize":
            return lambda args, kwargs, res: self.normalize_calls.append((args, kwargs, res))
        return None

    def _mul_pairs(self, args):
        left, right = args
        other = getattr(right, "terms", None)
        if other is not None:
            self._bump("series.mul.term_pairs", len(left.terms) * len(other))

    # -- install / remove ---------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every public function of LAYERS and the Series3 / scalar operators.

        The ``nfc`` modules must already be imported (``nfc`` and ``nfc.cli``).
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "nfc" or key.startswith("nfc.")]
        replacements = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"nfc.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapped = self._counter(name, obj)
                else:
                    wrapped = self._span(name, obj, after=self._after(name))
                replacements[id(obj)] = (obj, wrapped)
        try:
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    hit = replacements.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patch(mod, attr, hit[1])
            series3 = sys.modules["nfc.series"].Series3
            mul = series3.__dict__["__mul__"]
            wrapped_mul = self._span("series.mul", mul, before=self._mul_pairs)
            for attr in ("__mul__", "__rmul__"):
                if series3.__dict__.get(attr) is mul:
                    self._patch(series3, attr, wrapped_mul)
            gauss = sys.modules["nfc.scalar"].GaussianRational
            for attr in ARITH_METHODS:
                if attr in gauss.__dict__:
                    self._patch(gauss, attr, self._counter("scalar.arith", gauss.__dict__[attr]))
        except BaseException:
            self.remove()
            raise

    def remove(self):
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list:
        """(owner, attribute, original) for every attribute currently wrapped."""
        return list(self._patches)

    # -- analysis -----------------------------------------------------------

    def durations(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list:
        """Span duration minus the time its direct children cover."""
        dur = self.durations()
        out = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= dur[i]
        return out

    def _has_ancestor_in(self, i: int, group) -> bool:
        parent = self.parents[i]
        while parent >= 0:
            if self.names[parent] in group:
                return True
            parent = self.parents[parent]
        return False

    def inclusive(self, group) -> float:
        """Wall time under spans named in ``group``, nested ones counted once."""
        group = {group} if isinstance(group, str) else set(group)
        dur = self.durations()
        return sum(dur[i] for i, name in enumerate(self.names)
                   if name in group and not self._has_ancestor_in(i, group))

    def self_time(self, name: str) -> float:
        st = self.self_times()
        return sum(st[i] for i, n in enumerate(self.names) if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def child_calls(self, parent_name: str, child_name: str) -> int:
        names = self.names
        return sum(1 for i, n in enumerate(names)
                   if n == child_name and self.parents[i] >= 0
                   and names[self.parents[i]] == parent_name)

    def self_time_by_name(self) -> dict:
        out: dict = {}
        for name, t in zip(self.names, self.self_times()):
            out[name] = out.get(name, 0.0) + t
        return out

    def write(self, path, meta: dict):
        """Dump spans as JSON: names table plus [name id, start, end, parent, op] rows."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        spans = [[index[n], s, e, p, o] for n, s, e, p, o in
                 zip(self.names, self.starts, self.ends, self.parents, self.ops)]
        with open(path, "w") as fh:
            json.dump({**meta, "names": table, "counts": self.counts,
                       "columns": ["name", "start", "end", "parent", "op"],
                       "spans": spans}, fh, separators=(",", ":"))
