"""Spans around the public functions of every finring module, from outside.

Installing a Tracer replaces each public function defined in a finring
module, wherever a finring module or the package binds it, with a wrapper
that records a span: name (``<module>.<function>``), parent span, start,
end, and a small tag taken from the arguments and result where a per-layer
metric needs one.  Calls inside a module go through the module's globals, so
they are seen too; calls to private helpers are not, and their time counts
as self time of the public caller.  Uninstalling restores every binding.

Spans stay in memory; ``dump_spans`` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

import finring

BUCKETS = ("le32", "64-128", "ge256")

WITNESSES = (
    "commutative", "reduced", "symmetric", "reversible", "semicommutative", "reflexive",
    "right_duo", "left_duo", "abelian", "ni", "two_primal", "local",
)
RADICALS = ("jacobson_radical", "nilpotent_set", "lower_nilradical", "upper_nilradical")


def _bucket(order: int) -> str:
    """verify_axioms order bucket: n <= 32, 32 < n <= 128, n > 128."""
    return "le32" if order <= 32 else "64-128" if order <= 128 else "ge256"


# Tags keep only what a metric needs from one call.
_TAGGERS = {
    "table.verify_axioms": lambda args, out: (args[0].order, out.passed),
    "iso.is_isomorphic": lambda args, out: "undecided" if out.isomorphic is None else out.reason,
    "enumeration.enumerate_unital": lambda args, out: len(out),
}


def _modules():
    return [importlib.import_module(f"finring.{info.name}")
            for info in pkgutil.iter_modules(finring.__path__)]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, tag]
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, tagger = self.spans, self._stack, _TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if tagger is not None:
                span[4] = tagger(args, out)
            return out

        return traced

    def __enter__(self):
        modules = _modules()
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules + [finring]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()
        return False


def dump_spans(path, tracers) -> None:
    """Write the spans of each traced iteration, names stored once."""
    names = sorted({s[0] for t in tracers for s in t.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "columns": ["name", "parent", "start", "end", "tag"],
            "names": names,
            "iterations": [[[index[s[0]], *s[1:]] for s in t.spans] for t in tracers],
        }, fh)


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one traced iteration's spans.

    busy_s counts only the outermost span of a name, so a function nested in
    itself is not counted twice; self_s is a span's duration minus its direct
    children's.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for i, (name, parent, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            busy[name] += end - start

    m = {}

    def put(name, *keys):
        for key in keys:
            src = {"calls": calls, "busy_s": busy, "self_s": self_s}[key]
            m[f"{name}.{key}"] = src.get(name, 0)

    # a call that raised has no tag
    va = [s for s in spans if s[0] == "table.verify_axioms" and s[4] is not None]
    put("table.verify_axioms", "calls", "busy_s")
    for bucket in BUCKETS:
        inside = [s for s in va if _bucket(s[4][0]) == bucket]
        m[f"table.verify_axioms.calls.{bucket}"] = len(inside)
        m[f"table.verify_axioms.busy_s.{bucket}"] = sum(s[3] - s[2] for s in inside)
    m["table.verify_axioms.reject_ratio"] = (
        sum(1 for s in va if not s[4][1]) / len(va) if va else 0.0)
    put("table.quotient", "calls", "self_s")

    put("presentation.build_ring", "calls", "busy_s", "self_s")
    put("presentation.bounded_ideal_span", "busy_s")
    put("howell.howell", "calls", "busy_s")

    put("properties.profile", "self_s")
    put("properties.is_ps_i", "busy_s")
    for w in WITNESSES:
        put(f"properties.{w}_witness", "busy_s")
    for r in RADICALS:
        put(f"properties.{r}", "busy_s")

    put("peirce.peirce", "busy_s", "self_s")

    iso = [s for s in spans if s[0] == "iso.is_isomorphic"]
    put("iso.is_isomorphic", "calls", "busy_s", "self_s")
    m["iso.is_isomorphic.undecided"] = sum(1 for s in iso if s[4] == "undecided")
    m["iso.is_isomorphic.by_fingerprint"] = sum(
        1 for s in iso if (s[4] or "").startswith("fingerprint"))
    put("iso.fingerprint", "calls", "busy_s")

    enum_ids = {i for i, s in enumerate(spans) if s[0] == "enumeration.enumerate_unital"}
    put("enumeration.enumerate_unital", "self_s")
    m["enumeration.tables"] = sum(1 for s in va if s[1] in enum_ids)
    m["enumeration.classes"] = sum(spans[i][4] or 0 for i in enum_ids)
    dedup = sum(1 for s in iso if s[1] in enum_ids)
    m["enumeration.dedup_iso_calls"] = dedup
    m["enumeration.dedup_useful_ratio"] = m["enumeration.classes"] / dedup if dedup else 0.0

    put("ringio.loads_ring", "self_s")
    put("ringio.dumps_ring", "busy_s")
    put("expr.parse_ring_expr", "self_s")
    m["construct.self_s"] = sum(v for k, v in self_s.items() if k.startswith("construct."))
    put("corpus.verify_corpus", "self_s")
    m["trace.spans"] = len(spans)
    return m
