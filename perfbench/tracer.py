"""Layer tracing from outside the library: wrap public functions, keep spans in memory.

`Tracer.install` replaces each target function at its module attribute, at
every `from ... import` site inside the `agpir` package, and (for methods) on
its class; `uninstall` puts the originals back. Calls open spans only inside
a root span that the benchmark opens around its set-up and each operation,
so the benchmark's own output checks are never traced.

Two kinds of target:

* span targets record one span per call (name, start, end, parent, the
  operation it belongs to, and counts);
* leaf targets are hot and call no other target; their calls are aggregated
  under the enclosing span as call count, busy time and counts instead of
  one span per call.

A span's self time is its duration minus the time covered by its child spans
and by its outermost leaf calls. A label's busy time counts only its outermost
activations, so recursion or nesting of one label is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

MARK = "_perfbench_label"


def _table_symbols(args, kwargs, result) -> dict[str, int]:
    return {"symbols": sum(len(cell) for row in result for cell in row)}


def _matrix_entries(args, kwargs) -> int:
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _subsets_checked(args, kwargs, result) -> dict[str, int]:
    return {"subsets": result.checked}


def _products(args, kwargs, result) -> dict[str, int]:
    return {"products": len(result)}


def _curve_found(args, kwargs, result) -> dict[str, Any]:
    # Turned into `curves_tried` when the trace is summarised, off the clock.
    return {"found": (result.field.p, result.a, result.b)}


@dataclass(frozen=True)
class Target:
    label: str
    module: str
    attr: str  # "name" or "Class.method"
    leaf: bool = False
    counter: Optional[Callable] = None  # spans: (args, kwargs, result) -> counts
    pre_count: Optional[Callable] = None  # leaves: (args, kwargs) -> int, kind "entries"


TARGETS = (
    Target("pir_scheme.build_scheme", "agpir.pir_scheme", "build_scheme"),
    Target("pir_scheme.store", "agpir.pir_scheme", "store", counter=_table_symbols),
    Target("pir_scheme.make_queries", "agpir.pir_scheme", "make_queries", counter=_table_symbols),
    Target("pir_scheme.server_respond", "agpir.pir_scheme", "server_respond", leaf=True),
    Target("pir_scheme.decode", "agpir.pir_scheme", "decode"),
    Target("pir_scheme.scheme_descriptor", "agpir.pir_scheme", "scheme_descriptor"),
    Target("pir_scheme.verify_scheme", "agpir.pir_scheme", "verify_scheme"),
    Target(
        "pir_scheme.check_noise_containment",
        "agpir.pir_scheme",
        "check_noise_containment",
        counter=_products,
    ),
    Target("sim_harness.run_retrieval", "agpir.sim_harness", "run_retrieval"),
    Target("agcode.evaluation_code", "agpir.agcode", "evaluation_code"),
    Target(
        "agcode.subset_rank_check", "agpir.agcode", "subset_rank_check", counter=_subsets_checked
    ),
    Target("agcode.information_set", "agpir.agcode", "information_set"),
    Target("linalg.rref", "agpir.linalg", "rref", leaf=True, pre_count=_matrix_entries),
    Target("linalg.invert", "agpir.linalg", "invert"),
    Target("linalg.mat_vec", "agpir.linalg", "mat_vec", leaf=True),
    Target("function_space.eval_at", "agpir.function_space", "RationalFunction.eval_at", leaf=True),
    Target("function_space.divisor", "agpir.function_space", "RationalFunction.divisor", leaf=True),
    Target("curve.find_curve", "agpir.curve", "find_curve", counter=_curve_found),
    Target("curve.enumerate_points", "agpir.curve", "EllipticCurve.enumerate_points"),
    Target("curve.enumerate_points", "agpir.curve", "ProjectiveLine.enumerate_points"),
    Target("field.PrimeField.sqrt", "agpir.field", "PrimeField.sqrt", leaf=True),
    Target("rates.max_rate", "agpir.rates", "max_rate_g0"),
    Target("rates.max_rate", "agpir.rates", "max_rate_g1"),
)


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "outer", "failed",
                 "counts", "leaves", "covered")

    def __init__(self, id, parent, op, name, outer):
        self.id, self.parent, self.op, self.name, self.outer = id, parent, op, name, outer
        self.start = self.end = 0.0
        self.failed = 0
        self.counts: dict[str, Any] = {}
        self.leaves: dict[str, list] = {}  # label -> [calls, busy_s, entries]
        self.covered = 0.0  # time covered by child spans and outermost leaf calls

    def as_json(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
            "start": self.start, "end": self.end, "failed": self.failed,
            "counts": {k: list(v) if isinstance(v, tuple) else v for k, v in self.counts.items()},
            "leaves": {k: {"calls": c, "busy_s": t, "entries": e}
                       for k, (c, t, e) in self.leaves.items()},
        }


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *cls, name = target.attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    return owner, name


class Tracer:
    """Installs wrappers around the library and records spans while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._leaf_depth = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            owner, name = _resolve(target)
            original = owner.__dict__[name]
            wrapper = self._wrap_leaf(original, target) if target.leaf else self._wrap_span(
                original, target
            )
            setattr(wrapper, MARK, target.label)
            self._patch(owner, name, original, wrapper)
            if isinstance(owner, type):
                continue
            for mod in _library_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- recording -----------------------------------------------------------

    def root(self, name: str, op: Any):
        """Context manager for a benchmark-level span; library spans nest under it."""
        return _Root(self, name, op)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None,
                    parent.op if parent else None, name, self._depth[name] == 0)
        self.spans.append(span)
        self._stack.append(span)
        self._depth[name] += 1
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self._depth[span.name] -= 1
        if self._stack:
            self._stack[-1].covered += span.end - span.start

    def _wrap_span(self, fn, target: Target):
        label, counter = target.label, target.counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(label)
            leaf_depth, self._leaf_depth = self._leaf_depth, 0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed += 1
                raise
            finally:
                self._leaf_depth = leaf_depth
                self._close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def _wrap_leaf(self, fn, target: Target):
        label, pre_count = target.label, target.pre_count
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            top = self._stack[-1]
            entries = pre_count(args, kwargs) if pre_count is not None else 0
            outer_label = depth[label] == 0
            outer_leaf = self._leaf_depth == 0
            depth[label] += 1
            self._leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[label] -= 1
                self._leaf_depth -= 1
                agg = top.leaves.get(label)
                if agg is None:
                    agg = top.leaves[label] = [0, 0.0, 0]
                agg[0] += 1
                agg[2] += entries
                if outer_label:
                    agg[1] += dt
                if outer_leaf:
                    top.covered += dt

        return wrapper

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: calls, busy_s, self_s, failed and summed counts."""
        out: defaultdict[str, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            row = out[span.name]
            duration = span.end - span.start
            row["calls"] += 1
            row["failed"] += span.failed
            row["self_s"] += duration - span.covered
            if span.outer:
                row["busy_s"] += duration
            for kind, value in span.counts.items():
                if kind == "found":
                    row["curves_tried"] += curves_tried(*value)
                else:
                    row[kind] += value
            for label, (calls, busy, entries) in span.leaves.items():
                leaf = out[label]
                leaf["calls"] += calls
                leaf["busy_s"] += busy
                leaf["entries"] += entries
        return out


class _Root:
    def __init__(self, tracer: Tracer, name: str, op: Any):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        self.span = self.tracer._open(self.name)
        self.span.op = self.op
        return self.span

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False


def curves_tried(p: int, a: int, b: int) -> int:
    """Smooth curves `find_curve` tests before and including y^2 = x^3 + a x + b."""
    tried = 0
    for a2 in range(a + 1):
        a3 = 4 * a2 * a2 * a2 % p
        for b2 in range(p if a2 < a else b + 1):
            if (a3 + 27 * b2 * b2) % p:
                tried += 1
    return tried


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "agpir" or name.startswith("agpir."))]


def installed_wrappers() -> list[str]:
    """Every library attribute that currently holds a benchmark wrapper."""
    found = []
    for mod in _library_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{k}" for k, v in vars(value).items()
                          if hasattr(v, MARK)]
    return found
