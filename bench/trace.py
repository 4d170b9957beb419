"""Span recording at diracpol's module boundaries, for the traced run only.

The tracer replaces each function named in ``TARGETS``, wherever a diracpol
module binds it, with a wrapper that records a span: name, start, end,
parent, a work count taken from the result, and whether it raised
``ConvergenceError``.  Rebinding the module attribute also catches calls
made inside the defining module.  Spans of one op stay in memory; the op's
layer statistics are folded into running totals when it ends, and the spans
of the first op are kept to be written out.

A layer's self time is its busy time minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass


def _terms(result) -> int:
    """3F2 or Sturmian terms as the result's SeriesDiagnostics reports them."""
    try:
        return int(result[1].terms_used)
    except (TypeError, IndexError, AttributeError):
        return 0


# (module, attribute, work count of one call).  The span is named after the
# module's short name and the attribute, e.g. "sturmian.roots_genlaguerre".
TARGETS = (
    ("diracpol.specfun", "hyp3f2_unit", _terms),
    ("diracpol.specfun", "gamma_ratio", None),
    ("diracpol.specfun", "log_gamma", None),
    ("diracpol.specfun", "laguerre", None),
    ("diracpol.atom", "gamma_kappa", None),
    ("diracpol.atom", "radial_PQ", None),
    ("diracpol.polarizability", "polarizability_planar", None),
    ("diracpol.polarizability", "polarizability_spatial", None),
    ("diracpol.polarizability", "r_channel_closed", None),
    ("diracpol.polarizability", "polarizability_sturmian", None),
    ("diracpol.sturmian", "r_channel_series", _terms),
    ("diracpol.sturmian", "first_order_integral", None),
    ("diracpol.sturmian", "first_order_integral_quadrature", None),
    ("diracpol.sturmian", "gauss_laguerre_integral", None),
    ("diracpol.sturmian", "roots_genlaguerre", None),
    ("diracpol.tablegen", "generate_table", len),
    ("diracpol.tablegen", "propagate_uncertainty", None),
    ("diracpol.tablegen", "format_scaled", None),
    ("diracpol.tablegen", "rows_to_csv", None),
    ("diracpol.cli", "run", None),
)
SPAN_NAMES = tuple(f"{module.rsplit('.', 1)[1]}.{attr}" for module, attr, _ in TARGETS)
CLOSED_FORM = ("polarizability.polarizability_planar", "polarizability.polarizability_spatial", "polarizability.r_channel_closed")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at top level
    count: int = 0
    error: bool = False


@dataclass
class LayerStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    errors: int = 0
    count: int = 0


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo = lo
        cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Calls, busy time, self time, errors and work count per span name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    stats: dict[str, LayerStats] = {}
    for i, span in enumerate(spans):
        s = stats.setdefault(span.name, LayerStats())
        busy = span.end - span.start
        s.calls += 1
        s.busy += busy
        s.self_time += busy - _covered(children.get(i, []), span.start, span.end)
        s.errors += span.error
        s.count += span.count
    return stats


def closed_calls_in_table(spans: list[Span]) -> int:
    """Closed-form calls made under a generate_table span."""
    calls = 0
    for span in spans:
        if span.name not in CLOSED_FORM:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != "tablegen.generate_table":
            parent = spans[parent].parent
        calls += parent >= 0
    return calls


class Tracer:
    """Records spans from wrapped diracpol functions; see the module doc."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.first_op: list[Span] | None = None
        self.totals: dict[str, LayerStats] = {}
        self.table_closed_calls = 0
        self.ops = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        from diracpol import ConvergenceError

        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), 0.0, open_[-1] if open_ else -1)
            spans.append(span)
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            except ConvergenceError:
                span.error = True
                raise
            finally:
                span.end = clock()
                open_.pop()
            if count is not None:
                span.count = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target wherever a loaded diracpol module binds it, and
        restore the original bindings on exit.  Targets a future version no
        longer has are skipped."""
        restore = []
        try:
            for (module_name, attr, count), name in zip(TARGETS, SPAN_NAMES):
                try:
                    fn = getattr(importlib.import_module(module_name), attr)
                except (ImportError, AttributeError):
                    continue
                wrapper = self.wrap(name, fn, count)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "diracpol" or mod_name.startswith("diracpol.")):
                        continue
                    for binding, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, binding, wrapper)
                            restore.append((mod, binding, fn))
            yield self
        finally:
            for mod, binding, fn in reversed(restore):
                setattr(mod, binding, fn)

    def end_op(self) -> None:
        """Fold the finished op's spans into the totals and drop them."""
        for name, s in layer_stats(self.spans).items():
            t = self.totals.setdefault(name, LayerStats())
            t.calls += s.calls
            t.busy += s.busy
            t.self_time += s.self_time
            t.errors += s.errors
            t.count += s.count
        self.table_closed_calls += closed_calls_in_table(self.spans)
        if self.first_op is None:
            self.first_op = list(self.spans)
        self.spans.clear()
        self.ops += 1


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics, each per traced op (times in ms)."""
    n = max(tracer.ops, 1)
    get = lambda name: tracer.totals.get(name, LayerStats())  # noqa: E731
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        s = get(name)
        metrics[f"{name}.calls"] = s.calls / n
        metrics[f"{name}.busy_ms"] = 1e3 * s.busy / n
        metrics[f"{name}.self_ms"] = 1e3 * s.self_time / n
    for name in ("specfun.hyp3f2_unit", "sturmian.r_channel_series"):
        metrics[f"{name}.terms"] = get(name).count / n
        metrics[f"{name}.errors"] = get(name).errors / n
    closed = [get(name) for name in CLOSED_FORM]
    metrics["polarizability.closed.calls"] = sum(s.calls for s in closed) / n
    metrics["polarizability.closed.self_ms"] = 1e3 * sum(s.self_time for s in closed) / n
    rows = get("tablegen.generate_table").count
    metrics["tablegen.closed_calls_per_row"] = tracer.table_closed_calls / rows if rows else 0.0
    quadratures = get("sturmian.gauss_laguerre_integral").calls
    metrics["sturmian.node_cache_hit_ratio"] = (
        1.0 - get("sturmian.roots_genlaguerre").calls / quadratures if quadratures else 0.0
    )
    return metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import metrics in ms from ``python -X importtime`` output.

    A package's time is the cumulative time of its outermost modules, so a
    module imported inside another module of the same package is not counted
    twice.
    """
    entries = []  # (depth, name, self_us, cumulative_us), in printed order
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(fields[0]), int(fields[1])))

    def outermost_ms(package: str) -> float:
        # importtime prints a module after its imports, so walking backwards
        # visits every parent before its children.
        total = 0
        stack: list[tuple[int, bool]] = []
        for depth, name, _, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            match = name == package or name.startswith(package + ".")
            if match and not any(m for _, m in stack):
                total += cumulative
            stack.append((depth, match))
        return total / 1e3

    return {
        "import.diracpol_ms": outermost_ms("diracpol"),
        "import.numpy_ms": outermost_ms("numpy"),
        "import.scipy_ms": outermost_ms("scipy"),
        "import.diracpol_self_ms": sum(
            s for _, name, s, _ in entries if name == "diracpol" or name.startswith("diracpol.")
        )
        / 1e3,
    }
