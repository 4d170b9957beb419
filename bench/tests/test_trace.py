"""Tests of the span arithmetic, import-time parsing and the tracer."""

import subprocess
import sys

import pytest

import diracpol
from bench import workloads
from bench.trace import Span, Tracer, layer_metrics, layer_stats, parse_importtime


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 8.0, 0, count=7),
        Span("b", 7.0, 9.5, 0, error=True),  # overlaps the other b
        Span("c", 12.0, 13.0, -1),
    ]
    stats = layer_stats(spans)
    assert stats["root"].busy == 10.0
    assert stats["root"].self_time == pytest.approx(10.0 - 3.0 - 4.5)
    assert stats["a"].self_time == pytest.approx(2.0)
    assert stats["leaf"].self_time == pytest.approx(1.0)
    assert (stats["b"].calls, stats["b"].busy, stats["b"].self_time) == (2, 5.5, 5.5)
    assert (stats["b"].count, stats["b"].errors) == (7, 1)
    assert stats["c"].self_time == 1.0


def test_importtime_counts_outermost_modules_of_a_package():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:        50 |        150 |     numpy",
            "import time:        20 |        170 |   diracpol.atom",
            "import time:        10 |         10 |       scipy",
            "import time:        30 |         40 |     scipy.special",
            "import time:         5 |         45 |   diracpol.sturmian",
            "import time:         7 |        222 | diracpol",
        ]
    )
    m = parse_importtime(stderr)
    assert m["import.numpy_ms"] == 0.150
    assert m["import.scipy_ms"] == 0.040
    assert m["import.diracpol_ms"] == 0.222
    assert m["import.diracpol_self_ms"] == pytest.approx(0.032)


def test_importtime_of_the_package_parses():
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import diracpol.cli"],
        env=workloads.child_env(), capture_output=True, text=True, check=True,
    )
    m = parse_importtime(out.stderr)
    assert m["import.diracpol_ms"] > m["import.diracpol_self_ms"] > 0.0


def test_traced_table_op_counts_repeat_and_bindings_are_restored():
    original = diracpol.polarizability.hyp3f2_unit
    op = workloads.make_op("table")
    tracer = Tracer()
    with tracer.installed():
        assert diracpol.polarizability.hyp3f2_unit is not original
        for _ in range(2):
            op(None)
            tracer.end_op()
    assert diracpol.polarizability.hyp3f2_unit is original
    m = layer_metrics(tracer)
    assert m["specfun.hyp3f2_unit.calls"] == 272.0
    assert m["specfun.hyp3f2_unit.terms"] == 385296.0
    assert m["polarizability.closed.calls"] == 272.0
    assert m["tablegen.closed_calls_per_row"] == 4.0
    assert m["tablegen.propagate_uncertainty.calls"] == 68.0
    assert m["sturmian.node_cache_hit_ratio"] == 0.0


def test_traced_crosscheck_counts_the_node_cache():
    op = workloads.make_op("oracle")
    tracer = Tracer()
    with tracer.installed():
        op(workloads.crosscheck_argv(12.3456))
        tracer.end_op()
    m = layer_metrics(tracer)
    assert m["sturmian.gauss_laguerre_integral.calls"] == 28.0
    assert m["sturmian.roots_genlaguerre.calls"] <= 2.0
    assert m["sturmian.node_cache_hit_ratio"] >= 1.0 - 2.0 / 28.0
    assert m["sturmian.r_channel_series.calls"] == 4.0
    assert m["cli.run.calls"] == 1.0
