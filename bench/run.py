"""Benchmark of diracpol: end to end (``--trace 0``) or per layer (``--trace 1``).

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli-cold,table,scan,oracle} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary of the
checks goes to standard error.  The program is imported from ``src``; it is
not installed.  See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from bench.workloads import SINGLE_THREAD_BLAS  # noqa: E402

os.environ.update(SINGLE_THREAD_BLAS)  # before numpy loads

from bench import calibrate, checks  # noqa: E402
from bench.trace import Tracer, layer_metrics, parse_importtime  # noqa: E402
from bench.workloads import (  # noqa: E402
    CHECKED_OPS,
    MIN_OPS,
    ROOT,
    SRC,
    WORKLOADS,
    child_env,
    inputs,
    make_op,
    run_in_process,
)

KNOWN_FAILURES = Path(__file__).resolve().parent / "known_failures.jsonl"
TRACE_DIR = Path(__file__).resolve().parent / "traces"

# Fresh processes timed for one run's set-up, import and interpreter figures;
# each figure is the median of its samples.
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
INTERP_SAMPLES = 5
BLAS_SAMPLES = 3
# Warm in-process CLI runs timed for cli.run_ms: two of each command.
CLI_RUN_OPS = 10
# Traced ops per second of --seconds.  The count is fixed, not timed, so the
# traced counts repeat exactly; it is set so that the untraced and the traced
# pass together take about --seconds on the machine noted in baseline.json.
TRACE_OPS_PER_S = {"cli-cold": 20, "table": 7, "scan": 1800, "oracle": 18}
# Blocks the untraced and the traced pass are cut into, to alternate them.
TRACE_BLOCKS = 20
# Spans of the first traced op written to the trace file, at most.
MAX_WRITTEN_SPANS = 20_000

UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh processes, scaled to the reference
    speed by the kernel each probe times after its set-up, and unscaled."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True, timeout=120)
        setup, kernel = (float(x) for x in out.stdout.split())
        raw.append(setup)
        scaled.append(setup * calibrate.REFERENCE_S / kernel)
    return statistics.median(scaled), statistics.median(raw)


def _attempt(op, inp):
    """(output, None), or (None, error text) for an op that raised."""
    try:
        return op(inp), None
    except Exception as exc:  # an op that raises is counted as failed
        return None, f"{type(exc).__name__}: {exc}"


def _timed_loop(op, stream, seconds: float, min_ops: int, outs, probe, reference: float):
    """Run ops until ``seconds`` of op time have passed and ``min_ops`` are done.

    After each window of ops the speed ``probe`` is timed, and the window's
    latencies and wall time are scaled by ``reference`` over the probe time.
    Returns (scaled latencies in s, scaled wall time in s, raw latencies, raw
    wall time, {op index: error text}).  Outputs are appended to ``outs``
    (None or NaN for an op that raised).
    """
    raw = array("d")
    scaled = array("d")
    errors: dict[int, str] = {}
    missing = math.nan if isinstance(outs, array) else None
    clock = time.perf_counter
    raw_wall = scaled_wall = 0.0
    window_start = clock()
    first = 0
    for i, inp in enumerate(stream):
        t0 = clock()
        out, error = _attempt(op, inp)
        t1 = clock()
        if error:
            out = missing
            errors[i] = error
        raw.append(t1 - t0)
        outs.append(out)
        window = t1 - window_start
        done = raw_wall + window >= seconds and i + 1 >= min_ops
        if window < calibrate.WINDOW_S and not done:
            continue
        factor = reference / probe()
        scaled.extend(x * factor for x in raw[first:])
        raw_wall += window
        scaled_wall += window * factor
        first = i + 1
        if done:
            break
        window_start = clock()
    return scaled, scaled_wall, raw, raw_wall, errors


def _check(workload: str, seed: int, outs, errors: dict[int, str]):
    """Verdict of every op, and the (index, input, verdict, detail) of each
    checked op that did not pass.  Ops past the checked prefix get the
    cheaper check, with "ok" standing for anything but a failure."""
    n = len(outs)
    checked = min(CHECKED_OPS[workload] or n, n)
    verdicts = []
    misses = []
    expected: dict[tuple[str, ...], bytes | None] = {}
    golden = checks.GOLDEN_CSV.read_bytes()
    for i, inp in enumerate(itertools.islice(inputs(workload, seed), n)):
        out = outs[i]
        err = math.inf
        if i in errors:
            verdict = checks.FAIL
        elif workload == "table":
            verdict = checks.classify_bytes(0, out, golden)
        elif workload == "scan":
            if i < checked:
                verdict, err = checks.classify_scan(*inp, out)
            else:
                verdict = "ok" if checks.scan_plausible(*inp, out) else checks.FAIL
        elif workload == "oracle":
            verdict, err = checks.classify_crosscheck(float(inp[2]), out[0], out[1])
            if i >= checked and verdict != checks.FAIL:
                verdict = "ok"
        else:  # cli-cold: the same bytes as the command run in this process
            key = tuple(inp)
            if key not in expected:
                code, ref = run_in_process(inp)
                expected[key] = ref if code == 0 else None
            ref = expected[key]
            verdict = checks.FAIL if ref is None else checks.classify_bytes(out[0], out[1], ref)
        verdicts.append(verdict)
        if verdict == checks.FAIL or (i < checked and verdict != checks.PASS):
            misses.append((i, inp, verdict, errors.get(i, f"deviation {err:.3g}")))
    return verdicts, checked, misses


def _input_key(workload: str, inp) -> str:
    """Short text naming one input: "planar 68.0", a crosscheck's Z, or argv."""
    if workload == "scan":
        return f"{inp[0]} {inp[1]!r}"
    if workload == "oracle":
        return inp[2]
    return " ".join(inp) if inp else "table"


def _report(workload: str, seed: int, attempted: int, checked: int, verdicts, misses) -> None:
    """Summary of the checks on stderr, compared with the misses recorded
    for this seed in known_failures.jsonl."""
    counts = {v: verdicts[:checked].count(v) for v in (checks.PASS, checks.KNOWN, checks.FAIL)}
    failed = verdicts.count(checks.FAIL)
    print(
        f"{workload} seed {seed}: {attempted} ops, {failed} failed; checked the first {checked}: "
        f"{counts[checks.PASS]} pass, {counts[checks.KNOWN]} known defect, {counts[checks.FAIL]} fail "
        f"(fail_ratio {1.0 - counts[checks.PASS] / checked:.4g})",
        file=sys.stderr,
    )
    for i, inp, verdict, detail in misses:
        print(f"  op {i}: {verdict} {_input_key(workload, inp)} ({detail})", file=sys.stderr)
    if not KNOWN_FAILURES.is_file():
        return
    for line in KNOWN_FAILURES.read_text().splitlines():
        recorded = json.loads(line)
        if recorded["workload"] != workload or recorded["seed"] != seed or recorded["checked"] != checked:
            continue
        now = {_input_key(workload, inp) for i, inp, _, _ in misses if i < checked}
        before = {key for key, _, _ in recorded["misses"]}
        if now == before:
            print("  misses match known_failures.jsonl for this seed", file=sys.stderr)
        else:
            print(
                f"  differs from known_failures.jsonl: new {sorted(now - before)}, gone {sorted(before - now)}",
                file=sys.stderr,
            )


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    setup_s, raw_setup_s = _setup_seconds(workload, seed)

    op = make_op(workload)
    op(next(inputs(workload, seed)))  # untimed warm-up
    outs = array("d") if workload == "scan" else []
    if workload == "cli-cold":
        env = child_env()
        probe, reference = (lambda: calibrate.cold_seconds(env)), calibrate.REFERENCE_COLD_S
    else:
        probe, reference = calibrate.kernel_seconds, calibrate.REFERENCE_S
    latencies, wall, raw, raw_wall, errors = _timed_loop(
        op, inputs(workload, seed), seconds, MIN_OPS[workload], outs, probe, reference
    )
    if workload == "cli-cold":
        peak_kib = max((out[2] for out in outs if out is not None), default=0)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    verdicts, checked, misses = _check(workload, seed, outs, errors)
    _report(workload, seed, len(outs), checked, verdicts, misses)
    print(
        f"  unscaled: setup {raw_setup_s:.6g} s, p50 {1e3 * statistics.median(raw):.6g} ms, "
        f"{len(raw) / raw_wall:.6g} ops/s; host speed {raw_wall / wall:.3f} of reference",
        file=sys.stderr,
    )
    values = {
        "setup_s": setup_s,
        "p50_ms": 1e3 * statistics.median(latencies),
        "p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "ops_per_s": len(latencies) / wall,
        "peak_rss_mb": peak_kib / 1024.0,
        "pass_ratio": verdicts[:checked].count(checks.PASS) / checked,
    }
    return _result(len(outs), verdicts, {k: (v, UNITS[k]) for k, v in values.items()})


def _result(attempted: int, verdicts, metrics: dict) -> dict:
    failed = verdicts.count(checks.FAIL)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _import_metrics() -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import diracpol.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(parse_importtime(out.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _cli_metrics(seed: int) -> dict[str, float]:
    """cli.interp_ms, a cold ``python -c pass``; cli.run_ms, a warm
    in-process run of the cli-cold commands; and cli.blas_threads_ms, what
    default BLAS threading adds to a cold ``planar`` op."""
    def cold_ms(cmd: list[str], env: dict[str, str]) -> float:
        # No timeout: waiting with one polls in sleeps of up to 50 ms.
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        return 1e3 * (time.perf_counter() - t0)

    env = child_env()
    interp = statistics.median(cold_ms([sys.executable, "-c", "pass"], env) for _ in range(INTERP_SAMPLES))
    default_env = {k: v for k, v in env.items() if k not in SINGLE_THREAD_BLAS}
    planar = [sys.executable, "-m", "diracpol.cli", "planar", "--Z", "26"]
    pinned, default = [], []
    for _ in range(BLAS_SAMPLES):
        pinned.append(cold_ms(planar, env))
        default.append(cold_ms(planar, default_env))

    argvs = list(itertools.islice(inputs("cli-cold", seed), 2 * CLI_RUN_OPS))
    for argv in argvs[CLI_RUN_OPS:]:  # warm-up on other charges
        run_in_process(argv)
    runs = []
    for argv in argvs[:CLI_RUN_OPS]:
        t0 = time.perf_counter()
        run_in_process(argv)
        runs.append(1e3 * (time.perf_counter() - t0))
    return {
        "cli.interp_ms": interp,
        "cli.run_ms": statistics.median(runs),
        "cli.blas_threads_ms": statistics.median(default) - statistics.median(pinned),
    }


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    metrics = _import_metrics()
    metrics.update(_cli_metrics(seed))

    k = max(1, round(TRACE_OPS_PER_S[workload] * seconds))
    ops = list(itertools.islice(inputs(workload, seed), 2 * k + 1))
    op = make_op(workload, in_process=True)
    op(ops[2 * k])  # warm-up on an input neither pass uses

    # The traced ops are the seed's first k inputs and the untraced ones the
    # next k, so no input runs twice and no cache inside the program is warmed
    # for it.  Untraced and traced blocks alternate, so host drift affects
    # both passes alike.
    tracer = Tracer()
    outs: list = []
    errors: dict[int, str] = {}
    untraced_s = traced_s = 0.0
    block = max(1, k // TRACE_BLOCKS)
    for lo in range(0, k, block):
        hi = min(lo + block, k)
        t0 = time.perf_counter()
        for inp in ops[k + lo : k + hi]:
            _attempt(op, inp)
        untraced_s += time.perf_counter() - t0
        with tracer.installed():
            t0 = time.perf_counter()
            for i in range(lo, hi):
                out, error = _attempt(op, ops[i])
                outs.append(out)
                if error:
                    errors[i] = error
                tracer.end_op()
            traced_s += time.perf_counter() - t0
    untraced, traced = k / untraced_s, k / traced_s
    metrics.update(layer_metrics(tracer))
    metrics["trace.ops"] = float(k)
    metrics["trace.untraced_ops_per_s"] = untraced
    metrics["trace.traced_ops_per_s"] = traced
    metrics["trace.overhead_ops_per_s"] = untraced - traced
    _write_trace(workload, seed, tracer, metrics)

    if workload == "scan":
        outs = array("d", (math.nan if v is None else v for v in outs))
    verdicts, checked, misses = _check(workload, seed, outs, errors)
    _report(workload, seed, k, checked, verdicts, misses)
    return _result(k, verdicts, {name: (value, _unit(name)) for name, value in metrics.items()})


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ops_per_s"):
        return "1/s"
    if metric.endswith("_ratio") or metric.endswith("_per_row"):
        return "ratio"
    return "count"



def _write_trace(workload: str, seed: int, tracer: Tracer, metrics: dict) -> None:
    spans = tracer.first_op or []
    t0 = spans[0].start if spans else 0.0
    doc = {
        "workload": workload,
        "seed": seed,
        "metrics": metrics,
        "first_op_span_count": len(spans),
        "first_op_spans": [
            [s.name, s.start - t0, s.end - t0, s.parent, s.count, s.error] for s in spans[:MAX_WRITTEN_SPANS]
        ],
    }
    TRACE_DIR.mkdir(exist_ok=True)
    (TRACE_DIR / f"{workload}-seed{seed}.json").write_text(json.dumps(doc))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    if not (SRC / "diracpol" / "__init__.py").is_file():
        print(f"error: diracpol sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("DIRACPOL_ALPHA_INV", None)
    run = traced_run if args.trace else timed_run
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
