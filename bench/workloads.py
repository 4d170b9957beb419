"""Seeded inputs and the operation of each benchmark workload.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Inputs come from the seed alone, and the program
receives only the generated values, through its public functions or its
command line.

Importing this module does not import diracpol, so that a fresh process can
time that import itself (see ``probe.py``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("cli-cold", "table", "scan", "oracle")

# diracpol's default inverse fine-structure constant (CODATA 2014).  Inputs
# are generated without importing diracpol; a test checks the two agree.
ALPHA_INV = 137.035999139
Z_CRIT = {"planar": ALPHA_INV / 2.0, "spatial": ALPHA_INV}

# Inputs every scan run contains, first: the largest double below each
# critical charge, and two planar charges where the closed form is known to
# miss its 1e-15 contract.
SCAN_ANCHORS = (
    ("planar", math.nextafter(Z_CRIT["planar"], 0.0)),
    ("spatial", math.nextafter(Z_CRIT["spatial"], 0.0)),
    ("planar", 68.0),
    ("planar", 68.5),
)

# Leading ops whose outputs are checked against the full contract, and so
# make up pass_ratio; None means every op.  The prefix is fixed so that
# pass_ratio depends on the seed alone, not on how many ops a run completes.
CHECKED_OPS = {"cli-cold": None, "table": None, "scan": 48, "oracle": 400}

# Ops a timed run completes even past its deadline, so the checked prefix
# always exists and a percentile has samples beyond it.
MIN_OPS = {"cli-cold": 10, "table": 10, "scan": 48, "oracle": 400}

CLI_COMMANDS = ("planar", "spatial", "table", "crosscheck", "limits")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    z = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return min(z, math.nextafter(hi, 0.0))


def _uniform(rng: random.Random, hi: float) -> float:
    z = 0.0
    while z == 0.0:
        z = hi * rng.random()
    return z


def crosscheck_argv(z: float) -> list[str]:
    return ["crosscheck", "--Z", repr(z), "--tol", "1e-12", "--format", "json"]


def scan_inputs(seed: int):
    """(dimension, Z) pairs: the anchors, then alternating dimension, with Z
    drawn in turn log-uniform over [1e-6, Z_crit) and uniform over
    (0, Z_crit)."""
    rng = random.Random(f"scan:{seed}")
    yield from SCAN_ANCHORS
    for i in itertools.count():
        dim = "planar" if i % 2 == 0 else "spatial"
        zc = Z_CRIT[dim]
        yield dim, (_log_uniform(rng, 1e-6, zc) if i % 4 < 2 else _uniform(rng, zc))


def oracle_charges(seed: int):
    """Planar charges log-uniform over [1e-3, Z_crit).

    The checked prefix is a stratified sample, one charge per equal slice of
    log Z in shuffled order, so the share of weak-coupling charges in it is
    the same for every seed.
    """
    rng = random.Random(f"oracle:{seed}")
    n = CHECKED_OPS["oracle"]
    zc = Z_CRIT["planar"]
    lo, hi = math.log(1e-3), math.log(zc)
    strata = list(range(n))
    rng.shuffle(strata)
    for s in strata:
        yield min(math.exp(lo + (hi - lo) * (s + rng.random()) / n), math.nextafter(zc, 0.0))
    while True:
        yield _log_uniform(rng, 1e-3, zc)


def cli_argvs(seed: int):
    """CLI argument lists cycling through the five commands."""
    rng = random.Random(f"cli-cold:{seed}")
    for i in itertools.count():
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        if command in ("planar", "spatial"):
            yield [command, "--Z", repr(_log_uniform(rng, 1e-6, Z_CRIT[command]))]
        elif command == "table":
            yield ["table", "--format", "csv"]
        elif command == "crosscheck":
            yield crosscheck_argv(_log_uniform(rng, 1e-3, Z_CRIT["planar"]))
        else:
            yield ["limits"]


def inputs(workload: str, seed: int):
    """Infinite, deterministic input stream of ``workload``."""
    if workload == "scan":
        return scan_inputs(seed)
    if workload == "oracle":
        return (crosscheck_argv(z) for z in oracle_charges(seed))
    if workload == "cli-cold":
        return cli_argvs(seed)
    if workload == "table":
        # The paper fixes this input: Z = 1..68 at CODATA 2014.
        return itertools.repeat(None)
    raise ValueError(f"unknown workload {workload!r}")


# diracpol runs on one thread and does no BLAS-sized linear algebra, but
# importing numpy and scipy starts OpenBLAS thread pools.  With two vCPUs and
# busy neighbours those threads made a cold CLI op 0.43 s or 0.55-0.70 s
# depending on the other vCPU's load.  Every process of the benchmark runs
# with one BLAS thread; the traced run reports the difference as
# cli.blas_threads_ms.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: diracpol from
    ``src``, the default constant set and one BLAS thread."""
    env = dict(os.environ)
    env.pop("DIRACPOL_ALPHA_INV", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(SINGLE_THREAD_BLAS)
    return env


def run_in_process(argv: list[str]) -> tuple[int, bytes]:
    """Run the CLI in this process; returns (exit code, stdout bytes)."""
    from diracpol import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(list(argv))
    return code, buffer.getvalue().encode()


def run_cold(argv: list[str], env: dict[str, str]) -> tuple[int, bytes, int]:
    """Run the CLI in a fresh interpreter.

    Returns (exit code, stdout bytes, peak RSS of that process in KiB).
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "diracpol.cli", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        # wait4 rather than Popen.wait: it also returns the child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def make_op(workload: str, in_process: bool = False):
    """Callable performing one op of ``workload`` on one input.

    ``in_process`` replaces the cold CLI process of ``cli-cold`` by the same
    command run in this process; the other workloads always run in process.
    Public functions are looked up at each call, so the traced run's
    wrappers see every call.
    """
    import diracpol

    if workload == "scan":

        def op(inp):
            dim, z = inp
            fn = diracpol.polarizability_planar if dim == "planar" else diracpol.polarizability_spatial
            return fn(diracpol.AtomSpec(z, dim)).value_a0_cubed

        return op
    if workload == "table":
        return lambda _: diracpol.rows_to_csv(diracpol.generate_table(1, 68)).encode()
    if workload == "oracle" or (workload == "cli-cold" and in_process):
        import diracpol.cli  # noqa: F401  (part of the set-up being timed)

        return run_in_process
    if workload == "cli-cold":
        env = child_env()
        return lambda argv: run_cold(argv, env)
    raise ValueError(f"unknown workload {workload!r}")
