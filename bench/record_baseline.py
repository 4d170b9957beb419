"""Write baseline.json, the machine the bounds were set on and the spread
measured there, and known_failures.jsonl, per workload and seed the checked
ops that miss the contract.

Usage: python3 bench/record_baseline.py --seeds 0-20 [--spread FILE ...]

The misses are computed without timing, with the same inputs and checks as
a run; run.py compares its own misses with this record.  A ``--spread`` file
is the ``--out`` of spread.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import sys
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench.run import KNOWN_FAILURES, _check, _input_key  # noqa: E402
from bench.spread import _seeds  # noqa: E402
from bench.workloads import CHECKED_OPS, SRC, inputs, make_op  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "baseline.json"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        return platform.processor()


def _misses(workload: str, seed: int) -> dict:
    """One line of known_failures.jsonl."""
    op = make_op(workload)
    stream = itertools.islice(inputs(workload, seed), CHECKED_OPS[workload])
    outs = array("d") if workload == "scan" else []
    for inp in stream:
        outs.append(op(inp))
    verdicts, checked, misses = _check(workload, seed, outs, {})
    passed = verdicts.count("pass")
    return {
        "workload": workload,
        "seed": seed,
        "checked": checked,
        "fail_ratio": 1.0 - passed / checked,
        "misses": [[_input_key(workload, inp), verdict, detail] for _, inp, verdict, detail in misses],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-20", type=_seeds)
    parser.add_argument("--spread", type=Path, nargs="*", default=[])
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import mpmath
    import numpy
    import scipy

    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
        },
        "spread": [json.loads(p.read_text()) for p in args.spread],
    }
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n")
    # table and cli-cold have no misses: every op matches its expected bytes.
    records = [_misses(w, s) for w in ("scan", "oracle") for s in args.seeds]
    KNOWN_FAILURES.write_text("".join(json.dumps(r) + "\n" for r in records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
