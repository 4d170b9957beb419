"""Time one set-up in this fresh process: import diracpol and finish one
untimed warm-up op of a workload.  Prints the seconds taken, then the
seconds of the host-speed kernel (calibrate.py) timed right after.

Usage: python3 bench/probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench import workloads  # noqa: E402  (stdlib only; diracpol is not imported yet)


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    inp = next(workloads.inputs(workload, seed))
    start = time.perf_counter()
    workloads.make_op(workload, in_process=True)(inp)
    setup = time.perf_counter() - start
    from bench import calibrate

    print(repr(setup), repr(calibrate.kernel_seconds()))


if __name__ == "__main__":
    main()
