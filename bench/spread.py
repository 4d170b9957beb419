"""Run-to-run spread of the end-to-end metrics, as used to set the bounds.

Runs ``run.py`` once per seed and workload, one run at a time, and reports
for each metric the median of its values and the distance between their
first and third quartile as a share of the median (``statistics.quantiles``
with n=4), next to the metric's bound in BENCHMARK.json.

Usage: python3 bench/spread.py --workloads scan,oracle --seeds 1-10 [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    parser.add_argument("--seconds", default=spec["run_seconds"], type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct\n{out.stderr}", file=sys.stderr)
            runs.append(result)
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            summary[workload][name] = {"median": statistics.median(values), "spread": s, "values": values}
            flag = "ok" if s < bound / 3 else ("within bound" if s <= bound else "OVER BOUND")
            print(f"{workload:9s} {name:12s} median {statistics.median(values):12.6g}  spread {s:7.4f}  "
                  f"bound {bound}  {flag}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds, "workloads": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
