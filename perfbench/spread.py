"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 0-9 --out spread.json
    python3 perfbench/spread.py --workloads mine-k600 --seeds 0-4

Runs ``run.py`` once per workload and seed, one after another, with the
``run_seconds`` of BENCHMARK.json, and prints
for each metric the median, the quartiles and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json. ``--out`` writes the same
summary, with every run's values, as JSON. Without ``--workloads`` it runs
the workloads that BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            line = json.loads(proc.stdout.splitlines()[-1])
            if not line["correct"]:
                print(f"{name} seed {seed}: {line['failed']} of {line['attempted']} runs failed")
            for metric, v in line["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{m}={v['value']:.4f}" for m, v in line["metrics"].items()),
                  flush=True)
        summary[name] = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"  {name:16s} {metric:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:.4f}  bound {bounds.get(metric)}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
