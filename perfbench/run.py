"""Benchmark for the lftmine batch chain.

Usage, from the repository root:

    python3 perfbench/run.py --workload staged-k150 --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 60

One invocation measures one workload set: it times a fresh interpreter's
``import lftmine.cli`` plus ``build_parser()`` several times, runs the
workload in one child process (``worker.py``) for about ``--seconds``
seconds, checks every run's artifacts outside the timed interval, prints
each metric with its unit, and ends with one JSON line. ``--trace 1``
reports the per-layer metrics of traced runs instead of the end-to-end
ones. See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_run, digest
from tracer import EXACT_COUNTS, LAYER_METRICS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

PROBE = (
    "import time; t0 = time.perf_counter(); import lftmine.cli as c; "
    "c.build_parser(); print(repr(time.perf_counter() - t0))"
)
# whole invocation, probes and checks included, stays below this
DEADLINE_S = 170.0
# fresh interpreters timed per set; setup_s is their median
SETUP_PROBES = 9


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def setup_times(probes: int) -> list[float]:
    """Seconds for a fresh interpreter to import lftmine.cli and build its parser."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout))
    return times


def launch(workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool,
           work: Path, timeout: float) -> dict:
    """Run one workload set in a worker process and return its result."""
    spec = {
        "workload": workload.name,
        "seeds": workload.seeds(seed),
        "src": str(SRC),
        "runs_dir": str(work / "runs"),
        "result": str(work / "result.json"),
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, env=child_env(), timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def judge(workload: Workload, result: dict, tiny: bool) -> None:
    """Attach each run's problems: errors, failed checks, digest mismatches."""
    first_digest: dict[int, tuple[int, str]] = {}
    for i, run in enumerate(result["runs"]):
        problems = [run["error"]] if run["error"] else check_run(workload, Path(run["out"]), tiny)
        run["digest"] = digest(Path(run["out"]))
        j, ref = first_digest.setdefault(run["seed"], (i, run["digest"]))
        if run["digest"] != ref:
            problems.append(f"artifacts differ from run {j} of the same seed")
        run["problems"] = problems
    traced = [r for r in result["runs"] if r["traced"]]
    for run in traced[1:]:
        changed = [m for m in EXACT_COUNTS if run["layers"][m] != traced[0]["layers"][m]]
        if changed:
            run["problems"].append(f"traced counts changed between runs: {changed}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def panel_mean(runs: list[dict], key: str) -> float:
    """Mean over the panel's seeds of each seed's median."""
    by_seed: dict[int, list[float]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], []).append(run[key])
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    for line in packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else []:
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return None


def measure(workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool = False,
            probes: int = SETUP_PROBES) -> dict:
    """One workload set: probes, worker, checks; prints the report, returns the result line."""
    started = time.perf_counter()
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = setup_times(probes)
        timeout = DEADLINE_S - (time.perf_counter() - started) - 20.0
        result = launch(workload, seed, seconds, trace, tiny, work, timeout)
        judge(workload, result, tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = result["runs"]
    failed = sum(1 for r in runs if r["problems"])
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {seed}, panel seeds {workload.seeds(seed)}, {len(runs)} runs, closed loop, one client")
    for i, r in enumerate(runs):
        mode = "traced" if r["traced"] else "untraced"
        status = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])[:300]
        print(f"  run {i:2d} seed {r['seed']:<7d} {mode:8s} {r['run_s']:9.4f} s  "
              f"cpu {r['cpu_s']:9.4f} s  sha256 {r['digest'][:16]}  {status}")
    for s in sorted({r["seed"] for r in runs}):
        print(f"  digest seed {s}: {next(r['digest'] for r in runs if r['seed'] == s)}")

    layers = next((r["layers"] for r in runs if r["traced"]), {})
    record = {
        "seed": seed,
        "commit": git_commit(),
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "evaluate_threads": layers.get("evaluate.threads"),
    }
    print("record " + json.dumps(record))

    metrics: dict[str, dict] = {}
    if trace:
        metrics = report_layers(runs)
    else:
        for key in ("run_s", "cpu_s"):
            q1, med, q3 = quartiles([r[key] for r in runs])
            metrics[key] = {"value": panel_mean(runs, key), "unit": "s"}
            print(f"{key:12s} {metrics[key]['value']:.4f} s  (panel mean of per-seed medians; "
                  f"all runs: median {med:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(runs)})")
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
        print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB  (worker process, all runs)")
        q1, med, q3 = quartiles(setups)
        metrics["setup_s"] = {"value": med, "unit": "s"}
        print(f"setup_s      {med:.4f} s  (median of {len(setups)} fresh interpreters; "
              f"q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"fail_ratio   {failed / len(runs):.4f}  ({failed} of {len(runs)} runs failed)")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def report_layers(runs: list[dict]) -> dict[str, dict]:
    """Per-layer metrics: counts of the first traced run, times as medians."""
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        values = [r["layers"][name] for r in traced]
        if values[0] is None:
            value = None
        elif unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:34s} {'null' if value is None else format(value, '.6g'):>12s} {unit}")
    overhead = (statistics.median(r["run_s"] for r in traced)
                - statistics.median(r["run_s"] for r in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"{'trace.overhead_s':34s} {overhead:12.6g} s  (traced minus untraced run_s)")
    print("self time by span (first traced run): calls, inclusive s, self s")
    table = sorted(traced[0]["self_times"].items(), key=lambda kv: -kv[1][2])
    for name, (calls, total, own) in table:
        print(f"  {name:34s} {calls:9d} {total:10.4f} {own:10.4f}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lftmine" / "cli.py").is_file():
        print(f"error: no lftmine sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(f"{'workload':18s}" + "".join(f"{m:>14s}" for m in (*results[names[0]]["metrics"], "fail_ratio")))
    for name, res in results.items():
        cells = [f"{m['value']:14.4f}" if m["value"] is not None else f"{'null':>14s}"
                 for m in res["metrics"].values()]
        print(f"{name:18s}" + "".join(cells) + f"{res['failed'] / res['attempted']:14.4f}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
