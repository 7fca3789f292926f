"""Child process that runs one workload set in a closed loop.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the workload, its panel of program seeds, the source
directory, the artifact directory, the time budget and whether to trace.
Each run starts after the previous one ends and calls ``lftmine.cli.main``
once per argv of the workload's chain, in this process. Runs cycle over the
panel until it has been covered (and at least two runs made), then go on
while the next run is predicted to finish within the budget. With tracing,
runs of the first panel seed alternate untraced and traced. The result
JSON holds each run's timings, outcome and, for traced runs, the per-layer
metrics, plus this process's peak RSS.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(cli, chain: list[list[str]], tracer: Tracer | None) -> dict:
    """Run one chain; timings cover only the CLI calls."""
    gc.collect()
    sink = io.StringIO()
    error = None
    if tracer is not None:
        tracer.install()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in chain:
                main = cli.main if tracer is None else tracer.wrap(f"cli.{argv[0]}", cli.main)
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                if code != 0:
                    error = f"{' '.join(argv)}: exit {code}: {sink.getvalue()[-500:]}"
                    break
    except Exception as exc:  # a crash in the program is a failed run, not a harness error
        error = f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
    finally:
        t1, cpu1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.uninstall()
    return {"run_s": t1 - t0, "cpu_s": cpu1 - cpu0, "error": error}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import numpy

    import lftmine.cli as cli

    workload = WORKLOADS[spec["workload"]]
    seeds, traced = spec["seeds"], spec["trace"]
    runs_dir = Path(spec["runs_dir"])
    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        i = len(runs)
        seed = seeds[0] if traced else seeds[i % len(seeds)]
        tracer = Tracer() if traced and i % 2 == 1 else None
        out = runs_dir / f"run_{i:03d}"
        record = run_once(cli, workload.chain(str(out), seed, spec["tiny"]), tracer)
        record.update(seed=seed, out=str(out), traced=tracer is not None)
        if tracer is not None:
            record["layers"] = layer_metrics(tracer.spans, tracer.missing)
            record["self_times"] = self_times(tracer.spans)
        runs.append(record)
        done = len(runs)
        if done < max(2, len(seeds)):
            continue
        elapsed = time.perf_counter() - start
        if elapsed + sum(r["run_s"] for r in runs) / done > spec["seconds"]:
            break
    result = {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
