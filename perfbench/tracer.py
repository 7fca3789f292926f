"""Per-layer tracing of lftmine from outside its source.

``Tracer.install`` replaces each traced function by a wrapper under its
name in every loaded ``lftmine`` module that binds it, so calls made
through ``from .x import f`` bindings and through module globals are both
seen; ``Path.read_text`` and ``Path.write_text`` are wrapped for file I/O.
Each call becomes a span (id, name, start, end, parent id, thread id,
extra), where the parent is the innermost open span of the same thread and
extra is a count taken from the call's arguments or result. Spans stay in
memory until ``layer_metrics`` folds them into the per-layer numbers.
"""

from __future__ import annotations

import importlib
import itertools
import pathlib
import sys
import threading
import time
from collections import defaultdict

# (module, function, extra): extra maps (args, kwargs, result) to the
# span's count, or is None when the span only needs timing
TARGETS = [
    ("dtree", "build_tree", lambda a, kw, r: _node_count(r.root)),
    ("dtree", "evaluate_splits", lambda a, kw, r: len(r)),
    ("dtree", "prune_tree", None),
    ("dtree", "prune_with_ladder", None),
    ("dtree", "upper_error_bound", lambda a, kw, r: (a, tuple(sorted(kw.items())))),
    ("pipeline", "evaluate_many", None),
    ("pipeline", "record_for", None),
    ("pipeline", "validation_report_csv", None),
    ("crush", "simulate_crush", lambda a, kw, r: len(r.x)),
    ("crush", "hollow_trace", None),
    ("metrics", "compute_metrics", None),
    ("rules", "extract_rules", lambda a, kw, r: len(r)),
    ("rules", "validate_rule", lambda a, kw, r: len(r.designs)),
    ("labeling", "label_all", None),
    ("labeling", "label_metrics", None),
    ("labeling", "label_dataset", None),
    ("doe", "lhs_sample", lambda a, kw, r: len(r)),
    ("svgplot", "scatter_svg", None),
    ("svgplot", "bar_svg", None),
]
IO_TARGETS = [
    ("write_text", "io.write", lambda a, kw, r: len(a[1].encode(kw.get("encoding") or "utf-8"))),
    ("read_text", "io.read", None),
]
CLI_COMMANDS = ("pipeline", "sample", "evaluate", "label", "train", "prune", "rules", "validate", "hollow-report")

PRUNE = {"dtree.prune_tree", "dtree.prune_with_ladder"}
VALIDATE = {"rules.validate_rule", "pipeline.validation_report_csv"}
LABELING = {"labeling.label_all", "labeling.label_metrics", "labeling.label_dataset"}
SVG = {"svgplot.scatter_svg", "svgplot.bar_svg"}

# per-layer metric -> (unit, traced functions it needs)
LAYER_METRICS = {
    "dtree.prune.s": ("s", PRUNE),
    "dtree.bound_calls": ("count", {"dtree.upper_error_bound"}),
    "dtree.bound_distinct": ("count", {"dtree.upper_error_bound"}),
    "dtree.bound_reuse_ratio": ("ratio", {"dtree.upper_error_bound"}),
    "dtree.build_tree.s": ("s", {"dtree.build_tree"}),
    "dtree.split_nodes": ("count", {"dtree.evaluate_splits"}),
    "dtree.split_candidates": ("count", {"dtree.evaluate_splits"}),
    "dtree.nodes": ("count", {"dtree.build_tree"}),
    "evaluate.s": ("s", {"pipeline.evaluate_many"}),
    "evaluate.busy_s": ("s", {"pipeline.evaluate_many", "pipeline.record_for"}),
    "evaluate.threads": ("count", {"pipeline.evaluate_many", "pipeline.record_for"}),
    "crush.designs": ("count", {"crush.simulate_crush"}),
    "crush.trace_samples": ("count", {"crush.simulate_crush"}),
    "crush.simulate_crush.s": ("s", {"crush.simulate_crush"}),
    "metrics.compute_metrics.s": ("s", {"metrics.compute_metrics"}),
    "crush.hollow_designs": ("count", {"crush.hollow_trace"}),
    "rules.extract.s": ("s", {"rules.extract_rules"}),
    "rules.count": ("count", {"rules.extract_rules"}),
    "rules.validate.s": ("s", VALIDATE),
    "rules.validation_designs": ("count", {"rules.validate_rule"}),
    "rules.evals_per_validation_design": ("ratio", VALIDATE | {"crush.simulate_crush"}),
    "labeling.s": ("s", LABELING),
    "labeling.calls": ("count", LABELING),
    "doe.lhs_sample.s": ("s", {"doe.lhs_sample"}),
    "doe.designs": ("count", {"doe.lhs_sample"}),
    "io.write_s": ("s", {"io.write"}),
    "io.read_s": ("s", {"io.read"}),
    "io.files_written": ("count", {"io.write"}),
    "io.bytes_written": ("bytes", {"io.write"}),
    "svgplot.s": ("s", SVG),
    **{f"cli.{cmd}.s": ("s", set()) for cmd in CLI_COMMANDS},
}
# counts that must repeat exactly between traced runs of one input
EXACT_COUNTS = (
    "dtree.bound_calls", "dtree.bound_distinct", "dtree.split_nodes", "dtree.split_candidates",
    "dtree.nodes", "crush.designs", "crush.trace_samples", "crush.hollow_designs", "rules.count",
    "rules.validation_designs", "labeling.calls", "doe.designs", "io.files_written", "io.bytes_written",
)


def _node_count(node: object) -> int:
    left = getattr(node, "left", None)
    return 1 if left is None else 1 + _node_count(left) + _node_count(node.right)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extra=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            count = None if extra is None else extra(args, kwargs, result)
            spans.append((sid, name, start, end, parent, threading.get_ident(), count))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "lftmine" or key.startswith("lftmine.")]
        for module_name, func_name, extra in TARGETS:
            name = f"{module_name}.{func_name}"
            try:
                fn = getattr(importlib.import_module(f"lftmine.{module_name}"), func_name, None)
            except ModuleNotFoundError:
                fn = None
            if fn is None:
                self.missing.add(name)
                continue
            wrapper = self.wrap(name, fn, extra)
            for module in modules:
                if vars(module).get(func_name) is fn:
                    self._undo.append((module, func_name, fn))
                    setattr(module, func_name, wrapper)
        for method, name, extra in IO_TARGETS:
            fn = getattr(pathlib.Path, method)
            self._undo.append((pathlib.Path, method, fn))
            setattr(pathlib.Path, method, self.wrap(name, fn, extra))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def layer_metrics(spans: list[tuple], missing: set[str]) -> dict[str, float | int | None]:
    """Fold one traced run's spans into the per-layer metrics.

    Times sum the spans of a layer that no other span of the same layer
    encloses, so nested or recursive calls count once. A metric whose
    traced functions no longer exist is None.
    """
    by_id = {s[0]: s for s in spans}
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def has_ancestor(s: tuple, names: set[str]) -> bool:
        parent = s[4]
        while parent is not None:
            p = by_id[parent]
            if p[1] in names:
                return True
            parent = p[4]
        return False

    def outermost(names: set[str]) -> list[tuple]:
        return [s for n in names for s in by_name[n] if not has_ancestor(s, names)]

    def seconds(names: set[str]) -> float:
        return sum((s[3] - s[2] for s in outermost(names)), 0.0)

    def counts(name: str) -> int:
        return sum(s[6] for s in by_name[name])

    bounds = by_name["dtree.upper_error_bound"]
    batches = [(s[2], s[3]) for s in by_name["pipeline.evaluate_many"]]
    designs = [s for s in by_name["pipeline.record_for"] if any(a <= s[2] <= b for a, b in batches)]
    validation_designs = counts("rules.validate_rule")
    validation_evals = sum(1 for s in by_name["crush.simulate_crush"] if has_ancestor(s, VALIDATE))
    values = {
        "dtree.prune.s": seconds(PRUNE),
        "dtree.bound_calls": len(bounds),
        "dtree.bound_distinct": len({s[6] for s in bounds}),
        "dtree.bound_reuse_ratio": len({s[6] for s in bounds}) / len(bounds) if bounds else 0.0,
        "dtree.build_tree.s": seconds({"dtree.build_tree"}),
        "dtree.split_nodes": len(by_name["dtree.evaluate_splits"]),
        "dtree.split_candidates": counts("dtree.evaluate_splits"),
        "dtree.nodes": counts("dtree.build_tree"),
        "evaluate.s": sum(b - a for a, b in batches),
        "evaluate.busy_s": sum(s[3] - s[2] for s in designs),
        "evaluate.threads": len({s[5] for s in designs}),
        "crush.designs": len(by_name["crush.simulate_crush"]),
        "crush.trace_samples": counts("crush.simulate_crush"),
        "crush.simulate_crush.s": seconds({"crush.simulate_crush"}),
        "metrics.compute_metrics.s": seconds({"metrics.compute_metrics"}),
        "crush.hollow_designs": len(by_name["crush.hollow_trace"]),
        "rules.extract.s": seconds({"rules.extract_rules"}),
        "rules.count": counts("rules.extract_rules"),
        "rules.validate.s": seconds(VALIDATE),
        "rules.validation_designs": validation_designs,
        "rules.evals_per_validation_design": (
            validation_evals / validation_designs if validation_designs else 0.0
        ),
        "labeling.s": seconds(LABELING),
        "labeling.calls": len(outermost(LABELING)),
        "doe.lhs_sample.s": seconds({"doe.lhs_sample"}),
        "doe.designs": counts("doe.lhs_sample"),
        "io.write_s": seconds({"io.write"}),
        "io.read_s": seconds({"io.read"}),
        "io.files_written": len(by_name["io.write"]),
        "io.bytes_written": counts("io.write"),
        "svgplot.s": seconds(SVG),
        **{f"cli.{cmd}.s": seconds({f"cli.{cmd}"}) for cmd in CLI_COMMANDS},
    }
    return {
        name: None if LAYER_METRICS[name][1] & missing else value
        for name, value in values.items()
    }


def self_times(spans: list[tuple]) -> dict[str, tuple[int, float, float]]:
    """Per span name: calls, inclusive seconds, and self seconds.

    A span's self time is its duration minus its direct children's, and a
    child always runs on its parent's thread, so self time is per thread.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]
    table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = table[s[1]]
        row[0] += 1
        row[1] += s[3] - s[2]
        row[2] += s[3] - s[2] - child_time[s[0]]
    return {name: tuple(row) for name, row in table.items()}
