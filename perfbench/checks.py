"""Output checks for one workload run, written without importing lftmine.

Each check re-derives a fact from the artifact files alone: grades from the
README threshold table, indicator identities, rule and tree agreement, the
manifest's file list, and the trace and hollow-report files. A check
returns a list of problems; an empty list means the run is correct. Files
beyond the ones checked are allowed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import OBJECTIVES, Workload

# README "Indicators and grading": (SEA floor, second-indicator test) per grade
SEA_E, SEA_G = 16.0, 13.64
SECOND_TESTS = {
    "eff": ("cfe_pct", lambda v: v >= 45.0, lambda v: v >= 35.0),
    "tea": ("tea_kj", lambda v: v >= 6.0, lambda v: v >= 4.45),
    "light": ("mass_kg", lambda v: v <= 0.45, lambda v: v <= 0.5),
}
ATTRIBUTE_COLUMNS = {"d": "d_mm", "n": "n", "m": "m", "t": "t_mm", "h": "h_mm"}
REL_TOL = 1e-9


def grade(objective: str, sea: float, second: float) -> str:
    _, excellent, good = SECOND_TESTS[objective]
    if sea >= SEA_E and excellent(second):
        return "e"
    if sea >= SEA_G and good(second):
        return "g"
    return "b"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_table(path: Path, k: int, labeled: bool) -> list[str]:
    """Row count, indicator identities and, when labeled, every grade."""
    rows = _read_rows(path)
    problems = []
    if len(rows) != k:
        problems.append(f"{path.name}: {len(rows)} rows, expected {k}")
    for row in rows:
        where = f"{path.name} index {row['index']}"
        v = {key: float(row[key]) for key in ("mass_kg", "tea_kj", "sea_kj_per_kg", "pm_kn", "pcf_kn", "cfe_pct")}
        if not _close(v["sea_kj_per_kg"] * v["mass_kg"], v["tea_kj"]):
            problems.append(f"{where}: sea*mass != tea")
        if not _close(v["cfe_pct"], 100.0 * v["pm_kn"] / v["pcf_kn"]):
            problems.append(f"{where}: cfe != 100*pm/pcf")
        if labeled:
            for obj in OBJECTIVES:
                expected = grade(obj, v["sea_kj_per_kg"], v[SECOND_TESTS[obj][0]])
                if row[f"label_{obj}"] != expected:
                    problems.append(f"{where}: label_{obj}={row[f'label_{obj}']}, regraded {expected}")
    return problems


def _walk(node: dict, values: dict[str, float]) -> str:
    while "attribute" in node:
        node = node["left"] if values[node["attribute"]] <= node["threshold"] else node["right"]
    return node["label"]


def _matches(rule: dict, values: dict[str, float]) -> bool:
    for attr, iv in rule["conditions"].items():
        if iv["lower"] is not None and values[attr] <= iv["lower"]:
            return False
        if iv["upper"] is not None and values[attr] > iv["upper"]:
            return False
    return True


def check_rules(out: Path, objective: str, rows: list[dict[str, str]]) -> list[str]:
    """Every row matches exactly one rule, whose label the pruned tree gives too."""
    rules = json.loads((out / f"rules_{objective}.json").read_text(encoding="utf-8"))["rules"]
    root = json.loads((out / f"pruned_{objective}.json").read_text(encoding="utf-8"))["root"]
    problems = []
    for row in rows:
        values = {a: float(row[col]) for a, col in ATTRIBUTE_COLUMNS.items()}
        hits = [r for r in rules if _matches(r, values)]
        if len(hits) != 1:
            problems.append(f"rules_{objective}: index {row['index']} matches {len(hits)} rules")
        elif hits[0]["label"] != _walk(root, values):
            problems.append(f"rules_{objective}: index {row['index']} rule and tree disagree")
    return problems


def check_validation(path: Path, objective: str) -> list[str]:
    second = SECOND_TESTS[objective][0]
    problems = []
    for row in _read_rows(path):
        expected = grade(objective, float(row["sea_kj_per_kg"]), float(row[second]))
        if row["label"] != expected:
            problems.append(f"{path.name} row {row['no']}: label {row['label']}, regraded {expected}")
    return problems


def check_manifest(out: Path) -> list[str]:
    listed = set(json.loads((out / "manifest.json").read_text(encoding="utf-8"))["artifacts"])
    present = {p.name for p in out.iterdir() if p.is_file() and p.name != "manifest.json"}
    if listed != present:
        return [f"manifest: unlisted {sorted(present - listed)}, missing {sorted(listed - present)}"]
    return []


def check_traces(trace_dir: Path, k: int) -> list[str]:
    problems = []
    for i in range(k):
        path = trace_dir / f"design_{i}.csv"
        if not path.is_file():
            problems.append(f"trace {path.name} missing")
            continue
        with path.open(encoding="utf-8") as fh:
            header, first = fh.readline().strip(), fh.readline()
        if header != "x_mm,F_kN" or float(first.split(",")[0]) != 0.0:
            problems.append(f"trace {path.name}: bad header or first x")
    return problems


def required_files(workload: Workload) -> list[str]:
    if workload.kind == "evaluate":
        return ["designs.csv", "metrics.csv", "dataset.csv"]
    per_objective = [f"{stem}_{obj}.{ext}" for obj in OBJECTIVES
                     for stem, ext in (("tree", "json"), ("pruned", "json"), ("rules", "json"), ("validation", "csv"))]
    if workload.kind == "pipeline":
        return ["designs.csv", "dataset.csv", "manifest.json", *per_objective]
    return ["designs.csv", "metrics.csv", "dataset.csv", "hollow_summary.json", *per_objective]


def check_run(workload: Workload, out: Path, tiny: bool = False) -> list[str]:
    """All checks that apply to one run of the workload."""
    size = workload.size(tiny)
    missing = [name for name in required_files(workload) if not (out / name).is_file()]
    if missing:
        return [f"missing {missing}"]
    problems = check_table(out / "dataset.csv", size.k, labeled=True)
    if (out / "metrics.csv").is_file():
        problems += check_table(out / "metrics.csv", size.k, labeled=False)
    if workload.kind != "evaluate":
        rows = _read_rows(out / "dataset.csv")
        for obj in OBJECTIVES:
            problems += check_rules(out, obj, rows)
            problems += check_validation(out / f"validation_{obj}.csv", obj)
    if (out / "manifest.json").is_file():
        problems += check_manifest(out)
    if workload.kind == "staged":
        problems += check_traces(out / "traces", size.k)
        total = json.loads((out / "hollow_summary.json").read_text(encoding="utf-8"))["total"]
        if total != size.k:
            problems.append(f"hollow_summary total {total}, expected {size.k}")
    return problems


def digest(out: Path) -> str:
    """sha256 over every artifact's relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
