"""End-to-end orchestration: sample, evaluate, label, train, prune, rules.

Each stage is one function that computes its result and writes that
stage's files into the output directory. The CLI commands load a stage's
inputs from the files of the previous stage and call the same function;
``run_pipeline`` chains the functions on in-memory results:

    sample    designs.csv      sampled design variables
    evaluate  metrics.csv      designs + derived geometry + crash indicators
    label     dataset.csv      metrics.csv + the three grade columns
    train     tree_OBJ.json    unpruned tree (OBJ in eff/tea/light), plus .txt
              scatter_OBJ.svg  mass vs SEA scatter, one series per grade
    prune     pruned_OBJ.json  pruned tree, plus .txt and .dot renderings
    rules     rules_OBJ.json   all leaf rules + one selected rule per class
    validate  validation_OBJ.csv  sampled designs behind each selected rule

``run_pipeline`` adds summary.txt, rules.json (the three per-objective
rule documents in one file) and manifest.json (config echo + artifact
list). It removes any old manifest.json first and writes the new one
last, so only a finished run leaves one behind.

All floats are written with repr so a rerun with the same seed produces
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import typing
from collections.abc import Callable, Mapping, Sequence
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .crush import (
    SurrogateParams,
    crush_inputs,
    hollow_inputs,
    simulate_crush,
    surrogate_traces,
    write_trace,
)
from .doe import lhs_sample
from .dtree import (
    ATTRIBUTE_ORDER,
    PRUNE_CF_LADDER,
    RECALL_FLOOR,
    Dataset,
    DecisionTree,
    PruneResult,
    build_tree,
    format_tree,
    leaf_count,
    mean_class_recall,
    prune_tree,
    prune_with_ladder,
    save_tree,
    tree_depth,
    tree_to_dot,
)
from .errors import (
    BoundsError,
    InfeasibleRuleError,
    LftError,
    RuleNotFoundError,
    SchemaError,
)
from .geometry import (
    AL6063_T5,
    ALSI10MG,
    DESIGN_BOUNDS,
    INTEGER_VARIABLES,
    DerivedGeometry,
    DesignPoint,
    MaterialSpec,
    compute_mass,
    derive_geometry,
    tube_mass_kg,
)
from .labeling import CLASS_ORDER, OBJECTIVES, label_all, label_metrics
from .metrics import CrashMetrics, batch_metrics, compute_metrics
from .rules import (
    Rule,
    RuleValidation,
    extract_rules,
    format_rules,
    rules_doc,
    save_rules,
    select_rule,
    validate_rule,
)
from .svgplot import Series, bar_svg, scatter_svg

MATERIALS = {m.name: m for m in (AL6063_T5, ALSI10MG)}

DATASET_HEADER = (
    "index,n,m,d_mm,t_mm,h_mm,omega_deg,l_mm,mass_kg,tea_kj,sea_kj_per_kg,"
    "pm_kn,pcf_kn,cfe_pct,label_eff,label_tea,label_light"
)
METRICS_HEADER = DATASET_HEADER.rsplit(",", 3)[0]
DESIGNS_HEADER = "index,n,m,d_mm,t_mm,h_mm"

# published hollow-tube SEA reference points, kJ/kg by wall thickness mm
HOLLOW_SEA_BASELINES = {0.8: 7.50, 1.1: 9.76, 1.4: 11.03, 1.7: 12.90, 2.0: 13.64}
HOLLOW_THICKNESS_GRID = (0.8, 1.1, 1.4, 1.7, 2.0)

# fixed reference design for one-variable sweeps
SWEEP_ANCHOR = {"n": 3, "m": 4, "d": 2.0, "t": 1.1, "h": 3.0}
# grid points of a sweep over a continuous variable
SWEEP_POINTS = 9


def material_by_name(name: str) -> MaterialSpec:
    try:
        return MATERIALS[name]
    except KeyError:
        known = ", ".join(sorted(MATERIALS))
        raise SchemaError(f"unknown material {name!r}, known materials: {known}") from None


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the output directory."""

    seed: int = 0
    k: int = 150
    min_leaf: int = 2
    peak_window: float = 0.2
    recall_floor: float = RECALL_FLOOR
    cf_ladder: tuple[float, ...] = PRUNE_CF_LADDER
    tube_material: str = "Al6063-T5"
    lattice_material: str = "AlSi10Mg"
    surrogate: SurrogateParams = field(default_factory=SurrogateParams)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise BoundsError(f"seed={self.seed} must be non-negative")
        if self.k < 1:
            raise BoundsError(f"sample count k={self.k} must be at least 1")
        if self.min_leaf < 1:
            raise BoundsError(f"min_leaf={self.min_leaf} must be at least 1")
        if not 0 < self.peak_window <= 1:
            raise BoundsError(f"peak_window={self.peak_window} must be in (0, 1]")
        if not 0 < self.recall_floor <= 1:
            raise BoundsError(f"recall_floor={self.recall_floor} must be in (0, 1]")
        if not self.cf_ladder or any(not 0 < cf < 1 for cf in self.cf_ladder):
            raise BoundsError("cf_ladder must be non-empty with entries in (0, 1)")
        material_by_name(self.tube_material)
        material_by_name(self.lattice_material)

    @property
    def tube(self) -> MaterialSpec:
        return material_by_name(self.tube_material)

    @property
    def lattice(self) -> MaterialSpec:
        return material_by_name(self.lattice_material)


def config_to_dict(cfg: RunConfig) -> dict:
    return {**asdict(cfg), "cf_ladder": list(cfg.cf_ladder)}


def _check_keys(cls: type, doc: object, what: str) -> None:
    """Reject a non-object or unknown keys, in nested dataclass fields too."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} document must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise SchemaError(f"unknown {what} keys: {', '.join(unknown)}")
    for f in fields(cls):
        if is_dataclass(hints[f.name]) and f.name in doc:
            _check_keys(hints[f.name], doc[f.name], f.name)


def _coerce(value: object, hint: object) -> object:
    """value as the annotated type: scalars, tuple[T, ...], T | None, dataclasses."""
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        present = [f.name for f in fields(hint) if f.name in value]
        return hint(**{name: _coerce(value[name], hints[name]) for name in present})
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return tuple(_coerce(v, args[0]) for v in value)
    if args:  # T | None
        return None if value is None else _coerce(value, args[0])
    return hint(value)


def config_from_dict(doc: dict) -> RunConfig:
    """A RunConfig from a (partial) config document; missing keys keep their defaults."""
    _check_keys(RunConfig, doc, "config")
    try:
        return _coerce(doc, RunConfig)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed config value: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(doc)


@dataclass(frozen=True, slots=True)
class DesignRecord:
    """One fully evaluated design; labels empty until graded."""

    index: int
    point: DesignPoint
    omega_deg: float
    l_mm: float
    metrics: CrashMetrics
    labels: dict[str, str]

    def attribute_row(self) -> tuple[float, ...]:
        p = self.point
        values = {"d": p.d, "n": float(p.n), "m": float(p.m), "t": p.t, "h": p.h}
        return tuple(values[a] for a in ATTRIBUTE_ORDER)


def _geometry_and_mass(dp: DesignPoint, cfg: RunConfig) -> tuple[DerivedGeometry, float]:
    """Derived geometry and total mass (kg) of one design."""
    g = derive_geometry(dp)
    return g, compute_mass(dp, g, cfg.tube, cfg.lattice).total_mass


def record_for(index: int, dp: DesignPoint, cfg: RunConfig) -> DesignRecord:
    """One design evaluated and graded under the given index."""
    g, mass = _geometry_and_mass(dp, cfg)
    trace = simulate_crush(dp, g, cfg.tube, cfg.lattice, cfg.surrogate)
    m = compute_metrics(trace, mass, cfg.peak_window)
    return DesignRecord(
        index=index,
        point=dp,
        omega_deg=math.degrees(g.omega),
        l_mm=g.l,
        metrics=m,
        labels=label_all(m),
    )


# designs per kernel call: its arrays stay below 1 MB at the default sample
# step whatever the design count; larger calls were no faster at k=20 000
# and raised peak memory
EVAL_CHUNK = 64


def _surrogate_metrics(
    items: Sequence,
    inputs: Callable[[object], tuple],
    cfg: RunConfig,
    name: Callable[[int], str],
    trace_dir: Path | None = None,
) -> tuple[list[tuple], list[CrashMetrics]]:
    """Surrogate indicators of every item, EVAL_CHUNK items per kernel call.

    inputs(item) gives (mean force, crush distance, fold count, mass, ...)
    and may raise; the rows come back beside the metrics. The error of the
    first failing item i starts with name(i). Traces land in trace_dir as
    design_<i>.csv.
    """
    rows: list[tuple] = []
    metrics: list[CrashMetrics] = []
    for start in range(0, len(items), EVAL_CHUNK):
        failed = None
        for i, item in enumerate(items[start : start + EVAL_CHUNK], start):
            try:
                rows.append(inputs(item))
            except LftError as exc:
                failed = i, exc
                break
        chunk = rows[start:]
        if chunk:
            pm, z, folds, mass = list(zip(*chunk))[:4]
            batch = surrogate_traces(pm, z, folds, cfg.surrogate)
            metrics += batch_metrics(batch, mass, cfg.peak_window, lambda j: name(start + j))
            if trace_dir is not None:
                for j in range(len(batch)):
                    write_trace(batch.trace(j), trace_dir / f"design_{start + j}.csv")
        if failed is not None:
            i, exc = failed
            raise type(exc)(f"{name(i)}{exc}") from exc
    return rows, metrics


def _evaluate_name(i: int) -> str:
    return f"evaluate: design {i}: "


def _unnamed(i: int) -> str:
    return ""


def evaluate_many(
    points: Sequence[DesignPoint],
    cfg: RunConfig,
    trace_dir: str | Path | None = None,
    name: Callable[[int], str] = _evaluate_name,
) -> list[DesignRecord]:
    """Evaluate designs in input order, optionally dumping each trace.

    Traces land in trace_dir as design_<index>.csv. A failure names the
    design it happened on through name(index).
    """
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)

    def inputs(dp: DesignPoint) -> tuple:
        g, mass = _geometry_and_mass(dp, cfg)
        pm, z, folds = crush_inputs(dp, g, cfg.tube, cfg.lattice, cfg.surrogate)
        return pm, z, folds, mass, math.degrees(g.omega), g.l

    rows, metrics = _surrogate_metrics(points, inputs, cfg, name, trace_dir)
    return [
        DesignRecord(
            index=i, point=dp, omega_deg=omega_deg, l_mm=l_mm, metrics=m, labels=label_all(m)
        )
        for i, (dp, (*_, omega_deg, l_mm), m) in enumerate(zip(points, rows, metrics))
    ]


def write_designs_csv(points: Sequence[DesignPoint], path: str | Path) -> None:
    lines = [DESIGNS_HEADER]
    for i, p in enumerate(points):
        lines.append(f"{i},{p.n},{p.m},{p.d!r},{p.t!r},{p.h!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_rows(path: str | Path, lines: Sequence[str], width: int, parse: Callable) -> list:
    """parse() applied to the cells of every non-blank row after the header."""
    out = []
    for row, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise SchemaError(f"{path}: row {row}: expected {width} columns, got {len(parts)}")
        try:
            out.append(parse(parts))
        except ValueError as exc:
            raise SchemaError(f"{path}: row {row}: {exc}") from exc
    return out


def _design_point(parts: Sequence[str]) -> DesignPoint:
    # columns 1-5 of both the designs and the dataset tables
    return DesignPoint(
        n=int(parts[1]), m=int(parts[2]), d=float(parts[3]), t=float(parts[4]), h=float(parts[5])
    )


def read_designs_csv(path: str | Path) -> list[DesignPoint]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != DESIGNS_HEADER:
        raise SchemaError(f"{path}: expected header '{DESIGNS_HEADER}'")
    return _parse_rows(path, lines, 6, _design_point)


def _record_line(r: DesignRecord, labeled: bool) -> str:
    p, m = r.point, r.metrics
    cells = (
        f"{r.index},{p.n},{p.m},{p.d!r},{p.t!r},{p.h!r},{r.omega_deg!r},{r.l_mm!r},"
        f"{m.mass_kg!r},{m.tea_kj!r},{m.sea_kj_per_kg!r},{m.pm_kn!r},{m.pcf_kn!r},{m.cfe_pct!r}"
    )
    if labeled:
        cells += f",{r.labels['eff']},{r.labels['tea']},{r.labels['light']}"
    return cells


def write_dataset_csv(records: Sequence[DesignRecord], path: str | Path, labeled: bool = True):
    header = DATASET_HEADER if labeled else METRICS_HEADER
    lines = [header]
    lines.extend(_record_line(r, labeled) for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_dataset_csv(path: str | Path) -> list[DesignRecord]:
    """Read a metrics or dataset table; grade columns are optional."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] not in (DATASET_HEADER, METRICS_HEADER):
        raise SchemaError(f"{path}: unrecognized header")
    labeled = lines[0] == DATASET_HEADER

    def parse(parts: Sequence[str]) -> DesignRecord:
        point = _design_point(parts)
        metrics = CrashMetrics(
            mass_kg=float(parts[8]),
            tea_kj=float(parts[9]),
            sea_kj_per_kg=float(parts[10]),
            pm_kn=float(parts[11]),
            pcf_kn=float(parts[12]),
            cfe_pct=float(parts[13]),
        )
        return DesignRecord(
            index=int(parts[0]),
            point=point,
            omega_deg=float(parts[6]),
            l_mm=float(parts[7]),
            metrics=metrics,
            labels={"eff": parts[14], "tea": parts[15], "light": parts[16]} if labeled else {},
        )

    return _parse_rows(path, lines, 17 if labeled else 14, parse)


def relabel(records: Sequence[DesignRecord]) -> list[DesignRecord]:
    """Fill the grade columns from the stored indicator values."""
    return [
        DesignRecord(
            index=r.index,
            point=r.point,
            omega_deg=r.omega_deg,
            l_mm=r.l_mm,
            metrics=r.metrics,
            labels=label_all(r.metrics),
        )
        for r in records
    ]


def training_dataset(records: Sequence[DesignRecord], objective: str) -> Dataset:
    """Attribute table (d, n, m, t, h) with one objective's grades."""
    if objective not in OBJECTIVES:
        raise SchemaError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    missing = [r.index for r in records if objective not in r.labels]
    if missing:
        raise SchemaError(f"records not graded yet (e.g. index {missing[0]}); run labeling first")
    return Dataset(
        attributes=ATTRIBUTE_ORDER,
        rows=tuple(r.attribute_row() for r in records),
        labels=tuple(r.labels[objective] for r in records),
    )


def write_json_atomic(doc: dict, path: str | Path) -> None:
    """Write JSON via a sibling temp file and atomic rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def class_counts(records: Sequence[DesignRecord], objective: str) -> dict[str, int]:
    counts = {c: 0 for c in CLASS_ORDER}
    for r in records:
        counts[r.labels[objective]] += 1
    return counts


# sampled designs per selected rule unless a run asks for another count
VALIDATION_K = 5


def _validation_seed(seed: int, objective: str, label: str) -> int:
    # arbitrary fixed offsets so each rule gets its own stream
    return seed + 7919 * (OBJECTIVES.index(objective) * len(CLASS_ORDER) + CLASS_ORDER.index(label) + 1)


# second report column per objective, next to SEA
VALIDATION_SECOND = {"eff": "cfe_pct", "tea": "tea_kj", "light": "mass_kg"}


def validation_report_csv(
    objective: str, validations: Mapping[str, RuleValidation], cfg: RunConfig
) -> str:
    """Report table for the sampled rule checks: one row per design.

    Columns follow the printed validation tables: variables, SEA, the
    objective's second indicator, and the observed grade. The rule column
    is quoted because rule text contains commas.
    """
    second = VALIDATION_SECOND[objective]
    lines = [f"rule,no,d_mm,n,m,h_mm,t_mm,sea_kj_per_kg,{second},label"]
    no = 0
    for label in CLASS_ORDER:
        check = validations.get(label)
        if check is None:
            continue
        desc = check.rule.describe()
        for dp, observed in zip(check.designs, check.labels):
            no += 1
            met = record_for(0, dp, cfg).metrics
            lines.append(
                f'"{desc}",{no},{dp.d!r},{dp.n},{dp.m},{dp.h!r},{dp.t!r},'
                f"{met.sea_kj_per_kg!r},{getattr(met, second)!r},{observed}"
            )
    return "\n".join(lines) + "\n"


def _scatter_doc(records: Sequence[DesignRecord], objective: str) -> str:
    series = []
    for label in CLASS_ORDER:
        pts = tuple(
            (r.metrics.mass_kg, r.metrics.sea_kj_per_kg)
            for r in records
            if r.labels[objective] == label
        )
        if pts:
            series.append(Series(name=label, points=pts))
    return scatter_svg(
        series,
        title=f"mass vs SEA by grade ({objective})",
        x_label="mass, kg",
        y_label="SEA, kJ/kg",
    )


def run_sample(cfg: RunConfig, out_dir: str | Path) -> list[DesignPoint]:
    """Latin Hypercube designs; writes designs.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = lhs_sample(k=cfg.k, seed=cfg.seed)
    write_designs_csv(points, out / "designs.csv")
    return points


def run_evaluate(
    points: Sequence[DesignPoint],
    cfg: RunConfig,
    out_dir: str | Path,
    trace_dir: str | Path | None = None,
) -> list[DesignRecord]:
    """Crush model and indicators for every design; writes metrics.csv."""
    records = evaluate_many(points, cfg, trace_dir=trace_dir)
    write_dataset_csv(records, Path(out_dir) / "metrics.csv", labeled=False)
    return records


def run_label(records: Sequence[DesignRecord], out_dir: str | Path) -> list[DesignRecord]:
    """Grades under every objective; writes dataset.csv."""
    records = relabel(records)
    write_dataset_csv(records, Path(out_dir) / "dataset.csv", labeled=True)
    return records


def run_train(
    records: Sequence[DesignRecord], objective: str, cfg: RunConfig, out_dir: str | Path
) -> DecisionTree:
    """Unpruned tree; writes tree_OBJ.json, tree_OBJ.txt and scatter_OBJ.svg."""
    out = Path(out_dir)
    tree = build_tree(training_dataset(records, objective), min_leaf=cfg.min_leaf)
    save_tree(tree, out / f"tree_{objective}.json")
    (out / f"tree_{objective}.txt").write_text(format_tree(tree) + "\n", encoding="utf-8")
    (out / f"scatter_{objective}.svg").write_text(
        _scatter_doc(records, objective), encoding="utf-8"
    )
    return tree


def run_prune(
    tree: DecisionTree,
    records: Sequence[DesignRecord],
    objective: str,
    cfg: RunConfig,
    out_dir: str | Path,
    cf: float | None = None,
) -> PruneResult:
    """Prune along the config's ladder, or at one fixed cf.

    Writes pruned_OBJ.json, pruned_OBJ.txt and pruned_OBJ.dot.
    """
    out = Path(out_dir)
    data = training_dataset(records, objective)
    if cf is None:
        result = prune_with_ladder(tree, data, cfg.cf_ladder, cfg.recall_floor)
    else:
        pruned = prune_tree(tree, cf)
        result = PruneResult(tree=pruned, cf=cf, recall=mean_class_recall(pruned, data))
    save_tree(result.tree, out / f"pruned_{objective}.json")
    (out / f"pruned_{objective}.txt").write_text(format_tree(result.tree) + "\n", encoding="utf-8")
    (out / f"pruned_{objective}.dot").write_text(tree_to_dot(result.tree), encoding="utf-8")
    return result


def run_rules(
    tree: DecisionTree, objective: str, out_dir: str | Path
) -> tuple[list[Rule], dict[str, Rule]]:
    """Every leaf rule and the selected rule of each predicted class.

    Writes rules_OBJ.json and rules_OBJ.txt.
    """
    out = Path(out_dir)
    rules = extract_rules(tree)
    selected: dict[str, Rule] = {}
    for label in CLASS_ORDER:
        try:
            selected[label] = select_rule(rules, label, tree.attributes)
        except RuleNotFoundError:
            continue
    save_rules(rules, selected, out / f"rules_{objective}.json")
    (out / f"rules_{objective}.txt").write_text(format_rules(rules) + "\n", encoding="utf-8")
    return rules, selected


def run_validate(
    selected: Mapping[str, Rule],
    objective: str,
    cfg: RunConfig,
    out_dir: str | Path,
    k: int = VALIDATION_K,
) -> dict[str, RuleValidation]:
    """Check each selected rule on k designs sampled inside its region.

    Rules whose region misses the design box are skipped. Writes
    validation_OBJ.csv.
    """
    validations: dict[str, RuleValidation] = {}
    for label in CLASS_ORDER:
        if label not in selected:
            continue
        try:
            validations[label] = validate_rule(
                selected[label],
                labeler=lambda dp: label_metrics(record_for(0, dp, cfg).metrics, objective),
                k=k,
                seed=_validation_seed(cfg.seed, objective, label),
            )
        except InfeasibleRuleError:
            continue
    report = validation_report_csv(objective, validations, cfg)
    (Path(out_dir) / f"validation_{objective}.csv").write_text(report, encoding="utf-8")
    return validations


def average_fidelity(validations: Mapping[str, RuleValidation]) -> float | None:
    if not validations:
        return None
    return math.fsum(v.fidelity_pct for v in validations.values()) / len(validations)


# files the train, prune, rules and validate stages write per objective
OBJECTIVE_FILES = (
    "tree_{}.json", "tree_{}.txt", "scatter_{}.svg", "pruned_{}.json", "pruned_{}.txt",
    "pruned_{}.dot", "rules_{}.json", "rules_{}.txt", "validation_{}.csv",
)


@dataclass(frozen=True)
class PipelineResult:
    out_dir: Path
    records: list[DesignRecord]
    files: list[str]


def run_pipeline(
    cfg: RunConfig,
    out_dir: str | Path,
    objectives: Sequence[str] = OBJECTIVES,
    validation_k: int = VALIDATION_K,
    trace_dir: str | Path | None = None,
) -> PipelineResult:
    """Every stage for every objective, then summary.txt, rules.json and
    manifest.json.

    An old manifest.json is removed before the first file is written and
    the new one is written last, so a run that fails partway leaves a
    directory without a manifest.
    """
    out = Path(out_dir)
    (out / "manifest.json").unlink(missing_ok=True)
    points = run_sample(cfg, out)
    records = run_label(run_evaluate(points, cfg, out, trace_dir), out)
    files = ["designs.csv", "metrics.csv", "dataset.csv"]
    summary = [f"designs evaluated: {len(records)}"]
    rule_docs, validated, pruning, fidelity = {}, {}, {}, {}
    for objective in objectives:
        tree = run_train(records, objective, cfg, out)
        pruned = run_prune(tree, records, objective, cfg, out)
        rules, selected = run_rules(pruned.tree, objective, out)
        validations = run_validate(selected, objective, cfg, out, validation_k)
        files += [name.format(objective) for name in OBJECTIVE_FILES]
        average = average_fidelity(validations)
        rule_docs[objective] = rules_doc(rules, selected)
        validated[objective] = sum(len(v.designs) for v in validations.values())
        pruning[objective] = {"cf": pruned.cf, "recall": pruned.recall}
        fidelity[objective] = {
            **{label: v.fidelity_pct for label, v in validations.items()},
            "average": average,
        }

        counts = class_counts(records, objective)
        summary.append("")
        summary.append(f"objective {objective}: " + " ".join(f"{c}={counts[c]}" for c in CLASS_ORDER))
        summary.append(
            f"  tree: {leaf_count(tree.root)} leaves, depth {tree_depth(tree.root)}; "
            f"pruned: {leaf_count(pruned.tree.root)} leaves, cf={pruned.cf}, "
            f"recall={pruned.recall:.3f}"
        )
        for label, rule in selected.items():
            summary.append(f"  rule {label}: {rule.describe()}")
            if label in validations:
                summary.append(f"    fidelity: {validations[label].fidelity_pct:.1f}%")
        if average is not None:
            summary.append(f"  average fidelity: {average:.1f}%")
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    write_json_atomic(rule_docs, out / "rules.json")
    files += ["summary.txt", "rules.json"]

    manifest = {
        "package": "lftmine",
        "version": __version__,
        "config": config_to_dict(cfg),
        "objectives": list(objectives),
        "rows": {
            "designs": len(points),
            "evaluated": len(records),
            "labeled": len(records),
            "validated": validated,
        },
        "class_counts": {obj: class_counts(records, obj) for obj in objectives},
        "pruning": pruning,
        "fidelity_pct": fidelity,
        "artifacts": sorted(files),
    }
    write_json_atomic(manifest, out / "manifest.json")
    files.append("manifest.json")
    return PipelineResult(out_dir=out, records=records, files=files)


def hollow_baseline_sea(t: float) -> float:
    """Published hollow-tube SEA at wall thickness t, linear between knots."""
    knots = sorted(HOLLOW_SEA_BASELINES)
    if not knots[0] <= t <= knots[-1]:
        raise BoundsError(
            f"thickness t={t} outside baseline range [{knots[0]}, {knots[-1]}]"
        )
    return np.interp(t, knots, [HOLLOW_SEA_BASELINES[k] for k in knots]).item()


def hollow_rows(thicknesses: Sequence[float], cfg: RunConfig = RunConfig()) -> list[CrashMetrics]:
    """Indicators for the hollow tube at each wall thickness."""

    def inputs(t: float) -> tuple:
        return (*hollow_inputs(t, cfg.tube, cfg.surrogate), tube_mass_kg(t, cfg.tube))

    return _surrogate_metrics(thicknesses, inputs, cfg, _unnamed)[1]


@dataclass(frozen=True)
class HollowComparison:
    """Dataset-level SEA comparison against same-thickness hollow tubes."""

    baseline: str
    total: int
    above: int
    above_pct: float
    above_20: int
    above_50: int
    below: int
    max_increase_index: int
    max_increase_pct: float
    max_decrease_index: int
    max_decrease_pct: float

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "total": self.total,
            "above": self.above,
            "above_pct": self.above_pct,
            "above_20": self.above_20,
            "above_50": self.above_50,
            "below": self.below,
            "max_increase": {"index": self.max_increase_index, "pct": self.max_increase_pct},
            "max_decrease": {"index": self.max_decrease_index, "pct": self.max_decrease_pct},
        }


def run_hollow_report(
    cfg: RunConfig,
    out_dir: str | Path,
    records: Sequence[DesignRecord],
    paper_baselines: bool = False,
) -> HollowComparison:
    """Compare every evaluated design against its hollow-tube baseline.

    The baseline SEA at a design's wall thickness comes from the crush
    model by default, or from the published reference points (linearly
    interpolated) when paper_baselines is set. Writes hollow.csv with one
    row per design, hollow_grid.csv with the baseline curve on the
    standard thickness grid, hollow_summary.json with the counts, and
    hollow.svg charting them.
    """
    if not records:
        raise SchemaError("hollow report needs at least one evaluated design")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if paper_baselines:
        baselines = [hollow_baseline_sea(r.point.t) for r in records]
    else:
        baselines = [m.sea_kj_per_kg for m in hollow_rows([r.point.t for r in records], cfg)]
    deltas: list[float] = []
    lines = ["index,t_mm,sea_kj_per_kg,baseline_sea_kj_per_kg,delta_pct"]
    for r, base in zip(records, baselines):
        delta = 100.0 * (r.metrics.sea_kj_per_kg - base) / base
        deltas.append(delta)
        lines.append(
            f"{r.index},{r.point.t!r},{r.metrics.sea_kj_per_kg!r},{base!r},{delta!r}"
        )
    (out / "hollow.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    grid_lines = ["t_mm,surrogate_sea_kj_per_kg,reference_sea_kj_per_kg"]
    for t, m in zip(HOLLOW_THICKNESS_GRID, hollow_rows(HOLLOW_THICKNESS_GRID, cfg)):
        grid_lines.append(f"{float(t)!r},{m.sea_kj_per_kg!r},{hollow_baseline_sea(t)!r}")
    (out / "hollow_grid.csv").write_text("\n".join(grid_lines) + "\n", encoding="utf-8")

    best = max(range(len(deltas)), key=lambda i: deltas[i])
    worst = min(range(len(deltas)), key=lambda i: deltas[i])
    above = sum(1 for x in deltas if x > 0)
    report = HollowComparison(
        baseline="reference" if paper_baselines else "surrogate",
        total=len(deltas),
        above=above,
        above_pct=100.0 * above / len(deltas),
        above_20=sum(1 for x in deltas if x > 20.0),
        above_50=sum(1 for x in deltas if x > 50.0),
        below=sum(1 for x in deltas if x <= 0),
        max_increase_index=records[best].index,
        max_increase_pct=deltas[best],
        max_decrease_index=records[worst].index,
        max_decrease_pct=deltas[worst],
    )
    write_json_atomic(report.to_dict(), out / "hollow_summary.json")

    svg = bar_svg(
        categories=("above baseline", "above +20%", "above +50%", "at or below"),
        values=(report.above, report.above_20, report.above_50, report.below),
        title="designs vs hollow-tube SEA baseline",
        y_label="designs",
    )
    (out / "hollow.svg").write_text(svg, encoding="utf-8")
    return report


def sweep_values(variable: str) -> list[float]:
    if variable not in DESIGN_BOUNDS:
        raise SchemaError(f"unknown design variable {variable!r}")
    lo, hi = DESIGN_BOUNDS[variable]
    if variable in INTEGER_VARIABLES:
        return [float(v) for v in range(int(lo), int(hi) + 1)]
    return [float(v) for v in np.linspace(lo, hi, SWEEP_POINTS)]


def run_sweep(
    variable: str,
    cfg: RunConfig,
    out_dir: str | Path,
    values: Sequence[float] | None = None,
    anchor: Mapping[str, float] | None = None,
) -> list[DesignRecord]:
    """One-variable sweep with the other four variables held fixed.

    The fixed point defaults to SWEEP_ANCHOR; overrides outside the
    design box raise the usual bounds error. Writes a two-column CSV
    (variable value, SEA) and a connected scatter chart.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if values is None:
        values = sweep_values(variable)
    if not values:
        raise BoundsError("sweep needs at least one grid value")
    base = dict(SWEEP_ANCHOR)
    if anchor:
        unknown = sorted(set(anchor) - set(base))
        if unknown:
            raise SchemaError(f"unknown anchor variables: {', '.join(unknown)}")
        base.update(anchor)
    points = []
    for v in values:
        spec = dict(base)
        spec[variable] = int(v) if variable in INTEGER_VARIABLES else float(v)
        dp = DesignPoint(
            n=int(spec["n"]), m=int(spec["m"]), d=float(spec["d"]), t=float(spec["t"]), h=float(spec["h"])
        )
        points.append(dp)
    records = evaluate_many(points, cfg, name=_unnamed)
    lines = [f"{variable},sea_kj_per_kg"]
    for v, r in zip(values, records):
        cell = str(int(v)) if variable in INTEGER_VARIABLES else repr(float(v))
        lines.append(f"{cell},{r.metrics.sea_kj_per_kg!r}")
    (out / f"sweep_{variable}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    pts = tuple(
        (float(values[i]), records[i].metrics.sea_kj_per_kg) for i in range(len(records))
    )
    svg = scatter_svg(
        [Series(name="SEA", points=pts, connect=True)],
        title=f"SEA vs {variable} at the reference design",
        x_label=variable,
        y_label="SEA, kJ/kg",
    )
    (out / f"sweep_{variable}.svg").write_text(svg, encoding="utf-8")
    return records
