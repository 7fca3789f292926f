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
    N_TO_KN,
    SurrogateParams,
    hollow_inputs,
    mean_tube_force,
    simulate_crush,
    surrogate_traces,
    write_trace,
)
from .doe import VARIABLE_ORDER, design_points, lhs_sample
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
    RuleNotFoundError,
    SchemaError,
)
from .geometry import (
    AL6063_T5,
    ALSI10MG,
    DESIGN_BOUNDS,
    INTEGER_VARIABLES,
    LATTICE_GAP,
    MM3_TO_M3,
    TUBE_A,
    TUBE_H,
    DerivedGeometry,
    DesignPoint,
    MaterialSpec,
    check_design_point,
    compute_mass,
    derive_geometry,
    tube_mass_kg,
)
from .labeling import (
    CLASS_ORDER,
    GRADERS,
    OBJECTIVES,
    SECOND_INDICATOR,
    label_all,
    label_metrics,
)
from .metrics import CrashMetrics, compute_metrics, metric_columns
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


# the CSV column of each design variable
VARIABLE_COLUMNS = {"n": "n", "m": "m", "d": "d_mm", "t": "t_mm", "h": "h_mm"}
# the indicator columns, in CrashMetrics field order
METRIC_COLUMNS = tuple(METRICS_HEADER.split(",")[8:])


@dataclass(frozen=True, eq=False)
class DesignTable:
    """Evaluated designs as columns, one row per design.

    columns maps each column of DATASET_HEADER to one array: int64 for
    index, n and m, one-character strings for the label_* grade columns,
    float64 for the rest. The grade columns are absent until the table is
    graded.
    """

    columns: Mapping[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.columns["index"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def grades(self, objective: str) -> np.ndarray:
        return self.columns[f"label_{objective}"]


# designs per kernel call: its arrays stay below 1 MB at the default sample
# step whatever the design count; larger calls were no faster at k=20 000
# and raised peak memory. Only the kernel is chunked; geometry, mass and
# grading run over whole columns.
EVAL_CHUNK = 64


def _surrogate_metrics(
    pm: np.ndarray,
    z: np.ndarray,
    folds: Sequence[int],
    mass: np.ndarray,
    cfg: RunConfig,
    name: Callable[[int], str],
    trace_dir: Path | None = None,
) -> dict[str, np.ndarray]:
    """Indicator columns of designs given by their kernel inputs.

    Takes mean force, crush distance, fold count and mass per design and
    runs EVAL_CHUNK designs per kernel call. The error of the first
    failing design i starts with name(i). Traces land in trace_dir as
    design_<i>.csv.
    """
    parts = []
    for start in range(0, len(pm), EVAL_CHUNK):
        end = start + EVAL_CHUNK
        batch = surrogate_traces(pm[start:end], z[start:end], folds[start:end], cfg.surrogate)
        parts.append(
            metric_columns(batch, mass[start:end], cfg.peak_window, lambda j: name(start + j))
        )
        if trace_dir is not None:
            for j in range(len(batch)):
                write_trace(batch.trace(j), trace_dir / f"design_{start + j}.csv")
    columns = np.concatenate(parts, axis=1) if parts else np.empty((len(METRIC_COLUMNS), 0))
    # zip drops the last row, z_mm, which has no CSV column
    return dict(zip(METRIC_COLUMNS, columns))


def _evaluate_name(i: int) -> str:
    return f"evaluate: design {i}: "


def _unnamed(i: int) -> str:
    return ""


def _first_outside_box(design: np.ndarray) -> int:
    """First row of (n, m, d, t, h) that check_design_point rejects, or the row count."""
    bad = np.zeros(len(design), dtype=bool)
    for name, column in zip(VARIABLE_ORDER, design.T):
        lo, hi = DESIGN_BOUNDS[name]
        bad |= ~((lo <= column) & (column <= hi))
        if name in INTEGER_VARIABLES:
            bad |= column != np.trunc(column)
    return int(bad.argmax()) if bad.any() else len(design)


def _column_inputs(
    n: np.ndarray, m: np.ndarray, d: np.ndarray, t: np.ndarray, h: np.ndarray, cfg: RunConfig
) -> tuple:
    """(pm, z, folds, mass, omega_deg, l_mm) of in-box designs given as columns.

    The operations of derive_geometry, compute_mass and crush_inputs in
    the same order, so every value is the one-design path's float. atan2,
    sin, degrees and the tube force's t ** (5/3) run per element through
    math and **, because numpy's vectorized versions may round differently.
    """
    tube, lattice, p = cfg.tube, cfg.lattice, cfg.surrogate
    half_height = (TUBE_H - h) / (2 * n)
    half_diag = (TUBE_A - 2 * LATTICE_GAP) / (math.sqrt(2) * m)
    omega = list(map(math.atan2, half_height.tolist(), half_diag.tolist()))
    sin_omega = np.array(list(map(math.sin, omega)))
    l = half_height / sin_omega
    cell_height = (TUBE_H - h) / n
    rod_area = math.pi * d * d / 4.0
    lattice_vol = rod_area * (8 * m * m * n * l + (m + 1) ** 2 * n * cell_height)
    mass = tube_mass_kg(t, tube) + lattice_vol * MM3_TO_M3 * lattice.rho
    tube_force = np.array([mean_tube_force(v, tube) for v in t.tolist()])
    struts = (m + 1) ** 2 + 8 * m * m * sin_omega
    lattice_force = p.lattice_efficiency * lattice.sigma_flow * rod_area * struts * N_TO_KN
    pm = tube_force + p.interaction_factor * lattice_force
    folds = list(map(p.folds_for, n.astype(int).tolist()))
    omega_deg = np.array(list(map(math.degrees, omega)))
    return pm, p.crush_fraction * (TUBE_H - h), folds, mass, omega_deg, l


def evaluate_many(
    points: Sequence[DesignPoint],
    cfg: RunConfig,
    trace_dir: str | Path | None = None,
    name: Callable[[int], str] = _evaluate_name,
) -> DesignTable:
    """Evaluate designs in input order into an ungraded table.

    Traces land in trace_dir as design_<index>.csv. A failure names the
    design it happened on through name(index); every design before it is
    evaluated first, so the earliest failure is the one reported.
    """
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    design = np.array([(p.n, p.m, p.d, p.t, p.h) for p in points], dtype=float).reshape(-1, 5)
    stop = _first_outside_box(design)
    n, m, d, t, h = design[:stop].T
    pm, z, folds, mass, omega_deg, l_mm = _column_inputs(n, m, d, t, h, cfg)
    metrics = _surrogate_metrics(pm, z, folds, mass, cfg, name, trace_dir)
    if stop < len(points):
        try:
            check_design_point(points[stop])
        except BoundsError as exc:
            raise BoundsError(f"{name(stop)}{exc}") from exc
    columns = {"index": np.arange(stop), "n": n.astype(np.int64), "m": m.astype(np.int64)}
    columns.update(d_mm=d, t_mm=t, h_mm=h, omega_deg=omega_deg, l_mm=l_mm, **metrics)
    return DesignTable(columns)


def write_designs_csv(points: Sequence[DesignPoint], path: str | Path) -> None:
    lines = [DESIGNS_HEADER]
    for i, p in enumerate(points):
        lines.append(f"{i},{p.n},{p.m},{p.d!r},{p.t!r},{p.h!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# rows per block when a table is read or written: bounds the cell strings
# and Python numbers alive at once
CSV_BLOCK = 4096


def _ints(cells: Sequence[str]) -> np.ndarray:
    return np.array(list(map(int, cells)), dtype=np.int64)


def _floats(cells: Sequence[str]) -> np.ndarray:
    return np.array(list(map(float, cells)))


def _grades(cells: Sequence[str]) -> np.ndarray:
    unknown = set(cells).difference(CLASS_ORDER)
    if unknown:
        expected = ", ".join(CLASS_ORDER)
        raise ValueError(f"unknown grade {unknown.pop()!r}, expected one of {expected}")
    return np.array(cells, dtype="U1")


def _parse_columns(path: str | Path, lines: Sequence[str], names: Sequence[str]) -> dict:
    """The non-blank rows after the header as one array per column.

    index, n and m hold ints, label_* columns grades and the rest floats.
    The first row of the wrong width or with a cell that does not parse
    raises SchemaError naming its line number.
    """
    parsers = [
        _ints if name in ("index", "n", "m") else _grades if name.startswith("label_") else _floats
        for name in names
    ]
    width = len(names)
    body = [line for line in lines[1:] if line.strip()]
    blocks = [[parse(()) for parse in parsers]]
    try:
        for start in range(0, len(body), CSV_BLOCK):
            rows = [line.split(",") for line in body[start : start + CSV_BLOCK]]
            if any(len(parts) != width for parts in rows):
                raise ValueError("ragged rows")
            blocks.append([parse(column) for parse, column in zip(parsers, zip(*rows))])
        return {name: np.concatenate(column) for name, column in zip(names, zip(*blocks))}
    except (ValueError, OverflowError):
        pass
    # some row is bad: parse row by row to name the first one
    for row, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise SchemaError(f"{path}: row {row}: expected {width} columns, got {len(parts)}")
        try:
            for parse, cell in zip(parsers, parts):
                parse([cell])
        except (ValueError, OverflowError) as exc:
            raise SchemaError(f"{path}: row {row}: {exc}") from exc
    raise AssertionError("a column failed to parse but every row parses")


def read_designs_csv(path: str | Path) -> list[DesignPoint]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != DESIGNS_HEADER:
        raise SchemaError(f"{path}: expected header '{DESIGNS_HEADER}'")
    columns = _parse_columns(path, lines, DESIGNS_HEADER.split(","))
    return design_points({var: columns[name] for var, name in VARIABLE_COLUMNS.items()})


def write_dataset_csv(table: DesignTable, path: str | Path, labeled: bool = True) -> None:
    header = DATASET_HEADER if labeled else METRICS_HEADER
    columns = [table[name] for name in header.split(",")]
    # %s of a Python float is its repr
    row = ",".join(["%s"] * len(columns))
    blocks = [header]
    for start in range(0, len(table), CSV_BLOCK):
        cells = zip(*(column[start : start + CSV_BLOCK].tolist() for column in columns))
        blocks.append("\n".join([row % values for values in cells]))
    Path(path).write_text("\n".join(blocks) + "\n", encoding="utf-8")


def read_dataset_csv(path: str | Path) -> DesignTable:
    """Read a metrics or dataset table; grade columns are optional."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] not in (DATASET_HEADER, METRICS_HEADER):
        raise SchemaError(f"{path}: unrecognized header")
    return DesignTable(_parse_columns(path, lines, lines[0].split(",")))


def relabel(table: DesignTable) -> DesignTable:
    """The table with every grade column filled from its indicator columns."""
    sea = table["sea_kj_per_kg"].tolist()
    grades = {
        f"label_{obj}": np.array(
            list(map(GRADERS[obj], sea, table[SECOND_INDICATOR[obj]].tolist())), dtype="U1"
        )
        for obj in OBJECTIVES
    }
    return DesignTable({**table.columns, **grades})


def training_dataset(table: DesignTable, objective: str) -> Dataset:
    """Attribute table (d, n, m, t, h) with one objective's grades."""
    if objective not in OBJECTIVES:
        raise SchemaError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    graded = f"label_{objective}" in table.columns
    if not graded and len(table):
        raise SchemaError(
            f"records not graded yet (e.g. index {table['index'][0]}); run labeling first"
        )
    attributes = (table[VARIABLE_COLUMNS[a]].astype(float).tolist() for a in ATTRIBUTE_ORDER)
    return Dataset(
        attributes=ATTRIBUTE_ORDER,
        rows=tuple(zip(*attributes)),
        labels=tuple(table.grades(objective).tolist() if graded else ()),
    )


def write_json_atomic(doc: dict, path: str | Path) -> None:
    """Write JSON via a sibling temp file and atomic rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def class_counts(table: DesignTable, objective: str) -> dict[str, int]:
    grades = table.grades(objective)
    return {c: int(np.count_nonzero(grades == c)) for c in CLASS_ORDER}


# sampled designs per selected rule unless a run asks for another count
VALIDATION_K = 5


def _validation_seed(seed: int, objective: str, label: str) -> int:
    # arbitrary fixed offsets so each rule gets its own stream
    return seed + 7919 * (OBJECTIVES.index(objective) * len(CLASS_ORDER) + CLASS_ORDER.index(label) + 1)


def validation_report_csv(
    objective: str, validations: Mapping[str, RuleValidation], cfg: RunConfig
) -> str:
    """Report table for the sampled rule checks: one row per design.

    Columns follow the printed validation tables: variables, SEA, the
    indicator the objective grades beside SEA, and the observed grade. The
    rule column is quoted because rule text contains commas.
    """
    second = SECOND_INDICATOR[objective]
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


def _scatter_doc(table: DesignTable, objective: str) -> str:
    series = []
    for label in CLASS_ORDER:
        chosen = table.grades(objective) == label
        pts = tuple(zip(table["mass_kg"][chosen].tolist(), table["sea_kj_per_kg"][chosen].tolist()))
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
) -> DesignTable:
    """Crush model and indicators for every design; writes metrics.csv."""
    table = evaluate_many(points, cfg, trace_dir=trace_dir)
    write_dataset_csv(table, Path(out_dir) / "metrics.csv", labeled=False)
    return table


def run_label(table: DesignTable, out_dir: str | Path) -> DesignTable:
    """Grades under every objective; writes dataset.csv."""
    table = relabel(table)
    write_dataset_csv(table, Path(out_dir) / "dataset.csv", labeled=True)
    return table


def run_train(
    table: DesignTable, objective: str, cfg: RunConfig, out_dir: str | Path
) -> DecisionTree:
    """Unpruned tree; writes tree_OBJ.json, tree_OBJ.txt and scatter_OBJ.svg."""
    out = Path(out_dir)
    tree = build_tree(training_dataset(table, objective), min_leaf=cfg.min_leaf)
    save_tree(tree, out / f"tree_{objective}.json")
    (out / f"tree_{objective}.txt").write_text(format_tree(tree) + "\n", encoding="utf-8")
    (out / f"scatter_{objective}.svg").write_text(
        _scatter_doc(table, objective), encoding="utf-8"
    )
    return tree


def run_prune(
    tree: DecisionTree,
    table: DesignTable,
    objective: str,
    cfg: RunConfig,
    out_dir: str | Path,
    cf: float | None = None,
) -> PruneResult:
    """Prune along the config's ladder, or at one fixed cf.

    Writes pruned_OBJ.json, pruned_OBJ.txt and pruned_OBJ.dot.
    """
    out = Path(out_dir)
    data = training_dataset(table, objective)
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
    table: DesignTable
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
    table = run_label(run_evaluate(points, cfg, out, trace_dir), out)
    files = ["designs.csv", "metrics.csv", "dataset.csv"]
    summary = [f"designs evaluated: {len(table)}"]
    rule_docs, validated, pruning, fidelity = {}, {}, {}, {}
    for objective in objectives:
        tree = run_train(table, objective, cfg, out)
        pruned = run_prune(tree, table, objective, cfg, out)
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

        counts = class_counts(table, objective)
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
            "evaluated": len(table),
            "labeled": len(table),
            "validated": validated,
        },
        "class_counts": {obj: class_counts(table, obj) for obj in objectives},
        "pruning": pruning,
        "fidelity_pct": fidelity,
        "artifacts": sorted(files),
    }
    write_json_atomic(manifest, out / "manifest.json")
    files.append("manifest.json")
    return PipelineResult(out_dir=out, table=table, files=files)


def hollow_baseline_sea(t: float) -> float:
    """Published hollow-tube SEA at wall thickness t, linear between knots."""
    knots = sorted(HOLLOW_SEA_BASELINES)
    if not knots[0] <= t <= knots[-1]:
        raise BoundsError(
            f"thickness t={t} outside baseline range [{knots[0]}, {knots[-1]}]"
        )
    return np.interp(t, knots, [HOLLOW_SEA_BASELINES[k] for k in knots]).item()


def hollow_rows(
    thicknesses: Sequence[float], cfg: RunConfig = RunConfig()
) -> dict[str, np.ndarray]:
    """Indicator columns of the hollow tube at each wall thickness.

    Thicknesses before the first one outside the design box are evaluated
    first, then that one raises the usual bounds error.
    """
    t = np.array(thicknesses, dtype=float)
    lo, hi = DESIGN_BOUNDS["t"]
    inside = (lo <= t) & (t <= hi)
    stop = len(t) if inside.all() else int(inside.argmin())
    t = t[:stop]
    inputs = [hollow_inputs(v, cfg.tube, cfg.surrogate) for v in t.tolist()]
    pm, z, folds = np.array(inputs).reshape(-1, 3).T
    metrics = _surrogate_metrics(pm, z, folds, tube_mass_kg(t, cfg.tube), cfg, _unnamed)
    if stop < len(thicknesses):
        mean_tube_force(thicknesses[stop], cfg.tube)  # raises the bounds error
    return metrics


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
    table: DesignTable,
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
    if not len(table):
        raise SchemaError("hollow report needs at least one evaluated design")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    index, t, sea = (table[name].tolist() for name in ("index", "t_mm", "sea_kj_per_kg"))
    if paper_baselines:
        baselines = [hollow_baseline_sea(v) for v in t]
    else:
        baselines = hollow_rows(t, cfg)["sea_kj_per_kg"].tolist()
    deltas = [100.0 * (s - base) / base for s, base in zip(sea, baselines)]
    lines = ["index,t_mm,sea_kj_per_kg,baseline_sea_kj_per_kg,delta_pct"]
    lines.extend(map("{},{!r},{!r},{!r},{!r}".format, index, t, sea, baselines, deltas))
    (out / "hollow.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    grid_lines = ["t_mm,surrogate_sea_kj_per_kg,reference_sea_kj_per_kg"]
    grid_sea = hollow_rows(HOLLOW_THICKNESS_GRID, cfg)["sea_kj_per_kg"].tolist()
    for v, v_sea in zip(HOLLOW_THICKNESS_GRID, grid_sea):
        grid_lines.append(f"{float(v)!r},{v_sea!r},{hollow_baseline_sea(v)!r}")
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
        max_increase_index=index[best],
        max_increase_pct=deltas[best],
        max_decrease_index=index[worst],
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


def run_sweep(variable: str, cfg: RunConfig, out_dir: str | Path) -> DesignTable:
    """One-variable sweep with the other four variables held at SWEEP_ANCHOR.

    Writes a two-column CSV (variable value, SEA) and a connected scatter
    chart.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = sweep_values(variable)
    integer = variable in INTEGER_VARIABLES
    points = [
        DesignPoint(**{**SWEEP_ANCHOR, variable: int(v) if integer else v}) for v in values
    ]
    table = evaluate_many(points, cfg, name=_unnamed)
    sea = table["sea_kj_per_kg"].tolist()
    lines = [f"{variable},sea_kj_per_kg"]
    for v, v_sea in zip(values, sea):
        lines.append(f"{str(int(v)) if integer else repr(v)},{v_sea!r}")
    (out / f"sweep_{variable}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    svg = scatter_svg(
        [Series(name="SEA", points=tuple(zip(values, sea)), connect=True)],
        title=f"SEA vs {variable} at the reference design",
        x_label=variable,
        y_label="SEA, kJ/kg",
    )
    (out / f"sweep_{variable}.svg").write_text(svg, encoding="utf-8")
    return table
