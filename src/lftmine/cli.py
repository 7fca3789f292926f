"""Command-line interface.

Each stage command loads its inputs from the output directory, calls that
stage's function in :mod:`lftmine.pipeline` and prints a report. ``pipeline``
chains the same functions, so the full flow can run as one call or be
replayed stage by stage with the same files:

    lftmine sample   --out-dir out --k 150 --seed 0
    lftmine evaluate --out-dir out
    lftmine label    --out-dir out
    lftmine train    --out-dir out --objective eff
    lftmine prune    --out-dir out --objective eff [--cf 0.25]
    lftmine rules    --out-dir out --objective eff
    lftmine validate --out-dir out --objective eff
    lftmine pipeline --out-dir out
    lftmine sweep d  --out-dir out
    lftmine hollow-report --out-dir out [--paper-baselines]
    lftmine config

``--config`` points at a JSON file (template from ``lftmine config``);
``--seed`` and ``--k`` override the file. ``--trace-dir`` makes evaluate
and pipeline dump one force-displacement curve per design as
``design_<index>.csv``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .dtree import format_tree, leaf_count, load_tree
from .errors import LftError
from .labeling import CLASS_ORDER, OBJECTIVES
from .pipeline import (
    VALIDATION_K,
    RunConfig,
    average_fidelity,
    class_counts,
    config_to_dict,
    load_config,
    read_dataset_csv,
    read_designs_csv,
    run_evaluate,
    run_hollow_report,
    run_label,
    run_pipeline,
    run_prune,
    run_rules,
    run_sample,
    run_sweep,
    run_train,
    run_validate,
)
from .rules import format_rules, load_rules


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "k", None) is not None:
        overrides["k"] = args.k
    return replace(cfg, **overrides) if overrides else cfg


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise LftError(f"{path} not found; run 'lftmine {producer}' first")
    return path


def _cmd_sample(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    points = run_sample(_resolve_config(args), out)
    print(f"wrote {len(points)} designs to {out / 'designs.csv'}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out_dir)
    points = read_designs_csv(_require(out / "designs.csv", "sample"))
    table = run_evaluate(points, cfg, out, trace_dir=args.trace_dir)
    print(f"wrote {len(table)} evaluated designs to {out / 'metrics.csv'}")
    if args.trace_dir:
        print(f"wrote {len(table)} traces to {args.trace_dir}")
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    table = run_label(read_dataset_csv(_require(out / "metrics.csv", "evaluate")), out)
    print(f"wrote graded dataset to {out / 'dataset.csv'}")
    for obj in OBJECTIVES:
        counts = class_counts(table, obj)
        print(f"  {obj}: " + " ".join(f"{c}={counts[c]}" for c in CLASS_ORDER))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out_dir)
    table = read_dataset_csv(_require(out / "dataset.csv", "label"))
    tree = run_train(table, args.objective, cfg, out)
    print(format_tree(tree))
    print(f"wrote tree to {out / f'tree_{args.objective}.json'}")
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out_dir)
    tree = load_tree(_require(out / f"tree_{args.objective}.json", "train"))
    table = read_dataset_csv(_require(out / "dataset.csv", "label"))
    result = run_prune(tree, table, args.objective, cfg, out, cf=args.cf)
    print(
        f"pruned {leaf_count(tree.root)} -> {leaf_count(result.tree.root)} leaves "
        f"(cf={result.cf}, mean class recall={result.recall:.3f})"
    )
    print(format_tree(result.tree))
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    pruned_path = out / f"pruned_{args.objective}.json"
    tree_path = pruned_path if pruned_path.exists() else out / f"tree_{args.objective}.json"
    rules, selected = run_rules(load_tree(_require(tree_path, "train")), args.objective, out)
    for label in CLASS_ORDER:
        if label not in selected:
            print(f"note: no rule predicts class {label}")
    print(f"extracted {len(rules)} rules from {tree_path.name}")
    print(format_rules(rules))
    print("selected:")
    for label, rule in selected.items():
        print(f"  [{label}] {rule.describe()}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out_dir)
    _, selected = load_rules(_require(out / f"rules_{args.objective}.json", "rules"))
    k = VALIDATION_K if args.k is None else args.k
    validations = run_validate(selected, args.objective, cfg, out, k)
    for label in CLASS_ORDER:
        check = validations.get(label)
        if check is not None:
            print(f"  [{label}] fidelity {check.fidelity_pct:.1f}% ({check.hits}/{len(check.labels)})")
        elif label in selected:
            print(f"  [{label}] region infeasible, skipped")
    average = average_fidelity(validations)
    if average is not None:
        print(f"average fidelity: {average:.1f}%")
    print(f"wrote {out / f'validation_{args.objective}.csv'}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    table = run_sweep(args.variable, cfg, args.out_dir)
    out = Path(args.out_dir)
    print(f"wrote {len(table)} rows to {out / f'sweep_{args.variable}.csv'}")
    return 0


def _cmd_hollow(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out_dir)
    dataset = out / "dataset.csv"
    source = dataset if dataset.exists() else out / "metrics.csv"
    table = read_dataset_csv(_require(source, "label"))
    report = run_hollow_report(cfg, out, table, paper_baselines=args.paper_baselines)
    print(f"baseline source: {report.baseline}")
    print(
        f"{report.above} of {report.total} designs ({report.above_pct:.1f}%) "
        "exceed the same-thickness hollow-tube SEA"
    )
    print(f"  above +20%: {report.above_20}")
    print(f"  above +50%: {report.above_50}")
    print(
        f"  largest increase: design {report.max_increase_index} "
        f"({report.max_increase_pct:+.1f}%)"
    )
    print(
        f"  largest decrease: design {report.max_decrease_index} "
        f"({report.max_decrease_pct:+.1f}%)"
    )
    print(f"wrote {out / 'hollow.csv'}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    result = run_pipeline(cfg, args.out_dir, trace_dir=args.trace_dir)
    print((result.out_dir / "summary.txt").read_text(encoding="utf-8"), end="")
    print(f"wrote {len(result.files)} files to {result.out_dir}")
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    print(json.dumps(config_to_dict(cfg), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lftmine",
        description="data-mining design workflow for lattice-filled thin-walled tubes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, objective: bool = False):
        p.add_argument("--config", help="JSON config file (see 'lftmine config')")
        p.add_argument("--out-dir", default="out", help="artifact directory (default: out)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--k", type=int, help="override the config sample count")
        if objective:
            p.add_argument(
                "--objective",
                choices=list(OBJECTIVES),
                default="eff",
                help="grading objective (default: eff)",
            )

    p = sub.add_parser("sample", help="draw the Latin Hypercube design table")
    common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("evaluate", help="evaluate designs.csv into metrics.csv")
    common(p)
    p.add_argument(
        "--trace-dir",
        help="directory to write one design_<index>.csv force curve per design",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("label", help="grade metrics.csv into dataset.csv")
    common(p)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("train", help="grow the decision tree for one objective")
    common(p, objective=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("prune", help="pessimistically prune a trained tree")
    common(p, objective=True)
    p.add_argument("--cf", type=float, help="single confidence factor instead of the ladder")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("rules", help="extract and select design rules from the tree")
    common(p, objective=True)
    p.set_defaults(func=_cmd_rules)

    p = sub.add_parser("validate", help="check selected rules on fresh sampled designs")
    common(p, objective=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sweep", help="one-variable sweep around the reference design")
    p.add_argument("variable", choices=["n", "m", "d", "t", "h"])
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "hollow-report", help="compare the dataset against hollow-tube SEA baselines"
    )
    common(p)
    p.add_argument(
        "--paper-baselines",
        action="store_true",
        help="take baselines from the published reference points instead of the model",
    )
    p.set_defaults(func=_cmd_hollow)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    common(p)
    p.add_argument(
        "--trace-dir",
        help="directory to write one design_<index>.csv force curve per design",
    )
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("config", help="print the effective configuration as JSON")
    p.add_argument("--config", help="JSON config file to normalize and echo")
    p.set_defaults(func=_cmd_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
