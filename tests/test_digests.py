"""Golden digests: the byte-identity spec of the artifacts, across commits.

``digests.json`` holds the sha256 of every file that each case in ``CASES``
writes, with the numpy version and machine the digests were recorded on:
the crush kernel's ``np.sin`` may differ in the last bit on another CPU or
numpy build. Each case runs its commands in order in one fresh directory,
every command with ``--out-dir`` pointing there.

A change that alters an artifact on purpose rewrites the file with

    PYTHONPATH=src python tests/test_digests.py

and names every changed file, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from lftmine.cli import main

DIGESTS = Path(__file__).with_name("digests.json")

_CHAIN = ("sample --k 150", "evaluate", "label")
_STAGES = tuple(
    f"{stage} --objective {obj}"
    for obj in ("eff", "tea", "light")
    for stage in ("train", "prune", "rules", "validate --k 50")
)

# case name -> commands; "{out}" stands for the case's directory
CASES: dict[str, tuple[str, ...]] = {
    "pipeline --k 150 --seed 0 --trace-dir": (
        "pipeline --k 150 --seed 0 --trace-dir {out}/traces",
    ),
    "pipeline --k 150 --seed 1": ("pipeline --k 150 --seed 1",),
    "pipeline --k 150 --seed 2": ("pipeline --k 150 --seed 2",),
    "pipeline --k 600 --seed 0": ("pipeline --k 600 --seed 0",),
    "staged k=150 with validate --k 50": (
        "sample --k 150",
        "evaluate --trace-dir {out}/traces",
        "label",
        *_STAGES,
    ),
    "hollow-report": (*_CHAIN, "hollow-report"),
    "hollow-report --paper-baselines": (*_CHAIN, "hollow-report --paper-baselines"),
    "sweep n m d t h": tuple(f"sweep {v}" for v in "nmdth"),
}


def run_case(commands: tuple[str, ...], out: Path) -> dict[str, str]:
    """sha256 per file the commands write into out, keyed by relative path."""
    for command in commands:
        argv = [token.format(out=out) for token in command.split()]
        assert main([*argv, "--out-dir", str(out)]) == 0, command
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def run_digests(root: Path) -> dict[str, dict[str, str]]:
    return {
        name: run_case(commands, root / f"case{i}")
        for i, (name, commands) in enumerate(CASES.items())
    }


def environment() -> dict[str, str]:
    return {"machine": platform.machine(), "numpy": np.__version__}


def test_artifacts_match_the_recorded_digests(tmp_path, capsys):
    doc = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = run_digests(tmp_path)
    capsys.readouterr()
    recorded = ", ".join(f"{k} {v}" for k, v in doc["environment"].items())
    here = ", ".join(f"{k} {v}" for k, v in environment().items())
    where = f"digests recorded with {recorded}; this run has {here}"
    assert sorted(got) == sorted(doc["cases"]), f"case set differs from {DIGESTS.name}"
    for case, files in doc["cases"].items():
        assert sorted(got[case]) == sorted(files), f"{case}: file set differs ({where})"
        for name, digest in files.items():
            assert got[case][name] == digest, f"{case}: {name} differs ({where})"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(None):
        cases = run_digests(Path(tmp))
    doc = {"environment": environment(), "cases": cases}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    total = sum(len(files) for files in cases.values())
    print(f"wrote {total} digests of {len(cases)} cases to {DIGESTS}", file=sys.stderr)
