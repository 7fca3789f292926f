"""Golden digests: the byte-identity spec of the artifacts, across commits.

``digests.json`` holds the sha256 of every file that
``lftmine pipeline --k 150 --seed 0 --trace-dir`` writes, with the numpy
version and machine the digests were recorded on: the crush kernel's
``np.sin`` may differ in the last bit on another CPU or numpy build.

A change that alters an artifact on purpose rewrites the file with

    PYTHONPATH=src python tests/test_digests.py

and names every changed file, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from lftmine.cli import main

DIGESTS = Path(__file__).with_name("digests.json")
ARGV = ["pipeline", "--k", "150", "--seed", "0"]


def run_digests(root: Path) -> dict[str, str]:
    """sha256 per file of one pipeline run with traces, keyed by relative path."""
    out = root / "run"
    assert main([*ARGV, "--out-dir", str(out), "--trace-dir", str(out / "traces")]) == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
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
    assert sorted(got) == sorted(doc["files"]), f"file set differs ({where})"
    for name, digest in doc["files"].items():
        assert got[name] == digest, f"{name} differs from {DIGESTS.name} ({where})"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = run_digests(Path(tmp))
    doc = {"case": " ".join([*ARGV, "--trace-dir"]), "environment": environment(), "files": files}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} digests to {DIGESTS}", file=sys.stderr)
