"""The demo scripts stay runnable, and each prints exactly its golden output.

The golden files are in ``tests/golden/demos/``, one per script.  To
regenerate them (only when a demo's output is meant to change), run from the
repository root:

    PYTHONPATH=src python tests/test_demos.py
"""

import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "demos"
SCRIPTS = sorted(DEMO_DIR.glob("*.py"))


def _run(script):
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, encoding="utf-8", timeout=60
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{script.stem}.out").read_text(encoding="utf-8")


def test_every_golden_output_has_its_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == [p.stem for p in SCRIPTS]


def test_demo_workspace_is_valid():
    from qsemicat.cli import main

    assert main(["validate", str(DEMO_DIR / "workspace.json")]) == 0


def _generate():
    GOLDEN.mkdir(exist_ok=True)
    for script in SCRIPTS:
        proc = _run(script)
        proc.check_returncode()
        (GOLDEN / f"{script.stem}.out").write_text(proc.stdout, encoding="utf-8")


if __name__ == "__main__":
    _generate()
