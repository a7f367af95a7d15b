"""Byte-for-byte CLI reports on the demo workspace.

Every case's standard output, standard error and exit code are compared
with the files in ``tests/golden/``, so a faster route that changed a
verdict, a count, an error message or a witness shows here.  To regenerate
the files (only when a report is meant to change), run from the repository
root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

from qsemicat.cli import main

ROOT = Path(__file__).resolve().parent.parent
WORKSPACE = ROOT / "demos" / "workspace.json"
GOLDEN = Path(__file__).resolve().parent / "golden"
SEMICATS = ("A", "C", "order")


def _cases():
    """Case name -> argv, with ``WS`` standing for the demo workspace path."""
    cases = {"validate": ["validate", "WS"]}
    for name, variance, cls in itertools.product(
        SEMICATS, ("contra", "co"), ("all", "regular", "yoneda")
    ):
        cases[f"presheaves-{name}-{variance}-{cls}"] = [
            "presheaves", "WS", name, "--variance", variance, "--class", cls, "--matrices"
        ]
    for first, second in itertools.product(SEMICATS, repeat=2):
        cases[f"morita-{first}-{second}"] = ["morita", "WS", first, second]
        cases[f"verify-{first}-{second}"] = ["completion", "verify", "WS", first, second]
    cases["idm-Q"] = ["completion", "idm", "Q", "--workspace", "WS"]
    for name in ("2", "3", "frame:4", "frame:square", "frame:diamond"):
        cases[f"idm-{name.replace(':', '-')}"] = ["completion", "idm", name]
    out = {}
    for name, argv in cases.items():
        out[name] = argv
        out[f"{name}-json"] = ["--json", *argv]
    return out


CASES = _cases()


def _run(argv):
    argv = [str(WORKSPACE) if a == "WS" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return stdout.getvalue(), stderr.getvalue(), code


def _load_index():
    return json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))


def test_golden_files_cover_every_case():
    assert set(_load_index()) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_report_matches_golden(name):
    expected = _load_index()[name]
    stdout, stderr, code = _run(CASES[name])
    assert expected["argv"] == CASES[name]
    assert code == expected["exit"]
    assert stderr == expected["stderr"]
    assert stdout == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def _generate():
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in CASES.items():
        stdout, stderr, code = _run(argv)
        (GOLDEN / f"{name}.out").write_text(stdout, encoding="utf-8")
        index[name] = {"argv": argv, "exit": code, "stderr": stderr}
    (GOLDEN / "index.json").write_text(
        json.dumps(index, indent=1, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    _generate()
