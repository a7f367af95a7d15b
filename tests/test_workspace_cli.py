import json

import pytest

from qsemicat import ParseError
from qsemicat.cli import main
from qsemicat.workspace import load_workspace, parse_quantaloid, validate_report

THREE_CHAIN_WS = {
    "quantaloids": {"Q": "3"},
    "semicategories": {
        "A": {
            "base": "Q",
            "objects": [{"name": "*", "type": "*"}],
            "hom": [["*", "*", 1]],
        },
        "C": {
            "base": "Q",
            "objects": [{"name": "*", "type": "*"}],
            "hom": [["*", "*", 2]],
        },
    },
    "semidistributors": {
        "Phi": {"dom": "A", "cod": "A", "mat": [["*", "*", 1]]}
    },
    "semifunctors": {"F": {"dom": "A", "cod": "C", "map": {"*": "*"}}},
    "posets": {"P": {"elements": ["0", "1"], "pairs": [["0", "1"]]}},
    "omega_sets": {
        "E": {"frame": "3", "elements": ["*"], "eq": [["*", "*", 1]]}
    },
}


def write_ws(tmp_path, doc, name="ws.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_workspace_roundtrip():
    ws = load_workspace(THREE_CHAIN_WS)
    assert set(ws.semicategories) == {"A", "C"}
    assert ws.semicategories["A"].hom[("*", "*")] == 1
    assert "Phi" in ws.semidistributors
    assert "F" in ws.semifunctors
    assert "P" in ws.posets and "E" in ws.omega_sets


def test_omega_set_with_inline_lattice():
    doc = {
        "omega_sets": {
            "E": {
                "frame": {"size": 4, "leq": [[0, 1], [0, 2], [1, 3], [2, 3]]},
                "elements": ["p", "q"],
                "eq": [["p", "p", 1], ["q", "q", 2], ["p", "q", 0], ["q", "p", 0]],
            }
        }
    }
    ws = load_workspace(doc)
    assert ws.omega_sets["E"].eq[("p", "p")] == 1

    # the diamond is a lattice but not a frame
    bad = {
        "omega_sets": {
            "E": {"frame": "diamond", "elements": ["p"], "eq": [["p", "p", 0]]}
        }
    }
    _, verdicts = validate_report(bad)
    assert not verdicts[0]["valid"] and "NotAFrame" in verdicts[0]["error"]


def test_explicit_quantaloid_document():
    spec = {
        "objects": ["X"],
        "homs": {"X>X": {"size": 2, "leq": [[0, 1]]}},
        "compose": {"X>X>X": [[0, 0], [0, 1]]},
        "id": {"X": 1},
    }
    q = parse_quantaloid(spec)
    assert q.objects == ("X",)
    assert q.identity["X"] == 1


def test_dangling_type_name_is_parse_error():
    doc = {
        "quantaloids": {"Q": "3"},
        "semicategories": {
            "A": {"base": "Q", "objects": [{"name": "a", "type": "Z"}], "hom": []}
        },
    }
    _, verdicts = validate_report(doc)
    bad = [v for v in verdicts if not v["valid"]]
    assert len(bad) == 1 and "ParseError" in bad[0]["error"]


def test_broken_compose_table_reports_assoc_failure():
    doc = {
        "quantaloids": {
            "Q": {
                "objects": ["X"],
                "homs": {"X>X": {"size": 3, "leq": [[0, 1], [1, 2]]}},
                "compose": {"X>X>X": [[0, 1, 0], [0, 0, 1], [0, 1, 2]]},
                "id": {"X": 2},
            }
        }
    }
    _, verdicts = validate_report(doc)
    assert not verdicts[0]["valid"]
    assert "AssocFailure" in verdicts[0]["error"]
    assert verdicts[0]["witness"] is not None


def test_cmd_validate_exit_codes(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "all valid: True" in out

    bad = {"quantaloids": {"Q": "3"}, "semicategories": {"A": {"base": "nope", "objects": []}}}
    path = write_ws(tmp_path, bad, "bad.json")
    assert main(["validate", path]) == 1


ONE_OBJECT = [{"name": "*", "type": "*"}]


def explicit_quantaloid(**change):
    """The two-chain as a one-object explicit quantaloid, with fields replaced."""
    spec = {
        "objects": ["X"],
        "homs": {"X>X": {"size": 2, "leq": [[0, 1]]}},
        "compose": {"X>X>X": [[0, 0], [0, 1]]},
        "id": {"X": 1},
    }
    spec.update(change)
    return spec


def one_object_semicat(elem):
    return {"base": "Q", "objects": ONE_OBJECT, "hom": [["*", "*", elem]]}


@pytest.mark.parametrize(
    "doc",
    [
        {
            "quantaloids": {"Q": "3"},
            "semicategories": {"A": one_object_semicat("x")},
        },
        {"quantaloids": {"Q": explicit_quantaloid(compose={"X>X>X": 5})}},
        {
            "quantaloids": {"Q": "3"},
            "semicategories": {"A": one_object_semicat(1)},
            "semidistributors": {"Phi": {"dom": "A", "cod": "A", "mat": 7}},
        },
    ]
    + [
        {"quantaloids": {"Q": explicit_quantaloid(**change)}}
        for change in (
            {"homs": 3},
            {"homs": {"X>X": {"size": -1, "leq": []}}},
            {"homs": {"X>X": {"size": 2, "leq": [[0, 5]]}}},
            {"id": {"X": [1]}},
        )
    ]
    + [
        {
            "quantaloids": {"Q": "3"},
            "semicategories": {"A": one_object_semicat(elem), "B": one_object_semicat(1)},
        }
        for elem in (1.7, "2", True)
    ]
    + [
        {"posets": {"P": {"elements": ["0"], "pairs": [["0"]]}}},
        {
            "quantaloids": {"Q": "3"},
            "semicategories": {"A": one_object_semicat(1)},
            "semifunctors": {"F": {"dom": "A", "cod": "A", "map": 3}},
        },
    ],
    ids=[
        "non-integer-hom-element",
        "scalar-compose-table",
        "scalar-mat",
        "scalar-homs",
        "negative-lattice-size",
        "order-pair-out-of-range",
        "list-identity",
        "float-hom-element",
        "string-hom-element",
        "boolean-hom-element",
        "short-poset-pair",
        "scalar-functor-map",
    ],
)
def test_cmd_validate_malformed_object_is_invalid(tmp_path, capsys, doc):
    path = write_ws(tmp_path, doc)
    assert main(["--json", "validate", path]) == 1
    report = json.loads(capsys.readouterr().out)
    bad = [v for v in report["objects"] if not v["valid"]]
    assert len(bad) == 1
    assert bad[0]["error"].startswith("ParseError") and bad[0]["witness"] is not None


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_rejected(tmp_path, capsys, cap):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    with pytest.raises(SystemExit) as exc:
        main([f"--cap={cap}", "presheaves", path, "A"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"got {cap}" in captured.err


def test_cli_error_shows_witness_on_stderr(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["presheaves", path, "A", "--type", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ParseError: unknown type 'nope' (witness: 'nope')\n"


def test_cmd_validate_unreadable_file(capsys):
    assert main(["validate", "/nonexistent/ws.json"]) == 1


def test_cmd_presheaves(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["--json", "presheaves", path, "A", "--class", "regular"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["total"] == 2
    assert report["counts"] == {"*": 2}
    assert report["class_counts"] == {
        "all": {"*": 3},
        "regular": {"*": 2},
        "yoneda": {"*": 2},
    }

    assert main(["--json", "presheaves", path, "A", "--class", "yoneda"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["values"] for p in report["presheaves"]] == [{"*": 0}, {"*": 2}]

    assert main(["--json", "presheaves", path, "A"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 3


def test_cmd_presheaves_cap(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["--cap", "2", "presheaves", path, "A"]) == 2


def test_cmd_presheaves_type_filter(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["--json", "presheaves", path, "A", "--type", "*"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"*": 3}
    assert main(["presheaves", path, "A", "--type", "nope"]) == 1


def test_cmd_validate_empty_workspace(tmp_path, capsys):
    path = write_ws(tmp_path, {}, "empty.json")
    assert main(["validate", path]) == 0


def test_cmd_presheaves_covariant(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["--json", "presheaves", path, "A", "--variance", "co", "--class", "regular"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 2  # the covariant regulars mirror the contravariant ones


def test_cmd_presheaves_matrices(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["--json", "presheaves", path, "A", "--class", "regular", "--matrices"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matrices"]["*#1>*#0"] == 0  # RA(e, 0) = 0


def test_cmd_morita_exit_codes(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["--json", "morita", path, "A", "A"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["morita"] is True and report["routes_agree"] is True

    assert main(["--json", "morita", path, "A", "C"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["skeleton_sizes"] == [2, 3]
    assert report["certificate"] is None

    assert main(["--cap", "1", "morita", path, "A", "C"]) == 2

    nonreg = dict(THREE_CHAIN_WS)
    nonreg = json.loads(json.dumps(THREE_CHAIN_WS))
    nonreg["quantaloids"]["Q2"] = "2"
    nonreg["semicategories"]["S"] = {
        "base": "Q2",
        "objects": [{"name": "a", "type": "*"}, {"name": "b", "type": "*"}],
        "hom": [["a", "b", 1]],
    }
    path = write_ws(tmp_path, nonreg, "nonreg.json")
    assert main(["morita", path, "S", "S"]) == 3


def test_cmd_completion_idm_builtin(capsys):
    assert main(["--json", "completion", "idm", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["objects"]) == 3
    assert report["homs"]["*|1>*|1"] == [0, 1]


def test_cmd_completion_idm_workspace(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["completion", "idm", "Q", "--workspace", path]) == 0
    assert "idempotents: 3" in capsys.readouterr().out


def test_cmd_completion_verify(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["--json", "completion", "verify", path, "A", "A"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is True
    assert report["regular_semidistributors"] == 2


def test_cmd_completion_idm_invalid_quantaloid(capsys):
    assert main(["completion", "idm", "frame:pentagon"]) == 1


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    outputs = []
    for _ in range(2):
        assert main(["--json", "presheaves", path, "A", "--matrices"]) == 0
        outputs.append(capsys.readouterr().out)
        assert main(["--json", "morita", path, "A", "C"]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]


def test_seed_flag_is_accepted(tmp_path):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["--seed", "7", "validate", path]) == 0


def test_cli_entry_point_via_subprocess(tmp_path):
    import subprocess
    import sys

    path = write_ws(tmp_path, THREE_CHAIN_WS)
    proc = subprocess.run(
        [sys.executable, "-m", "qsemicat.cli", "--json", "morita", path, "A", "C"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["morita"] is False and report["schema"] == 1
