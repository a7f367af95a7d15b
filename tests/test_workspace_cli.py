import json

import pytest

from qsemicat import EnumerationCapExceeded, ParseError, TypeMismatch
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


def chain_spec(n):
    return {"size": n, "leq": [[i, i + 1] for i in range(n - 1)]}


def test_lattice_size_is_capped_before_validation(tmp_path, capsys):
    # a five-element lattice costs 5³ = 125 table steps
    doc = dict(THREE_CHAIN_WS)
    doc["quantaloids"] = {
        "Q": "3",
        "Q5": {
            "objects": ["X"],
            "homs": {"X>X": chain_spec(5)},
            "compose": {"X>X>X": [[min(g, f) for f in range(5)] for g in range(5)]},
            "id": {"X": 4},
        },
    }
    path = write_ws(tmp_path, doc)
    assert main(["--json", "--cap", "124", "validate", path]) == 1
    report = json.loads(capsys.readouterr().out)
    bad = [v for v in report["objects"] if not v["valid"]]
    assert [v["name"] for v in bad] == ["Q5"]
    assert bad[0]["error"].startswith("EnumerationCapExceeded") and bad[0]["witness"] == "5"
    assert main(["--cap", "124", "presheaves", path, "A"]) == 2
    assert main(["--cap", "124", "completion", "idm", "Q", "--workspace", path]) == 2
    capsys.readouterr()

    assert main(["--json", "--cap", "125", "validate", path]) == 0
    assert json.loads(capsys.readouterr().out)["all_valid"] is True
    assert main(["--cap", "125", "presheaves", path, "A"]) == 0


def test_huge_lattice_fails_at_once_under_default_cap():
    doc = {"omega_sets": {"E": {"frame": chain_spec(500), "elements": ["p"], "eq": []}}}
    with pytest.raises(EnumerationCapExceeded) as exc:
        load_workspace(doc)
    assert exc.value.witness == 500


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
    assert report["cross_check"] == "agreed"

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


INDISCRETE_WS = {
    "quantaloids": {"Q": "3"},
    "semicategories": {
        "D": {
            "base": "Q",
            "objects": [{"name": "a", "type": "*"}, {"name": "b", "type": "*"}],
            "hom": [["a", "a", 2], ["a", "b", 2], ["b", "a", 2], ["b", "b", 2]],
        }
    },
}


def test_capped_morita_search_is_reported_as_capped(tmp_path, capsys):
    # D ⇸ D has 3^4 = 81 matrices: a cap of 50 stops the certificate search
    # before it starts, while the skeleton route still decides
    path = write_ws(tmp_path, INDISCRETE_WS)
    assert main(["--json", "morita", path, "D", "D"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cross_check"] == "agreed" and report["certificate"] is not None

    assert main(["--json", "--cap", "50", "morita", path, "D", "D"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "schema": 2,
        "morita": True,
        "skeleton_sizes": [3, 3],
        "certificate": None,
        "routes_agree": True,
        "cross_check": "capped",
    }
    assert main(["--cap", "50", "morita", path, "D", "D"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "morita equivalent: True",
        "skeleton sizes: 3 vs 3",
        "certificate: none",
        "routes agree: True",
    ]


@pytest.mark.parametrize(
    "change, key",
    [
        ({"homs": {"X>X": {"size": 2, "leq": [[0, 1]]}, "X>Z": "3"}}, ("X", "Z")),
        ({"compose": {"X>X>X": [[0, 0], [0, 1]], "Z>Z>Z": [[5]]}}, ("Z", "Z", "Z")),
        ({"id": {"X": 1, "Q": 7}}, "Q"),
    ],
    ids=["hom", "compose", "identity"],
)
def test_quantaloid_keys_naming_no_object_are_rejected(tmp_path, capsys, change, key):
    with pytest.raises(TypeMismatch) as exc:
        parse_quantaloid(explicit_quantaloid(**change))
    assert exc.value.witness == key and "unknown object" in str(exc.value)
    path = write_ws(tmp_path, {"quantaloids": {"Q": explicit_quantaloid(**change)}})
    assert main(["--json", "validate", path]) == 1
    [verdict] = json.loads(capsys.readouterr().out)["objects"]
    assert not verdict["valid"] and verdict["error"].startswith("TypeMismatch")
    assert verdict["witness"] == repr(key)


def test_omega_set_equality_naming_no_element_is_rejected(tmp_path, capsys):
    spec = {"frame": "3", "elements": ["a", "b"], "eq": [["a", "a", 2], ["a", "zz", 1]]}
    path = write_ws(tmp_path, {"omega_sets": {"E": spec}})
    assert main(["--json", "validate", path]) == 1
    [verdict] = json.loads(capsys.readouterr().out)["objects"]
    assert not verdict["valid"] and verdict["error"].startswith("TypeMismatch")
    assert verdict["witness"] == repr(("a", "zz"))


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


def test_capped_completion_verify_shows_the_space_size(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    assert main(["--cap", "2", "completion", "verify", path, "A", "A"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "SearchCapExceeded: matrix space of size 3 exceeds cap 2 (witness: 3)\n"
    )


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
    assert report["morita"] is False and report["schema"] == 2


@pytest.mark.parametrize(
    "section, name, field, kind",
    [
        ("semicategories", "A", "hom", "semicategory"),
        ("semidistributors", "Phi", "mat", "semidistributor"),
        ("omega_sets", "E", "eq", "omega_set"),
    ],
)
def test_pair_listed_twice_is_rejected(tmp_path, capsys, section, name, field, kind):
    # [x, y, elem] entries are a matrix: a second entry for the same pair is
    # refused, whether its element agrees with the first or not
    for second in (1, 0):
        doc = json.loads(json.dumps(THREE_CHAIN_WS))
        doc[section][name][field].append(["*", "*", second])
        with pytest.raises(ParseError) as exc:
            load_workspace(doc)
        assert exc.value.witness == ("*", "*")
        assert str(exc.value) == f"{section}.{name}: {field} entry ('*', '*') listed twice"
        path = write_ws(tmp_path, doc)
        assert main(["--json", "validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        [bad] = [v for v in report["objects"] if (v["kind"], v["name"]) == (kind, name)]
        assert not bad["valid"]
        assert bad["error"] == f"ParseError: {exc.value}"
        assert bad["witness"] == repr(("*", "*"))
        assert main(["validate", path]) == 1
        assert "INVALID" in capsys.readouterr().out
