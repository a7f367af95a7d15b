import json
from pathlib import Path

import pytest

from qsemicat import (
    EnumerationCapExceeded,
    ParseError,
    TypeMismatch,
    enumerate_presheaves,
    is_regular_presheaf,
    is_yoneda_presheaf,
    presheaf_hom_elem,
)
from qsemicat.cli import build_parser, main
from qsemicat.presheaf import CO, CONTRA
from qsemicat.workspace import load_path, load_workspace, parse_quantaloid, validate_report
from helpers import dumps_repeating_key

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


@pytest.mark.parametrize("homs", [{"X>Y>X>Y": {"size": 2, "leq": [[0, 1]]}}, "not a mapping"])
def test_object_name_holding_the_key_separator_is_refused(tmp_path, capsys, homs):
    # no hom key can name "X>Y", so the name is refused before any hom is read
    spec = {"objects": ["X", "X>Y"], "homs": homs, "compose": {}, "id": {"X": 1, "X>Y": 1}}
    with pytest.raises(ParseError) as exc:
        parse_quantaloid(spec)
    assert exc.value.witness == "X>Y"
    assert str(exc.value) == "quantaloid: object name 'X>Y' holds the key separator '>'"
    path = write_ws(tmp_path, {"quantaloids": {"Q": spec}})
    assert main(["completion", "idm", "Q", "--workspace", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ParseError: quantaloids.Q: object name 'X>Y' holds the key separator '>' "
        "(witness: 'X>Y')\n"
    )


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


@pytest.mark.parametrize("cap", ["x", "1.5", "1e3"])
def test_non_integer_cap_is_a_usage_error(tmp_path, capsys, cap):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    with pytest.raises(SystemExit) as exc:
        main(["--cap", cap, "presheaves", path, "A"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == build_parser().format_usage() + (
        f"qsemicat: error: argument --cap: cap must be an integer, got {cap!r}\n"
    )


SEMICAT_A = {"quantaloids": {"Q": "3"}, "semicategories": {"A": one_object_semicat(1)}}


def semicat_a(**change):
    """SEMICAT_A with fields of the semicategory A replaced."""
    doc = json.loads(json.dumps(SEMICAT_A))
    doc["semicategories"]["A"].update(change)
    return doc


@pytest.mark.parametrize(
    "doc, error, message, witness",
    [
        (semicat_a(objects="*"), ParseError, "semicategories.A: 'objects' must be a list", "*"),
        (
            semicat_a(hom=[["*", "*"]]),
            ParseError,
            "semicategories.A: bad hom triple ['*', '*']",
            ["*", "*"],
        ),
        (
            {"quantaloids": {"Q": explicit_quantaloid(homs={"X>X": 2})}},
            ParseError,
            "quantaloids.Q.homs[X>X]: expected a name or an object",
            2,
        ),
        (
            {"quantaloids": {"Q": explicit_quantaloid(homs={"X": "2"})}},
            ParseError,
            "quantaloids.Q: bad hom key 'X'",
            "X",
        ),
        (
            {"quantaloids": {"Q": explicit_quantaloid(compose={"X>X": [[0, 0], [0, 1]]})}},
            ParseError,
            "quantaloids.Q: bad compose key 'X>X'",
            "X>X",
        ),
        (
            {"semicategories": [SEMICAT_A["semicategories"]["A"]]},
            ParseError,
            "section 'semicategories' must map names to objects",
            "semicategories",
        ),
        (
            {"quantaloids": {"Q": explicit_quantaloid(objects=["X", "X"])}},
            TypeMismatch,
            "duplicate object names",
            ("X", "X"),
        ),
        (
            {"quantaloids": {"Q": explicit_quantaloid(objects=["X", "Y"])}},
            TypeMismatch,
            "missing hom-lattice ('X', 'Y')",
            ("X", "Y"),
        ),
        (
            {"quantaloids": {"Q": explicit_quantaloid(id={"X": 2})}},
            TypeMismatch,
            "identity for 'X' out of range",
            "X",
        ),
    ],
    ids=[
        "non-list-field",
        "short-hom-triple",
        "scalar-lattice-spec",
        "one-part-hom-key",
        "two-part-compose-key",
        "list-section",
        "duplicate-quantaloid-objects",
        "missing-hom-lattice",
        "identity-out-of-range",
    ],
)
def test_malformed_input_is_refused_with_its_witness(
    tmp_path, capsys, doc, error, message, witness
):
    # the loader and the quantaloid validator name the offending value, and
    # the CLI prints that one line and exits 1, with no traceback
    with pytest.raises(error) as exc:
        load_workspace(doc)
    assert type(exc.value) is error
    assert str(exc.value) == message and exc.value.witness == witness
    path = write_ws(tmp_path, doc)
    assert main(["completion", "idm", "Q", "--workspace", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{error.__name__}: {message} (witness: {witness!r})\n"


def test_invalid_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "ws.json"
    text = '{"quantaloids": {"Q": "3"},}'
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads(text)
    message = f"invalid JSON in {path}: {decode.value}"
    with pytest.raises(ParseError) as exc:
        load_path(str(path))
    assert str(exc.value) == message and exc.value.witness is None
    for argv in (["validate", str(path)], ["morita", str(path), "A", "A"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"ParseError: {message}\n"


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


DEMO_WS = Path(__file__).resolve().parent.parent / "demos" / "workspace.json"


@pytest.mark.parametrize("cls", ["all", "regular", "yoneda"])
@pytest.mark.parametrize("variance", [CONTRA, CO])
def test_cmd_presheaves_matrices_match_the_pairwise_homs(capsys, cls, variance):
    # the per-entry hom of the presheaf category is the oracle for the view's
    ws = load_workspace(json.loads(DEMO_WS.read_text()))
    keep = {"all": lambda p: True, "regular": is_regular_presheaf, "yoneda": is_yoneda_presheaf}[cls]
    for name, A in ws.semicategories.items():
        for t in [None, *A.base.objects]:
            argv = ["--json", "presheaves", str(DEMO_WS), name, "--variance", variance]
            argv += ["--class", cls, "--matrices"] + (["--type", t] if t else [])
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            tagged = [
                (f"{x}#{i}", phi)
                for x in ([t] if t else A.base.objects)
                for i, phi in enumerate(p for p in enumerate_presheaves(A, x, variance) if keep(p))
            ]
            listed = [(e["tag"], tuple(e["values"][a] for a in A.names)) for e in report["presheaves"]]
            assert listed == [(tag, phi.values) for tag, phi in tagged]
            assert report["matrices"] == {
                f"{tag1}>{tag0}": presheaf_hom_elem(psi, phi)
                for tag1, psi in tagged
                for tag0, phi in tagged
            }, (name, t)


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


def test_seed_flag_is_a_usage_error(tmp_path, capsys):
    path = write_ws(tmp_path, THREE_CHAIN_WS)
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "validate", path])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


EXPLICIT_Q = {
    "objects": ["X"],
    "homs": {"X>X": {"size": 2, "leq": [[0, 1]]}},
    "compose": {"X>X>X": [[0, 0], [0, 1]]},
    "id": {"X": 1},
}


@pytest.mark.parametrize(
    "where, key, first",
    [
        # a semifunctor map sending "a" to an unknown object, then to "a"
        (("semifunctors", "F", "map"), "a", "zz"),
        # a composition table breaking the unit law, then a lawful one
        (("quantaloids", "R", "compose"), "X>X>X", [[1, 1], [1, 1]]),
        # a section naming one semicategory twice, with the same spec
        (("semicategories",), "A", None),
    ],
)
def test_duplicate_json_key_is_refused(tmp_path, capsys, where, key, first):
    doc = json.loads(json.dumps(THREE_CHAIN_WS))
    doc["quantaloids"]["R"] = json.loads(json.dumps(EXPLICIT_Q))
    doc["semicategories"]["A"]["objects"].append({"name": "a", "type": "*"})
    doc["semifunctors"]["F"] = {"dom": "A", "cod": "A", "map": {"*": "*", "a": "a"}}
    # json keeps the last of repeated keys, and the last value is the valid one
    assert main(["--json", "validate", write_ws(tmp_path, doc)]) == 0
    capsys.readouterr()
    target = doc
    for step in where:
        target = target[step]
    last = target[key]
    if first is not None:
        target[key] = first
    path = tmp_path / "dup.json"
    path.write_text(dumps_repeating_key(doc, target, key, last))
    for argv in (["validate", str(path)], ["--json", "morita", str(path), "A", "A"]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"ParseError: invalid JSON in {path}: duplicate key {key!r} (witness: {key!r})\n"


def test_presheaves_cap_bounds_the_candidate_space(tmp_path, capsys):
    # four objects over 3: 3**4 = 81 candidate presheaves of each variance
    names = ["a", "b", "c", "d"]
    doc = {
        "quantaloids": {"Q": "3"},
        "semicategories": {
            "D": {
                "base": "Q",
                "objects": [{"name": a, "type": "*"} for a in names],
                "hom": [[a, a, 2] for a in names] + [["a", "b", 1]],
            }
        },
    }
    path = write_ws(tmp_path, doc)
    for cls in ("all", "regular", "yoneda"):
        for variance in ("contra", "co"):
            args = ["presheaves", path, "D", "--class", cls, "--variance", variance]
            assert main(["--cap", "81", *args]) == 0
            capsys.readouterr()
            assert main(["--cap", "80", *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "EnumerationCapExceeded: presheaf space of size 81 exceeds cap 80 (witness: 81)\n"
            )
