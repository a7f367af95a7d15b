"""Malformed workspace files end in a documented exit code, never a traceback."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, strategies as st

from qsemicat.cli import main
from helpers import dumps_repeating_key

BASE = {
    "quantaloids": {
        "Q": "3",
        "R": {
            "objects": ["X", "Y"],
            "homs": {
                "X>X": {"size": 2, "leq": [[0, 1]]},
                "X>Y": {"size": 2, "leq": [[0, 1]]},
                "Y>X": {"size": 2, "leq": [[0, 1]]},
                "Y>Y": {"size": 2, "leq": [[0, 1]]},
            },
            "compose": {
                f"{x}>{y}>{z}": [[0, 0], [0, 1]]
                for x in "XY"
                for y in "XY"
                for z in "XY"
            },
            "id": {"X": 1, "Y": 1},
        },
    },
    "semicategories": {
        "A": {"base": "Q", "objects": [{"name": "*", "type": "*"}], "hom": [["*", "*", 1]]},
        "C": {"base": "Q", "objects": [{"name": "*", "type": "*"}], "hom": [["*", "*", 2]]},
    },
    "semidistributors": {"Phi": {"dom": "A", "cod": "A", "mat": [["*", "*", 1]]}},
    "semifunctors": {"F": {"dom": "A", "cod": "C", "map": {"*": "*"}}},
    "posets": {"P": {"elements": ["0", "1"], "pairs": [["0", "1"]]}},
    "omega_sets": {"E": {"frame": "3", "elements": ["*"], "eq": [["*", "*", 1]]}},
}

COMMANDS = [
    ["validate", "{path}"],
    ["presheaves", "{path}", "A"],
    ["presheaves", "{path}", "C", "--variance", "co"],
    ["morita", "{path}", "A", "C"],
    ["completion", "idm", "R", "--workspace", "{path}"],
    ["completion", "verify", "{path}", "A", "C"],
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from(["", "*", "Q", "A", "3", "X>X"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["", "*", "name", "type", "size", "X>X"]), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


@st.composite
def workspace_docs(draw):
    """The base workspace with one to three of its nodes replaced by arbitrary JSON."""
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replace(doc, path, draw(json_values))
    return doc


@given(doc=workspace_docs(), command=st.sampled_from(COMMANDS), as_json=st.booleans())
def test_malformed_workspace_exits_cleanly(doc, command, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ws.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = (["--json"] if as_json else []) + [arg.format(path=path) for arg in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def _objects(node):
    """The nonempty JSON objects within ``node``, ``node`` included."""
    if isinstance(node, dict):
        if node:
            yield node
        for value in node.values():
            yield from _objects(value)
    elif isinstance(node, list):
        for value in node:
            yield from _objects(value)


@st.composite
def repeated_key_docs(draw):
    """The base workspace as JSON text with one key of one object written twice,
    mapped to its own value or to arbitrary JSON."""
    target = draw(st.sampled_from(list(_objects(BASE))))
    key = draw(st.sampled_from(sorted(target)))
    value = draw(st.just(target[key]) | json_values)
    return dumps_repeating_key(BASE, target, key, value)


@given(text=repeated_key_docs(), command=st.sampled_from(COMMANDS), as_json=st.booleans())
def test_repeated_key_is_a_parse_error(text, command, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ws.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = (["--json"] if as_json else []) + [arg.format(path=path) for arg in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith(f"ParseError: invalid JSON in {path}: duplicate key ")
    assert err.getvalue().count("\n") == 1
