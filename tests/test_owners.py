"""The element rule has one owner: ``lattice`` decides what an element of a
hom-lattice is (``e in lat``), and no other module of the library compares
``type(...)`` with ``int`` by ``is`` or ``is not``, so a hand copy of the
rule fails here with its module and line."""

import ast
import pathlib

import qsemicat


def type_is_int_lines(source):
    """The lines of ``source`` holding a comparison ``type(...) is int`` or
    ``type(...) is not int``, chained ones such as ``type(i) is type(j) is
    int`` among them, in line order."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if (
            any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(x, ast.Name) and x.id == "int" for x in operands)
            and any(
                isinstance(x, ast.Call) and isinstance(x.func, ast.Name) and x.func.id == "type"
                for x in operands
            )
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_type_is_int_finds_each_form():
    source = "a = type(e) is int\nb = type(e) is not int\nc = type(i) is type(j) is int\n"
    assert type_is_int_lines(source) == [1, 2, 3]
    assert type_is_int_lines("a = type(e) == int\nb = isinstance(e, int)\nc = e is int\n") == []


def test_only_lattice_decides_what_an_element_is():
    package = pathlib.Path(qsemicat.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "lattice.py")
    assert len(modules) > 5
    copies = [
        f"{p.stem}:{line}"
        for p in modules
        for line in type_is_int_lines(p.read_text(encoding="utf-8"))
    ]
    assert copies == []
