"""No module of the library imports a name it never reads, apart from the
three that the benchmark harness in ``bench/`` wraps as module-boundary
names, so an import that a moved or removed function leaves behind fails
here."""

import ast
import pathlib

import qsemicat

# read by bench/ through these modules, though the modules themselves do not
KEPT_FOR_BENCH = [
    "completion.is_regular_semicat",
    "completion.validate_sup_lattice",
    "morita.enumerate_regular_semidists",
]


def unread_imports(source):
    """The names that ``source`` binds by an import and never reads, in
    sorted order; ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_library_modules_read_every_name_they_import():
    package = pathlib.Path(qsemicat.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unread = [
        f"{p.stem}.{name}"
        for p in modules
        for name in unread_imports(p.read_text(encoding="utf-8"))
    ]
    assert unread == KEPT_FOR_BENCH
