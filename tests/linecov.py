"""Statement coverage of ``src/qsemicat`` with the standard library alone.

A pytest plugin on :func:`sys.settrace`; no coverage package is needed.
Run it from the repository root with ``tests`` on the path:

    PYTHONPATH=src:tests python -m pytest -q -p linecov

At the end of the session it prints the statements that never ran and are
not in ``tests/linecov_justified.txt``, each as ``+ module:line: text``, and
each entry of that list that ran after all or is gone, as ``- module: text``,
then a count; a suite that runs all it should prints no ``+`` or ``-`` line.
The list names a statement by its module and the text of its first line, so
an entry survives edits elsewhere in the module.  A statement counts as run
when any line of its own text ran (so a call spread over several lines
counts once), and a compound statement also when any statement in its body
ran.  Docstrings are not
statements, nor are ``global`` and ``nonlocal`` declarations, which emit no
line event when their function runs.  Code run in subprocesses (the demo
and CLI entry point tests) is not traced.  Tracing makes the suite several times slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qsemicat"
JUSTIFIED = Path(__file__).resolve().parent / "linecov_justified.txt"
_hits: dict = {}  # file name -> line numbers that ran
_local: dict = {}  # code file name -> its local trace function, or None outside the package


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    try:
        return _local[name]
    except KeyError:
        pass
    path = Path(name).resolve()
    if path.parent != PACKAGE:
        _local[name] = None
        return None
    lines = _hits.setdefault(str(path), set())

    def local(frame, event, arg, add=lines.add):
        if event == "line":
            add(frame.f_lineno)
        return local

    _local[name] = local
    return local


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DECLARATIONS = (ast.Global, ast.Nonlocal)


def _is_docstring(node) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _body_statements(node):
    """The statements nested directly in a compound statement."""
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, ()):
            if isinstance(child, ast.stmt):
                yield child
            else:  # an except handler or a match case holds statements
                yield from child.body


def statements(source: str):
    """The statements of a module, each with its parent and its own lines:
    the lines of its text outside the statements nested in it.  Docstrings
    and declarations are left out."""
    tree = ast.parse(source)
    out, owner = [], {}
    pending = [(tree, None)]
    while pending:
        node, parent = pending.pop()
        children = list(_body_statements(node))
        for i, child in enumerate(children):
            if isinstance(child, _DECLARATIONS):
                continue
            if not (i == 0 and isinstance(node, _DOCUMENTED) and _is_docstring(child)):
                pending.append((child, node if isinstance(node, ast.stmt) else None))
        if isinstance(node, ast.Module):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        nested = {line for child in children for line in range(child.lineno, child.end_lineno + 1)}
        own = [line for line in range(first, node.end_lineno + 1) if line not in nested]
        out.append((node, parent, own))
        for line in own:
            owner[line] = node
    return out, owner


def never_ran(path: Path, hits):
    """The first lines of the statements of ``path`` that never ran, and the
    number of its statements."""
    stmts, owner = statements(path.read_text(encoding="utf-8"))
    ran = {owner[line] for line in hits if line in owner}
    parent_of = {node: parent for node, parent, _ in stmts}
    for node in list(ran):
        parent = parent_of[node]
        while parent is not None and parent not in ran:
            ran.add(parent)
            parent = parent_of[parent]
    return sorted(node.lineno for node, _, _ in stmts if node not in ran), len(stmts)


def justified(text: str):
    """The entries of a justified list: ``(module, first line of the
    statement)`` from each line ``module.py: text``.  Blank lines and lines
    starting with ``#``, the reasons, are skipped."""
    entries = set()
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            module, _, statement = line.partition(": ")
            entries.add((module, statement.strip()))
    return entries


def against(never, listed):
    """``(new, stale)``: the never-run ``(module, line, text)`` whose
    ``(module, text)`` is not in ``listed``, and the listed entries that no
    never-run statement matches."""
    new = [(module, line, text) for module, line, text in never if (module, text) not in listed]
    stale = sorted(listed - {(module, text) for module, _, text in never})
    return new, stale


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    sys.settrace(None)
    threading.settrace(None)
    never, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        missing, count = never_ran(path, _hits.get(str(path), ()))
        source = path.read_text(encoding="utf-8").splitlines()
        never += [(path.name, line, source[line - 1].strip()) for line in missing]
        total += count
    new, stale = against(never, justified(JUSTIFIED.read_text(encoding="utf-8")))
    write = terminalreporter.write_line
    terminalreporter.write_sep("-", "statements of src/qsemicat that never ran, beyond the list")
    for module, line, text in new:
        write(f"+ {module}:{line}: {text}")
    for module, text in stale:
        write(f"- {module}: {text}")
    write(f"{len(never)} of {total} statements never ran, {len(never) - len(new)} of them listed")
