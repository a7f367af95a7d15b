"""The statement table of ``tests/linecov.py`` on a small module, traced for real."""

import sys

from linecov import against, justified, never_ran, statements

SOURCE = '''"""A module."""

total = 0


def outer(flag):
    """Count."""
    global total
    seen = 0

    def inner():
        nonlocal seen
        seen += 1

    if flag:
        inner()
    else:
        total = (
            1
        )
    return seen
'''


def _traced_lines(path):
    """The lines of ``path`` that emit a line event when it is run and
    ``outer(True)`` is called."""
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename == str(path) else None

    namespace = {}
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        exec(compile(SOURCE, str(path), "exec"), namespace)
        namespace["outer"](True)
    finally:
        sys.settrace(previous)
    return hits


def test_declarations_and_docstrings_are_not_statements():
    stmts, owner = statements(SOURCE)
    assert sorted(node.lineno for node, _, _ in stmts) == [3, 6, 9, 11, 13, 15, 16, 18, 21]
    # a statement spread over several lines owns all of them
    assert owner[18] is owner[19] is owner[20]
    assert not {1, 7, 8, 12} & set(owner)


def test_only_the_branch_not_taken_never_ran(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SOURCE, encoding="utf-8")
    hits = _traced_lines(path)
    # global and nonlocal declarations emit no line event
    assert not {8, 12} & hits
    assert never_ran(path, hits) == ([18], 9)


def test_only_statements_off_the_list_and_stale_entries_are_reported():
    listed = justified("# a reason\n\nm.py: return x\nm.py: gone()\n# n.py: not an entry\n")
    assert listed == {("m.py", "return x"), ("m.py", "gone()")}
    never = [("m.py", 3, "return x"), ("m.py", 9, "raise E()")]
    assert against(never, listed) == ([("m.py", 9, "raise E()")], [("m.py", "gone()")])
