"""Every function-body line of src/qcoideal is reached by Tier-1 or listed.

    PYTHONPATH=src python tests/line_reach.py

The script runs the Tier-1 suite in this process under `sys.settrace` and
records every line that runs in a file of src/qcoideal.  It then lists the
statements in function bodies that never ran and compares them with
tests/data/unreached.txt.  It exits 1, naming the line, when a statement
that is not on the list goes unreached, and also when a listed statement
is reached (or no longer exists), so the list can only shrink; it exits
with the suite's own status when a test fails.

A statement counts once, at its first line, and is reached when any line
from its first line to the end of its header runs (a multi-line call
reports the line of its last argument first).  Docstrings and `nonlocal`
and `global` declarations are left out, since no code runs for them; a
nested function counts on its own; module and class bodies are not
counted.  Entries are keyed `module:function: stripped first line`, not by
line number, so an edit elsewhere in a file does not move them; a key that
names several identical statements carries their count.

The list reads one entry a line, `COUNT KEY`, indented under the
`reason:` line that explains why no test reaches it; `#` starts a comment
line.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcoideal"
LISTED = ROOT / "tests" / "data" / "unreached.txt"


def _header_end(stmt):
    """The last line of `stmt` that belongs to it and not to a body of it."""
    bodies = [getattr(stmt, name, None) for name in ("body", "orelse", "handlers", "finalbody")]
    firsts = [b[0].lineno for b in bodies if b]
    return min(firsts) - 1 if firsts else stmt.end_lineno


def _is_docstring(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def statements(source, module):
    """Yield (key, first, last) for every counted statement of `source`:
    its key, and the lines that mark it reached."""
    lines = source.splitlines()

    def block(stmts, scope):
        for stmt in stmts:
            if isinstance(stmt, (ast.Nonlocal, ast.Global)):
                continue
            start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
            yield f"{module}:{scope}: {lines[stmt.lineno - 1].strip()}", start, _header_end(stmt)
            yield from inner(stmt, scope)

    def inner(node, scope):
        """The statements nested in `node`, and the functions it defines."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{scope}.{node.name}" if scope else node.name
            body = node.body[1:] if _is_docstring(node.body[0]) else node.body
            yield from block(body, name)
            return
        if isinstance(node, ast.ClassDef):
            name = f"{scope}.{node.name}" if scope else node.name
            for stmt in node.body:
                yield from inner(stmt, name)
            return
        for field in ("body", "orelse", "finalbody"):
            yield from block(getattr(node, field, []), scope)
        for handler in getattr(node, "handlers", []):
            yield from block(handler.body, scope)

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from inner(node, "")


def unreached(sources, hits):
    """The Counter of keys whose statements never ran, and one place
    (`file:line`) for each key.  `sources` maps a path to (module, text),
    `hits` a path to the set of lines that ran in it."""
    missed, where = Counter(), {}
    for path, (module, source) in sources.items():
        ran = hits.get(path, set())
        for key, first, last in statements(source, module):
            if not any(line in ran for line in range(first, last + 1)):
                missed[key] += 1
                where.setdefault(key, f"{path}:{first}")
    return missed, where


def parse_listed(text):
    """The Counter of keys in the text of tests/data/unreached.txt; every
    entry must stand under a `reason:` line."""
    listed, reason = Counter(), None
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith("reason:"):
            reason = line[len("reason:"):].strip()
            if not reason:
                raise ValueError(f"line {number}: empty reason")
            continue
        count, _, key = line.strip().partition(" ")
        if not line.startswith(" ") or not count.isdigit() or int(count) < 1 or ":" not in key:
            raise ValueError(f"line {number}: expected '  COUNT module:function: line', got {line!r}")
        if reason is None:
            raise ValueError(f"line {number}: entry before any 'reason:' line")
        if key in listed:
            raise ValueError(f"line {number}: {key!r} is listed twice")
        listed[key] = int(count)
    return listed


def compare(missed, listed, where):
    """One message per key on which `missed` and `listed` disagree."""
    problems = []
    for key in sorted(set(missed) | set(listed)):
        extra = missed[key] - listed[key]
        if extra > 0:
            problems.append(f"unreached and not listed ({extra} of {missed[key]}): {key}"
                            f"  [{where.get(key, '?')}]")
        elif extra < 0:
            problems.append(f"listed but reached or gone ({-extra} of {listed[key]}): {key}")
    return problems


def package_sources():
    return {str(path): (path.stem, path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def main():
    import pytest

    sources = package_sources()
    hits = {path: set() for path in sources}
    tracers = {}

    def tracer(ran):
        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            ran = hits.get(str(Path(name).resolve()))
            tracers[name] = None if ran is None else tracer(ran)
        return tracers[name]

    sys.settrace(hook)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"line_reach: the suite exited {int(status)}, so reach is not measured", file=sys.stderr)
        return int(status) or 1
    missed, where = unreached(sources, hits)
    problems = compare(missed, parse_listed(LISTED.read_text()), where)
    for problem in problems:
        print(problem)
    total = sum(len(list(statements(s, m))) for m, s in sources.values())
    print(f"line_reach: {sum(missed.values())} of {total} statements unreached, "
          f"{len(problems)} disagreements with {LISTED.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
