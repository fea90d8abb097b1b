"""One memo mechanism: every process-wide memo of the engine is a namespace
of `qcoideal.memos.MEMOS`, which the fixture `fresh_memos` empties, and
what is memoised per datum lives in `CartanDatum.caches`.  The source scans
here also find every import that its module never reads, and one child
process checks which standard-library modules the package loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from qcoideal import scalars
from qcoideal.cartan import cartan_datum
from qcoideal.memos import MEMOS
from qcoideal.scalars import qfact

SRC = Path(__file__).resolve().parent.parent / "src" / "qcoideal"


def _memos_outside(path):
    """(line, what) for each module-level name of the module bound to an
    empty dict literal, and for each `cache` or `lru_cache` decorator in it."""
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict) and not node.value.keys:
            out.append((node.lineno, "empty dict"))
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            dec = dec.func if isinstance(dec, ast.Call) else dec
            name = dec.id if isinstance(dec, ast.Name) else getattr(dec, "attr", None)
            if name in ("cache", "lru_cache"):
                out.append((node.lineno, name))
    return out


def test_every_process_wide_memo_is_a_namespace_of_memos():
    """A module-level dict or a cached function would be a memo that
    `fresh_memos` does not empty, so a test could pass on what another
    filled."""
    hits = [f"{p.name}:{line}: {what}" for p in sorted(SRC.glob("*.py")) for line, what in _memos_outside(p)]
    assert hits == []


def _unread_imports(path):
    """(line, name) for each name the module imports and never reads;
    `from __future__` imports are exempt."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_no_module_imports_a_name_it_does_not_read():
    """The package's re-exports in `__init__.py` are exempt."""
    hits = [f"{p.name}:{line}: {name}" for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py" for line, name in _unread_imports(p)]
    assert hits == []


# each is loaded only by work that a default run never does: multiprocessing
# (with socket and pickle) by `--jobs` above 1, traceback by a failing sweep
# case; dataclasses, inspect, ast and typing by no module of the package
LAZY_MODULES = ("multiprocessing", "dataclasses", "inspect", "traceback", "typing", "socket", "pickle", "ast")


def test_cli_import_loads_no_module_a_default_run_leaves_unused():
    """`import qcoideal.cli` in a fresh interpreter; the child compares
    `sys.modules` before and after, so what `site` preloads does not count."""
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qcoideal.cli\n"
        f"print(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules and m not in before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scalar_memos_and_named_data_live_in_memos(fresh_memos):
    for ns, name in (("cyclotomic", "_CYCLOTOMIC"), ("factors", "_FACTORS"),
                     ("products", "_PRODUCTS"), ("strips", "_STRIPS"), ("lefts", "_LEFTS")):
        assert getattr(scalars, name) is MEMOS[ns]
    assert not any(MEMOS.values())
    a3 = cartan_datum("A", 3)
    assert MEMOS["datum"] == {("A", 3): a3}
    assert qfact(3).inverse() + qfact(4).inverse()
    assert MEMOS["cyclotomic"] and MEMOS["products"] and MEMOS["strips"]
    fresh_memos()
    assert not any(MEMOS.values())
    assert cartan_datum("A", 3) is not a3
