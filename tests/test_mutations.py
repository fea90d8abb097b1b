"""Planted bugs: each mutant of the engine must make a named check fail.

Every "zero" or "equal" verdict trusts straightening, the zero walk and
the canonical form of scalars, so a bug in any one must fail loudly.  A
mutant is an edit of the engine's source text (`mutation_checks.MUTANTS`):
a few exact (old text, new text) pairs, whose old text must occur exactly
once in its file.  Each mutant is planted in a copy of the package in a
temporary directory, and its check runs there in a fresh interpreter that
imports the copy.  A fresh process starts with every memo empty, so no
memo filled by the unpatched engine or by another test hides a mutant,
and no fixture has to empty them.
The child exits 0 when its checks hold and 1 when one fails; any other
exit, and any traceback, fails the test with the child's stderr, so a
fault of the harness is never counted as a kill.  The unpatched engine
passes every check, in this process and in a fresh copy.
"""

import shutil

import pytest

import mutation_checks
from mutation_checks import CHECKS, MUTANTS, PACKAGE, plant, run_checks


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_engine_passes_check(name):
    assert CHECKS[name]()


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_fails_its_check(tmp_path, mutant):
    name, edits = MUTANTS[mutant]
    assert run_checks(plant(tmp_path, edits), [name]) == 1


def test_unpatched_copy_passes_every_check(tmp_path):
    assert run_checks(plant(tmp_path, []), sorted(CHECKS)) == 0


def test_table_mutant_passes_on_a_cold_table(tmp_path):
    """The E-keyed table answers F_2 E_1 correctly while it is cold: only
    an entry filled for another F-word exposes it."""
    _name, edits = MUTANTS["key_table_on_e"]
    assert run_checks(plant(tmp_path, edits), ["commute-cold"]) == 0


@pytest.mark.parametrize("old", ["no such text", "return out"])
def test_edit_must_match_exactly_once(tmp_path, old):
    with pytest.raises(ValueError, match="exactly once"):
        plant(tmp_path, [("uqg.py", old, "")])


@pytest.mark.parametrize("new, shown", [
    ("__version__ = (", "SyntaxError"),  # a traceback, exit 1
    ("raise SystemExit(3)", "exited 3"),
])
def test_harness_fault_is_not_a_kill(tmp_path, new, shown):
    root = plant(tmp_path, [("__init__.py", '__version__ = "0.1.0"', new)])
    with pytest.raises(RuntimeError, match=shown):
        run_checks(root, ["ef-commutator"])


def test_child_refuses_an_engine_outside_the_copy(tmp_path):
    """A copy without its engine, on a path that goes on to the tested
    package as an exported PYTHONPATH=src would: the child stops at its
    guard instead of checking an engine it was not given."""
    shutil.copy(mutation_checks.__file__, tmp_path)
    with pytest.raises(RuntimeError, match="lies outside the copy"):
        run_checks(tmp_path, ["ef-commutator"], [PACKAGE.parent])
