from collections import Counter

import pytest

import line_reach

SOURCE = '''\
def outer(x):
    """Docstring: no line event, not counted."""
    total = 0

    @staticmethod
    def inner(y):
        nonlocal total
        if y:
            return y
        return f(
            y,
        )
    for _ in x:
        continue
    for _ in x:
        continue
    return inner


class C:
    flag = True

    def method(self):
        return 1
'''


def test_statements_are_keyed_by_scope_and_first_line():
    spans = list(line_reach.statements(SOURCE, "m"))
    assert [key for key, _first, _last in spans] == [
        "m:outer: total = 0",
        "m:outer: def inner(y):",
        "m:outer.inner: if y:",
        "m:outer.inner: return y",
        "m:outer.inner: return f(",
        "m:outer: for _ in x:",
        "m:outer: continue",
        "m:outer: for _ in x:",
        "m:outer: continue",
        "m:outer: return inner",
        "m:C.method: return 1",
    ]
    spans = {(key, first): last for key, first, last in spans}
    # a decorated def runs from its decorator, a compound statement up to its
    # body, and a simple statement over all its lines
    assert spans[("m:outer: def inner(y):", 5)] == 6
    assert spans[("m:outer.inner: if y:", 8)] == 8
    assert spans[("m:outer.inner: return f(", 10)] == 12


def test_unreached_counts_identical_lines_and_reads_every_line_of_a_statement():
    ran = {3, 5, 6, 8, 11, 13, 14, 15, 17, 24}
    missed, where = line_reach.unreached({"m.py": ("m", SOURCE)}, {"m.py": ran})
    assert missed == Counter({"m:outer.inner: return y": 1, "m:outer: continue": 1})
    assert where["m:outer: continue"] == "m.py:16"


def test_compare_fails_in_both_directions():
    missed = Counter({"m:f: raise X": 1, "m:g: continue": 3})
    assert line_reach.compare(missed, Counter(missed), {}) == []
    # a line that is not on the list goes unreached
    problems = line_reach.compare(missed, Counter({"m:g: continue": 3}), {"m:f: raise X": "m.py:9"})
    assert problems == ["unreached and not listed (1 of 1): m:f: raise X  [m.py:9]"]
    # a listed line is reached, or its code is gone
    problems = line_reach.compare(missed, missed + Counter({"m:g: continue": 1, "m:h: pass": 1}), {})
    assert problems == ["listed but reached or gone (1 of 4): m:g: continue",
                        "listed but reached or gone (1 of 1): m:h: pass"]


def test_listed_entries_need_a_reason_a_count_and_one_line_each():
    text = "# comment\nreason: a guard\n  2 m:g: continue\n\n  1 m:f: raise X\n"
    assert line_reach.parse_listed(text) == Counter({"m:g: continue": 2, "m:f: raise X": 1})
    for bad in ("  1 m:f: raise X\n",
                "reason:\n  1 m:f: raise X\n",
                "reason: r\nm:f: raise X\n",
                "reason: r\n  0 m:f: raise X\n",
                "reason: r\n  1 m:f: x\n  1 m:f: x\n"):
        with pytest.raises(ValueError):
            line_reach.parse_listed(bad)


def test_every_listed_line_is_a_statement_of_src():
    """Without tracing: each listed key names at least as many statements
    as its count, so deleted code cannot stay on the list."""
    listed = line_reach.parse_listed(line_reach.LISTED.read_text())
    present = Counter(key for module, source in line_reach.package_sources().values()
                      for key, _first, _last in line_reach.statements(source, module))
    assert listed
    assert {key: n for key, n in listed.items() if present[key] < n} == {}
