import hashlib
import importlib.util
import json
import os
import random
from pathlib import Path

import pytest

from qcoideal.cartan import cartan_datum
from qcoideal.cli import main
from qcoideal.grammar import (
    element_from_json,
    element_to_json,
    element_to_text,
    ScalarParseError,
    parse_element,
    parse_scalar,
    scalar_to_text,
)
from qcoideal.scalars import I_UNIT, ONE, Scalar, qint
from qcoideal.uqg import Element

Q = Scalar.q_pow(1)
A2 = cartan_datum("A", 2)


def test_scalar_text_forms():
    assert scalar_to_text(Scalar.gaussian(0)) == "0"
    assert scalar_to_text(Q + Q ** -1) == "v^2 + v^-2"
    assert parse_scalar("q + q^-1") == Q + Q ** -1
    assert parse_scalar("3/2 * v^4") == Scalar.gaussian("3/2") * Scalar.v_pow(4)
    assert parse_scalar("(1+2*i) * v") == (ONE + I_UNIT + I_UNIT) * Scalar.v_pow(1)
    assert parse_scalar("( 1 - q^2 )/( 1 - q^4 )") == (ONE - Q ** 2) / (ONE - Q ** 4)
    assert parse_scalar("-i") == -I_UNIT


def test_scalar_roundtrip_random():
    rng = random.Random(17)
    pool = [ONE, Q, -Q, Q ** -1, Q ** 2, ONE + Q ** 2, qint(2, 1), I_UNIT,
            I_UNIT * Q ** -3, Scalar.gaussian("2/3")]
    for _ in range(200):
        s = rng.choice(pool) + rng.choice(pool) * rng.choice(pool)
        den = rng.choice([ONE, ONE + Q ** 2, Q - Q ** -1])
        s = s / den
        assert parse_scalar(scalar_to_text(s)) == s


def test_element_text_and_json_roundtrip():
    x = (
        Element.monomial(A2, (1, 2), (1, -1), (2,), Q + ONE)
        + Element.monomial(A2, (), A2.zero_vector(), (), -I_UNIT)
    )
    text = element_to_text(x)
    assert parse_element(A2, text) == x
    assert element_from_json(A2, element_to_json(x)) == x
    assert parse_element(A2, "0") == Element.zero(A2)


def test_element_roundtrip_random():
    rng = random.Random(23)
    data = [A2, cartan_datum("B", 2), cartan_datum("A", 3)]
    for t in range(200):
        datum = data[t % 3]
        x = Element.zero(datum)
        for _ in range(rng.randint(1, 3)):
            letters = tuple(rng.choice(datum.labels) for _ in range(rng.randint(0, 3)))
            cut = rng.randint(0, len(letters))
            kvec = tuple(rng.randint(-2, 2) for _ in datum.labels)
            coeff = rng.choice([ONE, Q, -Q ** -1, ONE + Q ** 2, I_UNIT])
            x = x + Element.monomial(datum, letters[:cut], kvec, letters[cut:], coeff)
        assert parse_element(datum, element_to_text(x)) == x
        assert element_from_json(datum, element_to_json(x)) == x


def test_scalar_division_by_zero_is_a_parse_error():
    for text in ("1/0", "(q-q)^-1"):
        with pytest.raises(ScalarParseError, match="division by zero"):
            parse_scalar(text)


def test_element_from_json_rejects_unknown_letters():
    for word in ({"E": [9], "F": []}, {"E": [1], "F": [2, 9]}):
        with pytest.raises(ValueError, match="unknown node label 9"):
            element_from_json(A2, {"terms": [dict(word, coeff="1")]})
    with pytest.raises(ValueError, match="unknown node label 9"):
        parse_element(A2, "E[9] * (1)")
    for word in ({"E": [1.0]}, {"F": [True]}, {"E": ["1"]}, {"K": {"1": 1.5}}, {"K": {"1": True}}):
        with pytest.raises(ValueError, match="is not an integer"):
            element_from_json(A2, {"terms": [dict(word, coeff="1")]})



def test_signs_in_front_of_a_factor_apply_to_its_whole_power():
    V = Scalar.v_pow(1)
    two = Scalar.gaussian(2)
    assert parse_scalar("2*-v^2") == -two * V ** 2 == parse_scalar("-2*v^2")
    assert parse_scalar("2*-q^2") == -two * Q ** 2
    assert parse_scalar("1+-v^2") == ONE - V ** 2
    assert parse_scalar("1 - -v^2") == ONE + V ** 2
    assert parse_scalar("1/-v^2") == -(V ** -2)
    # unchanged from before the sign rule
    assert parse_scalar("-v^2") == -(V ** 2)
    assert parse_scalar("(-v)^2") == V ** 2
    assert parse_scalar("--v") == V
    assert parse_scalar("v^+-2") == V ** -2


@pytest.mark.parametrize("text, message", [
    ("v + x", "unexpected character 'x'"),
    ("v²", "unexpected character"),
    ("1)", "trailing input"),
    ("2 v", "trailing input"),
    ("(1 + v", r"missing '\)'"),
    ("v^v", "integer literal"),
    ("v^2^3", "integer literal"),
    ("v^(2)", "integer literal"),
    ("", "got the end"),
    ("  -  ", "got the end"),
    ("1 + * v", "got '\\*'"),
])
def test_scalar_parse_errors(text, message):
    with pytest.raises(ScalarParseError, match=message):
        parse_scalar(text)


@pytest.mark.parametrize("value", [1, 1.5, None, ["q"], {"q": 1}])
def test_scalar_text_must_be_a_string(value):
    with pytest.raises(ScalarParseError, match="must be a string"):
        parse_scalar(value)


def test_long_sums_and_sign_chains_parse_and_deep_nesting_is_refused():
    assert parse_scalar("+".join(["1"] * 100001)) == Scalar.gaussian(100001)
    assert parse_scalar("-" * 100000 + "v") == Scalar.v_pow(1)
    assert parse_scalar("-" * 99999 + "v") == -Scalar.v_pow(1)
    assert parse_scalar("(" * 100 + "q" + ")" * 100) == Q
    with pytest.raises(ScalarParseError, match="nests parentheses over 100 deep"):
        parse_scalar("(" * 101 + "q" + ")" * 101)


def test_element_parts_are_read_once_and_in_order():
    x = Element.monomial(A2, (1,), (1, 0), (2,), ONE)
    assert parse_element(A2, "E[1] K{1:1} F[2] * (1)") == x
    assert parse_element(A2, "E[1]K{1:1}F[2] * 1") == x
    assert parse_element(A2, "K{1:1,1:1} * (1)") == Element.monomial(A2, (), (2, 0), (), ONE)
    assert parse_element(A2, "1 * (2*v)") == parse_element(A2, "1 * 2*v")
    for mono in ("E[1] E[2]", "F[1] E[1]", "K{1:1} E[1]", "K{1:1} K{1:1}",
                 "F[1] K{1:1}", "E[1] F[1] F[2]", "E 1", "X[1]"):
        with pytest.raises(ScalarParseError, match="at most once and in this order"):
            parse_element(A2, mono + " * (1)")
    for text in ("E[1]", "E[1] * (1) + ", "E[1] * (1) + + F[1] * (1)"):
        with pytest.raises(ScalarParseError, match="lacks a"):
            parse_element(A2, text)


def _one_error_line(capsys, start):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(start), err
    return err


def test_cli_parameter_keys_name_negative_labels(capsys):
    cartan = '{"A": [[2, -1], [-1, 2]], "labels": [-1, 2]}'
    argv = ["--cartan", cartan, "--pair", '{"X": [], "tau": []}',
            "--params", '{"c": {"-1": "q", "2": "q"}}', "compute", "--what", "Bi", "--i=-1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("F[-1] * (1) + E[-1]")


def test_cli_json_of_the_wrong_shape_is_an_input_error(tmp_path, capsys):
    params = '{"cartan": {"type": "A", "rank": 2}, "pair": %s, "c": %s}'
    cases = [
        (["--cartan", '{"nodes": 2}', "--pair", '{"X": []}', "canonical"], "KeyError"),
        (["--cartan", '{"A": 5}', "--pair", '{"X": []}', "canonical"], "TypeError"),
        (["--cartan", '[2]', "--pair", '{"X": []}', "canonical"], "TypeError"),
        (["--cartan", "A:2", "--pair", '{"X": 5}', "canonical"], "TypeError"),
        (["--cartan", "A:2", "--pair", '[1, 2]', "canonical"], "AttributeError"),
        (["--cartan", "A:2", "--pair", '{"tau": [1]}', "validate-pair"], "TypeError"),
        (["--params", params % ('{"X": []}', '{"1": 1, "2": "q"}'), "bar-exists"],
         "must be a string, got int"),
        (["--params", params % ('{"X": []}', '{"1": ["q"], "2": "q"}'), "bar-exists"],
         "must be a string, got list"),
        (["--params", params % ('{"X": []}', '["q", "q"]'), "bar-exists"], "AttributeError"),
        (["--params", params % ('{"tau": 3}', '{"1": "q", "2": "q"}'), "bar-exists"],
         "pair JSON has the wrong shape"),
        (["--params", '[1]', "--cartan", "A:2", "bar-exists"], "parameter JSON"),
        (["--cartan", str(tmp_path), "--pair", '{"X": []}', "canonical"], "cannot read"),
    ]
    # a parameter key names a node only as the decimal text of its label
    for key in ("01", " 1", "+1"):
        c = '{"1": "q", "%s": "q^-1", "2": "q"}' % key
        cases.append((["--params", params % ('{"X": [], "tau": [[1, 2]]}', c),
                       "compute", "--what", "Bi", "--i", "1"], "is not a node label"))
    # a number that must be an int is refused, not truncated or cast
    a2 = '"A": [[2, -1], [-1, 2]]'
    for cartan, pair in [
        ('{"A": [[2, -1.5], [-1, 2]]}', '{"X": [], "tau": []}'),
        ('{%s, "eps": [1.5, 1]}' % a2, '{"X": [], "tau": []}'),
        ('{%s, "labels": [1.9, 2]}' % a2, '{"X": [], "tau": []}'),
        ('{%s, "labels": [true, 2]}' % a2, '{"X": [], "tau": []}'),
        ('{%s, "nodes": 2.0}' % a2, '{"X": [], "tau": []}'),
        ('{"type": "A", "rank": 2.9}', '{"X": [], "tau": []}'),
        ('{"type": "A", "rank": "3"}', '{"X": [], "tau": []}'),
        ("A:3", '{"X": [1.7], "tau": [[1,3]]}'),
        ("A:3", '{"X": [true], "tau": [[1,3]]}'),
        ("A:3", '{"X": [2], "tau": [[1.2, 3]]}'),
        ("A:3", '{"X": [2], "tau": [["1", "3"]]}'),
        ("A:3", '{"X": [2], "tau": [["01", "3"]]}'),
    ]:
        cases.append((["--cartan", cartan, "--pair", pair, "validate-pair"], "is not an integer"))
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert message in _one_error_line(capsys, "error: "), argv


def test_cli_deep_nesting_is_an_input_error(capsys):
    deep = "(" * 1000 + "q" + ")" * 1000
    argv = ["--params", '{"cartan": {"type": "A", "rank": 2}, "pair": {"X": [], "tau": []}, '
            '"c": {"1": "%s", "2": "q"}}' % deep, "bar-exists"]
    assert main(argv) == 2
    assert "nests parentheses" in _one_error_line(capsys, "error: ")


def test_cli_crash_is_never_a_verdict(monkeypatch, capsys):
    """Any exception that is not an input error exits 3 with one line."""
    import qcoideal.cli as cli

    argv = ["--params", '{"cartan": {"type": "A", "rank": 2}, "pair": {"X": [], "tau": []}, '
            '"c": {"1": "1", "2": "q"}}', "bar-exists"]
    for exc in (TypeError("bad operand"), AttributeError("lost"), IndexError("gone"),
                RecursionError("deep")):
        def raising(*args, _exc=exc, **kwargs):
            raise _exc

        monkeypatch.setattr(cli, "bar_exists", raising)
        assert main(argv) == 3, exc
        err = _one_error_line(capsys, "internal error: ")
        assert f"{type(exc).__name__}: {exc}" in err


def test_cli_validate_pair_exit_codes(capsys):
    assert main(["--cartan", "A:3", "--pair", '{"X": [2], "tau": [[1,3]]}',
                 "validate-pair"]) == 0
    assert main(["--cartan", "A:3", "--pair", '{"X": [2], "tau": []}',
                 "validate-pair"]) == 1
    assert main(["--cartan", "A:3", "--pair", "not json {",
                 "validate-pair"]) == 2


def test_cli_refuses_a_tau_that_is_no_diagram_automorphism(capsys):
    for tau, message in [("[[1,2]]", "tau does not preserve the Cartan matrix"),
                         ("[[1,2],[2,3]]", "tau is not a permutation of the node labels")]:
        argv = ["--cartan", "A:3", "--pair", '{"X": [], "tau": %s}' % tau, "validate-pair"]
        assert main(argv) == 1, tau
        assert capsys.readouterr().out == f"invalid:\n  - {message}\n", tau


def test_cli_refuses_a_matrix_that_is_no_cartan_matrix(capsys):
    for cartan, message in [('{"A": [[2,-1],[-1,3]]}', "must be square with 2 on the diagonal"),
                            ('{"A": [[2,-1,-1],[-1,2,-1],[-2,-1,2]]}', "not symmetrizable"),
                            ('{"A": [[2,-1],[-1,2]], "labels": [1,1]}', "node labels must be distinct"),
                            ('{"A": [[2,-1],[-1,2]], "eps": [0,1]}', "symmetrizers must be positive"),
                            ('{"A": [[2,-1],[-2,2]], "eps": [1,1]}', "D*A is not symmetric"),
                            ('{"A": [[2,-1],[-1,2]], "nodes": 3}', "'nodes' disagrees with matrix size"),
                            ("A:0", "type A needs rank >= 1"),
                            ("affine:A:0", "affine:A needs rank >= 1"),
                            ("E:5", "type E needs rank 6, 7 or 8"),
                            ("F:3", "type F needs rank 4")]:
        argv = ["--cartan", cartan, "--pair", '{"X": [], "tau": []}', "validate-pair"]
        assert main(argv) == 2, cartan
        assert message in _one_error_line(capsys, "error: "), cartan


def test_cli_names_the_input_a_command_lacks(capsys):
    a3 = ["--cartan", "A:3", "--pair", '{"X": [2], "tau": [[1,3]]}',
          "--params", '{"c": {"1": "q", "3": "q"}}']
    for argv, message in [
        (["--pair", '{"X": [], "tau": []}', "validate-pair"], "a Cartan datum is required (--cartan)"),
        (["--cartan", "A:2", "validate-pair"], "missing required JSON input"),
        (["--cartan", "A:2", "canonical"], "an admissible pair is required (--pair)"),
        (a3 + ["compute", "--what", "Bi"], "--i is required for compute"),
        (a3 + ["compute", "--what", "Wij", "--i", "1"], "--j is required for Wij"),
    ]:
        assert main(argv) == 2, argv
        assert _one_error_line(capsys, "error: ") == f"error: {message}\n", argv


def test_cli_reads_a_pair_from_a_json_file(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text('{"X": [2], "tau": [[1,3]]}')
    assert main(["--cartan", "A:3", "--pair", str(path), "validate-pair"]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_cli_compute_quasi_split_z(capsys):
    code = main([
        "--cartan", "A:2",
        "--pair", '{"X": [], "tau": []}',
        "--params", '{"c": {"1": "q", "2": "1"}}',
        "compute", "--what", "Zi", "--i", "1",
    ])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "1 * (-1)"


def test_cli_compute_closed_zero(capsys):
    code = main([
        "--cartan", '{"nodes": 2, "A": [[2, 0], [0, 2]], "eps": [1, 1]}',
        "--pair", '{"X": [], "tau": []}',
        "--params", '{"c": {"1": "q", "2": "q"}}',
        "compute", "--what", "Cij-closed", "--i", "1", "--j", "2",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_bar_exists_exit_codes(capsys):
    base = '{"cartan": {"type": "A", "rank": 3}, "pair": {"X": [], "tau": [[1,3]]}, '
    good = base + '"c": {"1": "1", "2": "q^-1", "3": "1"}}'
    bad = base + '"c": {"1": "1", "2": "1", "3": "1"}}'
    assert main(["--params", good, "bar-exists"]) == 0
    assert main(["--params", bad, "bar-exists"]) == 1


def test_cli_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "does-not-exist"]) == 2


def test_cli_verify_checks_limits_before_work(monkeypatch, capsys):
    import multiprocessing
    import os

    import qcoideal.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("work started despite an invalid limit")

    # the sweep imports Pool from multiprocessing when it starts a pool
    monkeypatch.setattr(multiprocessing, "Pool", never)
    work = (
        "run_suite", "enumerate_admissible", "nu_sign", "bar_exists", "canonical_params",
        "context_for", "b_generator", "w_element", "c_closed", "c_oracle",
    )
    for name in work:
        monkeypatch.setattr(cli, name, never)
    sweep = ["verify", "--suite", "serre-oracle-sweep"]
    too_many = str((os.cpu_count() or 1) + 1)
    params = '{"cartan": {"type": "A", "rank": 2}, "pair": {"X": [], "tau": []}}'
    pair = ["--cartan", "A:2", "--pair", '{"X": [], "tau": []}']
    for command in (
        sweep,
        ["nu-atlas"],
        ["--params", params, "bar-exists"],
        pair + ["canonical"],
        ["--params", params, "compute", "--what", "Bi", "--i", "1"],
    ):
        assert main(["--max-bucket", "0"] + command) == 2, command
        assert "--max-bucket must be at least 1" in capsys.readouterr().err
        for jobs in ("0", too_many):
            assert main(["--jobs", jobs] + command) == 2, command
            assert "--jobs must be between 1 and" in capsys.readouterr().err


def test_cli_max_bucket_reaches_every_zero_test():
    """`--max-bucket 1` stops every command whose zero tests meet a bucket
    of two or more dual words, the nu signs and bar checks included, and
    exits 2 with one line; commands without such a bucket still pass.

    Each command runs in a fresh process, since a nu sign cached in this
    one would run no zero test."""
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    stopped = [["verify", "--suite", s] for s in (
        "nu-atlas", "sigma-tau", "bar-examples", "bar-z", "qsp-structure", "serre-oracle-sweep",
    )] + [["nu-atlas"]]
    if (os.cpu_count() or 1) >= 2:
        stopped.append(["--jobs", "2", "verify", "--suite", "serre-oracle-sweep"])
    passing = [["verify", "--suite", s] for s in ("scalars", "roundtrip")]
    procs = [
        (argv, subprocess.Popen(
            [sys.executable, "-m", "qcoideal.cli", "--max-bucket", "1"] + argv,
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        ))
        for argv in stopped + passing
    ]
    for argv, proc in procs:
        _out, err = proc.communicate(timeout=120)
        if argv in passing:
            assert proc.returncode == 0, (argv, err)
        else:
            assert proc.returncode == 2, (argv, err)
            assert len(err.splitlines()) == 1 and "exceeds guard 1" in err, (argv, err)


def test_cli_guard_names_the_exact_dual_word_count():
    """The guard message carries the multinomial count of the first bucket,
    in term order, that exceeds it, so a miscounted bucket or a reordered
    element shows in the number."""
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cases = (("bar-z", 2), ("qsp-structure", 3), ("sigma-tau", 6),
             ("serre-oracle-sweep", 3), ("cij-closed-vs-oracle", 2))
    for suite, count in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "qcoideal.cli", "--max-bucket", "1", "verify", "--suite", suite],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        assert proc.returncode == 2, (suite, proc.stderr)
        want = f"error: bucket with {count} dual-word evaluations exceeds guard 1\n"
        assert proc.stderr == want, (suite, proc.stderr)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")
def test_cli_sweep_report_is_independent_of_jobs(tmp_path, capsys):
    sweep = ["verify", "--suite", "serre-oracle-sweep"]
    pooled, serial = tmp_path / "jobs2.json", tmp_path / "jobs1.json"
    assert main(["--jobs", "2", "--out", str(pooled)] + sweep) == 0
    pooled_out = capsys.readouterr().out
    assert main(["--jobs", "1", "--out", str(serial)] + sweep) == 0
    assert capsys.readouterr().out == pooled_out
    assert pooled.read_bytes() == serial.read_bytes()
    assert len(json.loads(serial.read_text())["checks"]) == 268


def test_cli_engine_inconsistency_exit_code(monkeypatch, capsys):
    import qcoideal.cli as cli
    from qcoideal.barcheck import EngineInconsistencyError

    def boom(args):
        raise EngineInconsistencyError("forced for the exit-code contract")

    monkeypatch.setitem(cli._COMMANDS, "canonical", boom)
    assert main(["--cartan", "A:2", "--pair", '{"X": [], "tau": []}', "canonical"]) == 3


def test_cli_report_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["--seed", "5", "--out", None, "verify", "--suite", "roundtrip"]
    argv[3] = str(out1)
    assert main(argv) == 0
    argv[3] = str(out2)
    assert main(argv) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["passed"] is True and payload["seed"] == 5


def test_cli_out_in_a_missing_directory_is_refused_before_work(tmp_path, monkeypatch, capsys):
    canonical = ["--cartan", "A:3", "--pair", '{"X": [], "tau": [[1,3]]}', "canonical"]
    verify = ["verify", "--suite", "roundtrip"]
    for out in ("/missing/dir/x.json", str(tmp_path / "missing" / "x.json")):
        for command in (canonical, verify):
            assert main(["--out", out] + command) == 2, (out, command)
            captured = capsys.readouterr()
            assert captured.out == "", (out, command)
            assert captured.err.startswith("error: --out: no such directory"), (out, command)
    # an existing directory, a file in one, and a bare file name still work
    monkeypatch.chdir(tmp_path)
    for out, written in ((".", "report.json"), ("sub/x.json", "sub/x.json"), ("y.json", "y.json")):
        (tmp_path / "sub").mkdir(exist_ok=True)
        assert main(["--out", out] + canonical) == 0, out
        assert "c_2 = v^-2" in capsys.readouterr().out
        assert json.loads((tmp_path / written).read_text())["command"] == "canonical"


def test_recorded_digests_cover_every_suite():
    """CI checks each seed-0 report and its stdout against the recorded
    digests; a suite without both lines would escape that check."""
    from pathlib import Path

    from qcoideal.suites import SUITES

    digests = Path(__file__).parent / "data" / "verify_seed0.sha256"
    names = [line.split()[1] for line in digests.read_text().splitlines() if line.strip()]
    expected = [f"verify-seed0/{s}.{ext}" for s in SUITES for ext in ("json", "txt")]
    assert sorted(names) == sorted(expected)


@pytest.mark.parametrize("suite", ["hopf", "derivations", "cij-closed-vs-oracle", "qsp-structure"])
def test_coproduct_suite_reports_match_the_recorded_digests(suite, tmp_path, capsys):
    """`verify --suite S --seed 0 --out` writes the report and prints the
    text whose sha256 digests are recorded, for the suites that use the
    coproduct."""
    import hashlib
    from pathlib import Path

    digests = Path(__file__).parent / "data" / "verify_seed0.sha256"
    recorded = dict(reversed(line.split()) for line in digests.read_text().splitlines() if line.strip())
    out = tmp_path / f"{suite}.json"
    assert main(["--seed", "0", "--out", str(out), "verify", "--suite", suite]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == recorded[f"verify-seed0/{suite}.json"]
    assert hashlib.sha256(stdout).hexdigest() == recorded[f"verify-seed0/{suite}.txt"]


def test_cli_nu_atlas_report(tmp_path, capsys):
    out = tmp_path / "atlas.json"
    assert main(["--out", str(out), "nu-atlas", "--families", "G", "--max-rank", "2"]) == 0
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    assert rows and all(r["nu"] == 1 for r in rows)


def test_cli_nu_atlas_affine(tmp_path, capsys):
    out = tmp_path / "atlas.json"
    assert main(["--out", str(out), "nu-atlas", "--families", "affine:A",
                 "--max-rank", "1"]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert {(tuple(r["X"]), r["node"]) for r in rows} >= {((0,), 1), ((1,), 0)}
    assert all(r["nu"] in (1, -1) for r in rows)  # reported, not asserted


def test_cli_nu_atlas_checks_its_input_before_work(monkeypatch, capsys):
    """A rank bound outside 1..cap, an empty entry of --families (an empty
    list is not the default), a listed family that names no datum in range
    and a datum past the enumeration cap are refused with exit 2 before any
    enumeration; invalid ranks inside the range (B1, G3) are skipped, and
    so are the ranks the default families lack (D below 4)."""
    import qcoideal.cli as cli

    def never(datum):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(cli, "enumerate_admissible", never)
    for argv in (
        ["--families", "b"],
        ["--families", ","],
        ["--families", ""],
        ["--families", "A,,B"],
        ["--max-rank", "-3"],
        ["--max-rank", "0"],
        ["--max-rank", "11"],
        ["--families", "A", "--max-rank", "11"],
        ["--families", "G", "--max-rank", "1"],
        ["--families", "affine:A", "--max-rank", "10"],
    ):
        assert main(["nu-atlas"] + argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    for argv in (
        ["--families", "B,G", "--max-rank", "3"],
        ["--families", "affine:A", "--max-rank", "1"],
        ["--max-rank", "1"],
        ["--max-rank", "3"],
    ):
        assert main(["nu-atlas"] + argv) == 3, argv
        assert "enumeration started" in capsys.readouterr().err, argv


def test_cli_canonical(capsys):
    code = main(["--cartan", "A:3", "--pair", '{"X": [], "tau": [[1,3]]}', "canonical"])
    out = capsys.readouterr().out
    assert code == 0
    assert "c_2 = v^-2" in out


def test_cli_unknown_node_labels_are_input_errors(capsys):
    pair = ["--cartan", "A:3", "--pair", '{"X": [5], "tau": []}']
    assert main(pair + ["canonical"]) == 2
    params = ["--params", '{"cartan": {"type": "A", "rank": 3}, '
              '"pair": {"X": [2], "tau": [[1, 3]]}, "c": {"1": "q", "3": "q"}}']
    assert main(params + ["compute", "--what", "Zi", "--i", "9"]) == 2
    assert main(params + ["compute", "--what", "Cij-oracle", "--i", "1", "--j", "9"]) == 2
    assert "unknown node label 9" in capsys.readouterr().err


def test_cli_internal_lookup_errors_exit_3(monkeypatch, capsys):
    import qcoideal.cli as cli

    for exc in (KeyError("lost"), AssertionError("broken invariant")):
        def raising(*args, _exc=exc, **kwargs):
            raise _exc

        monkeypatch.setattr(cli, "run_suite", raising)
        assert main(["verify", "--suite", "scalars"]) == 3
        assert "internal error: " + type(exc).__name__ in capsys.readouterr().err


def test_cli_parameter_errors_are_input_errors(capsys):
    pair = ["--cartan", "A:3", "--pair", '{"X": [2], "tau": [[1,3]]}']
    cases = [
        ('{"c": {"1": "q"}}', "missing parameter c_3"),
        ('{"c": {"1": "q", "3": "q", "9": "q"}}', "unknown node label 9"),
        ('{"c": {"1": "q", "3": "q"}, "s": {"9": "q"}}', "unknown node label 9"),
        ('{"c": {"1": "1/0", "3": "q"}}', "division by zero"),
        ('{"c": {"1": "(q-q)^-1", "3": "q"}}', "division by zero"),
    ]
    for params, message in cases:
        assert main(pair + ["--params", params, "bar-exists"]) == 2
        assert message in capsys.readouterr().err


def test_cli_internal_runtime_errors_exit_3(monkeypatch, capsys):
    import qcoideal.qsp as qsp

    def leaving_home(self, i):
        raise RuntimeError("internal: Z element left its graded home")

    monkeypatch.setattr(qsp.QSPContext, "_compute_z", leaving_home)
    argv = ["--cartan", "A:2", "--pair", '{"X": [], "tau": []}',
            "--params", '{"c": {"1": "q", "2": "1"}}', "compute", "--what", "Zi", "--i", "1"]
    assert main(argv) == 3
    assert "internal error: RuntimeError: internal: Z element" in capsys.readouterr().err


def test_cli_w_element_guard_is_an_internal_error(monkeypatch, capsys):
    """The numerator of W_ij vanishes whenever i and j are orthogonal; a
    zero test that says otherwise is the engine's fault (exit 3), not an
    input error."""
    import qcoideal.qsp as qsp

    monkeypatch.setattr(qsp, "is_zero", lambda a: False)
    params = ('{"cartan": {"A": [[2,0],[0,2]]}, "pair": {"X": [2], "tau": []}, '
              '"c": {"1": "1"}}')
    assert main(["--params", params, "compute", "--what", "Wij", "--i", "1", "--j", "2"]) == 3
    assert "internal error: RuntimeError: internal: w_element undefined" in capsys.readouterr().err


def test_cli_non_exact_division_is_an_internal_error(monkeypatch, capsys):
    """A wrong gcd makes the normaliser's exact division fail: an internal
    error (exit 3), not a traceback; a division by zero in the input stays
    an input error (exit 2)."""
    from qcoideal import scalars

    pair = ["--cartan", "A:3", "--pair", '{"X": [2], "tau": [[1,3]]}']
    # c_1 = (q - 1) / (q + 3): its cofactor v^2 + 3 goes to Euclid
    params = ["--params", '{"c": {"1": "(q-1)/(q+3)", "3": "q"}}', "bar-exists"]
    wrong_gcd = {0: scalars.GaussianRational(5), 1: scalars.GQ_ONE}
    monkeypatch.setattr(scalars, "_poly_gcd", lambda p, q: wrong_gcd)
    assert main(pair + params) == 3
    assert "internal error: ArithmeticError: non-exact polynomial division" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(pair + params) in (0, 1)
    zero = ["--params", '{"c": {"1": "(q-1)/(q-q)", "3": "q"}}', "bar-exists"]
    assert main(pair + zero) == 2
    assert "division by zero" in capsys.readouterr().err


def test_run_suite_unknown_name_is_an_input_error():
    import pytest

    from qcoideal.suites import run_suite

    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("does-not-exist")


def _assert_recorded_digests(tmp_path, script, digests, directory):
    """Run `script`'s write_reports into tmp_path/directory and compare every
    file written with the digests recorded in tests/data/`digests`."""
    here = Path(__file__).parent
    spec = importlib.util.spec_from_file_location(script, here / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    written = module.write_reports(tmp_path / directory)
    recorded = {}
    for line in (here / "data" / digests).read_text().splitlines():
        digest, path = line.split()
        recorded[path] = digest
    assert sorted(recorded) == sorted(f"{directory}/{name}" for name in written)
    for path, digest in recorded.items():
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest, path


def test_compute_reports_match_the_recorded_digests(tmp_path):
    """Every `compute` report of the closed-formula cases and its stdout
    have the digest recorded in tests/data/compute.sha256."""
    _assert_recorded_digests(tmp_path, "compute_reports", "compute.sha256", "compute-reports")


def test_pair_reports_match_the_recorded_digests(tmp_path):
    """Every `canonical` and `bar-exists` report of the atlas pairs with a
    free node and its stdout have the digest recorded in
    tests/data/pairs.sha256."""
    _assert_recorded_digests(tmp_path, "pair_reports", "pairs.sha256", "pair-reports")
