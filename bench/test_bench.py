"""Tests of the benchmark's tracer and host-speed sampler; run with
``python3 -m pytest bench``."""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qcoideal.qsp as qsp  # noqa: E402
import qcoideal.uqg as uqg  # noqa: E402
from qcoideal.cartan import cartan_datum, validate_admissible  # noqa: E402
import qcoideal.suites as suites  # noqa: E402

import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import Tracer, read_spans  # noqa: E402
from workloads import digest, load_reference  # noqa: E402


def _metric(t, name):
    return t.metrics()[name][0]


def test_calls_through_names_imported_into_qsp_are_counted():
    # B3 with X = {3}: nodes 1 and 3 are orthogonal, so w_element settles
    # its numerator with is_zero, a name qsp imported from uqg
    pair = validate_admissible(cartan_datum("B", 3), {3}, {1: 1, 2: 2, 3: 3})
    params = qsp.QSPParameters(pair, {1: qsp.ONE, 2: qsp.ONE})
    original = uqg.is_zero
    with Tracer() as t:
        assert qsp.is_zero is not original
        qsp.w_element(qsp.context_for(pair), 1, 3)
        assert _metric(t, "uqg.zero.calls") == 1
        qsp.c_oracle(params, 1, 2)
    assert qsp.is_zero is original and uqg.is_zero is original
    assert _metric(t, "qsp.c_oracle.calls") == 1
    assert _metric(t, "qsp.b_generator.calls") == 2
    assert _metric(t, "uqg.coproduct_graded.calls") == 1
    assert _metric(t, "uqg.serre_polynomial.calls") == 1
    assert _metric(t, "uqg.zero.calls") == 1
    assert t.absent == []


def test_traced_and_untraced_verdicts_have_identical_digests():
    reference = load_reference()
    for suite in ("sigma-tau", "qsp-structure", "bar-examples", "nu-atlas"):
        _ok, plain = suites.run_suite(suite, seed=3, jobs=1)
        with Tracer():
            _ok, traced = suites.run_suite(suite, seed=3, jobs=1)
        assert digest(traced) == digest(plain) == reference[suite]["sha256"]


def test_spans_round_trip(tmp_path):
    with Tracer() as t:
        t.begin_suite("sigma-tau@0")
        suites.run_suite("sigma-tau", seed=0)
    t.write_spans(tmp_path / "spans")
    header, cols = read_spans(tmp_path / "spans")
    assert header["spans"] == t.span_count() > 1
    assert header["suites"] == ["sigma-tau@0"]
    assert header["layers"][cols["layer"][0]] == "suites.unit"
    assert cols["parent"][0] == -1 and all(p < i for i, p in enumerate(cols["parent"]))
    assert list(cols["end"]) == list(t.span_end)


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(
        tracer_mod.LAYERS, "qsp.context", [("mod", "qcoideal.qsp", "no_such_function")]
    )
    with Tracer() as t:
        suites.run_suite("sigma-tau", seed=0)
    assert t.absent == ["qsp.context"]
    assert _metric(t, "qsp.context.calls") == 0
    assert _metric(t, "trace.absent_layers") == 1


def test_speed_sampler_excludes_its_own_time():
    previous = signal.getsignal(signal.SIGALRM)
    pauses = []
    with speed.Sampler(on_pause=pauses.append) as sampler:
        end = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 5
    assert 0 < sampler.paused_s < sum(sampler.samples)
    assert len(pauses) == len(sampler.samples) - 2
    assert abs(sum(pauses) - sampler.paused_s) < 1e-9
    assert speed.speed(sampler.samples) > 0
