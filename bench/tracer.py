"""Outside-in per-layer tracer for the qcoideal engine.

The tracer wraps public functions and methods of the engine's modules with
timing wrappers defined here; nothing in the engine changes.  A function is
wrapped by rebinding every attribute of every loaded ``qcoideal`` module
that is that function object, so names imported with ``from .uqg import
is_zero`` are traced as well.  Methods are wrapped on their class.

Every wrapped call records a span (layer, start, end, parent span, suite
call) in compact in-memory arrays.  A layer's self time is its spans'
duration minus the time covered by their child spans and by the
benchmark's own pauses (`Tracer.exclude`); it is accumulated while the run
proceeds, and the spans are written out when the run ends.
Extra counts (gcd-path normalisations, repeated operand pairs, dual words
of the zero test, ...) are taken by probes after the wrapped call; probe
time is charged to no layer.

A target that the engine no longer defines is skipped and its layer is
reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from array import array

# layer -> targets.  ("mod", module, name) is a module-level function;
# ("cls", module, class, method) is a method wrapped on its class.
LAYERS = {
    "scalars.norm": [("cls", "qcoideal.scalars", "Scalar", "__init__")],
    "scalars.mul": [("cls", "qcoideal.scalars", "Scalar", "__mul__")],
    "scalars.add": [("cls", "qcoideal.scalars", "Scalar", "__add__")],
    "uqg.mul": [("cls", "qcoideal.uqg", "Element", "__mul__")],
    "uqg.coproduct": [("mod", "qcoideal.uqg", "coproduct")],
    "uqg.coproduct_graded": [("mod", "qcoideal.uqg", "coproduct_graded")],
    "uqg.zero": [("mod", "qcoideal.uqg", "is_zero")],
    "uqg.tensor_zero": [("mod", "qcoideal.uqg", "tensor_is_zero")],
    "uqg.serre_polynomial": [("mod", "qcoideal.uqg", "serre_polynomial")],
    "uqg.skew": [("mod", "qcoideal.uqg", "skew_r"), ("mod", "qcoideal.uqg", "skew_ir")],
    "uqg.involution": [
        ("mod", "qcoideal.uqg", "sigma"),
        ("mod", "qcoideal.uqg", "bar_element"),
        ("mod", "qcoideal.uqg", "antipode"),
    ],
    "braid.apply": [("mod", "qcoideal.braid", "apply_braid")],
    "braid.word": [("mod", "qcoideal.braid", "apply_word")],
    "qsp.b_generator": [("mod", "qcoideal.qsp", "b_generator")],
    "qsp.c_oracle": [("mod", "qcoideal.qsp", "c_oracle")],
    "qsp.c_closed": [("mod", "qcoideal.qsp", "c_closed")],
    "qsp.context": [("mod", "qcoideal.qsp", "context_for")],
    "barcheck.nu_sign": [("mod", "qcoideal.barcheck", "nu_sign")],
    "barcheck.check_ocZ": [("mod", "qcoideal.barcheck", "check_ocZ")],
    "barcheck.bar_exists": [("mod", "qcoideal.barcheck", "bar_exists")],
    "cartan.datum": [("cls", "qcoideal.cartan", "CartanDatum", "__init__")],
    "cartan.enumerate": [("mod", "qcoideal.cartan", "enumerate_admissible")],
    "cartan.validate": [("mod", "qcoideal.cartan", "validate_admissible")],
    "suites.unit": [("mod", "qcoideal.suites", "run_suite")],
}

# layer -> (probe, metric, form).  The probe counts into the layer's counter;
# a "ratio" metric divides the counter by the layer's calls, a "count"
# metric reports it.
EXTRAS = {
    "scalars.norm": ("gcd_path", "gcd_ratio", "ratio"),
    "scalars.mul": ("repeat_pair", "repeat_ratio", "ratio"),
    "uqg.mul": ("terms_out", "terms_out", "count"),
    "uqg.coproduct_graded": ("terms_out", "terms_out", "count"),
    "uqg.zero": ("zero_test", "dual_words", "count"),
    "braid.apply": ("terms_out", "terms_out", "count"),
    "braid.word": ("repeat_word", "repeat_ratio", "ratio"),
    "qsp.context": ("context_hit", "hit_ratio", "ratio"),
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _scalar_key(s):
    # exact and cheaper than hash(s), which hashes every Fraction
    def terms(poly):
        return frozenset([
            (e, c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator)
            for e, c in poly.items()
        ])

    return terms(s.num), terms(s.den)


def _multinomial(wt):
    out = math.factorial(sum(wt))
    for c in wt:
        out //= math.factorial(c)
    return out


class Tracer:
    """Wraps the engine's layers while installed; see the module docstring."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.counters = [0] * len(self.layers)
        self.nonzero = 0
        self.absent = []
        # span arrays, indexed by span id
        self.span_layer = array("B")
        self.span_parent = array("q")
        self.span_suite = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.suites = []
        self._suite = [0]
        # frames of open spans: [child time, span id]; the root is a sentinel
        self._stack = [[0.0, -1]]
        self._restore = []
        self._t0 = 0.0

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qcoideal" or name.startswith("qcoideal."))
        }
        for idx, layer in enumerate(self.layers):
            probe = self._probe(layer)
            found = False
            for target in LAYERS[layer]:
                found |= self._wrap_target(target, idx, probe, mods)
            if not found:
                self.absent.append(layer)
        self._t0 = time.perf_counter()

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap_target(self, target, idx, probe, mods):
        try:
            module = importlib.import_module(target[1])
        except ImportError:
            return False
        if target[0] == "cls":
            cls = getattr(module, target[2], None)
            fn = None if cls is None else cls.__dict__.get(target[3])
            if fn is None:
                return False
            self._restore.append((cls, target[3], fn))
            setattr(cls, target[3], self._wrapper(fn, idx, probe))
            return True
        fn = getattr(module, target[2], None)
        if fn is None:
            return False
        wrapper = self._wrapper(fn, idx, probe)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        return True

    def _wrapper(self, fn, idx, probe):
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        span_layer = self.span_layer
        span_parent = self.span_parent
        span_suite = self.span_suite
        span_start = self.span_start
        span_end = self.span_end
        suite = self._suite

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(span_layer)
            frame = [0.0, sid]
            span_layer.append(idx)
            span_parent.append(parent[1])
            span_suite.append(suite[0])
            span_end.append(0.0)
            stack.append(frame)
            t0 = clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_end[sid] = t1
                calls[idx] += 1
                self_s[idx] += (t1 - t0) - frame[0]
                parent[0] += t1 - t0
            if probe is not None:
                probe(args, kwargs, result)
                parent[0] += clock() - t1
            return result

        return functools.wraps(fn)(wrapper)

    # -- suite calls --------------------------------------------------------

    def exclude(self, seconds):
        """Charge `seconds` spent inside the innermost open span (by a
        signal handler of the benchmark) to no layer."""
        self._stack[-1][0] += seconds

    def begin_suite(self, name):
        """Spans recorded from now on belong to a new suite call `name`."""
        self._suite[0] = len(self.suites)
        self.suites.append(name)

    # -- probes -------------------------------------------------------------

    def _probe(self, layer):
        extra = EXTRAS.get(layer)
        if extra is None:
            return None
        idx = self.layers.index(layer)
        counters = self.counters
        kind = extra[0]

        if kind == "gcd_path":
            def probe(args, kwargs, result):
                num = _arg(args, kwargs, 1, "num")
                den = _arg(args, kwargs, 2, "den")
                if num and den is not None and len(den) > 1 and not _arg(
                    args, kwargs, 3, "_reduced", False
                ):
                    counters[idx] += 1
        elif kind == "repeat_pair":
            seen = set()

            def probe(args, kwargs, result):
                key = hash((_scalar_key(args[0]), _scalar_key(args[1])))
                if key in seen:
                    counters[idx] += 1
                else:
                    seen.add(key)
        elif kind == "terms_out":
            def probe(args, kwargs, result):
                counters[idx] += len(getattr(result, "terms", ()))
        elif kind == "zero_test":
            from qcoideal.uqg import word_weight

            tracer = self

            def probe(args, kwargs, result):
                a = _arg(args, kwargs, 0, "a")
                datum = a.datum
                buckets = {
                    (word_weight(datum, e), k, word_weight(datum, f))
                    for (e, k, f) in a.terms
                }
                counters[idx] += sum(
                    _multinomial(ewt) * _multinomial(fwt) for ewt, _k, fwt in buckets
                )
                if not result:
                    tracer.nonzero += 1
        elif kind == "repeat_word":
            seen = set()

            def probe(args, kwargs, result):
                word = tuple(_arg(args, kwargs, 0, "word"))
                a = _arg(args, kwargs, 1, "a")
                key = hash((a.datum.A, word, hash(a)))
                if key in seen:
                    counters[idx] += 1
                else:
                    seen.add(key)
        elif kind == "context_hit":
            contexts = {}

            def probe(args, kwargs, result):
                # keep each context alive so that its id is never reused
                if id(result) in contexts:
                    counters[idx] += 1
                else:
                    contexts[id(result)] = result
        else:
            raise ValueError(f"unknown probe {kind!r}")
        return probe

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: name -> (value, unit); absent layers read 0."""
        out = {}
        for idx, layer in enumerate(self.layers):
            calls = self.calls[idx]
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (self.self_s[idx], "s")
            extra = EXTRAS.get(layer)
            if extra is not None:
                _kind, metric, form = extra
                value = self.counters[idx]
                if form == "ratio":
                    value = value / calls if calls else 0.0
                out[f"{layer}.{metric}"] = (value, "ratio" if form == "ratio" else "count")
            if layer == "uqg.zero":
                out["uqg.zero.nonzero_ratio"] = (
                    self.nonzero / calls if calls else 0.0,
                    "ratio",
                )
        out["trace.absent_layers"] = (len(self.absent), "count")
        return out

    def span_count(self):
        return len(self.span_layer)

    def write_spans(self, path):
        """Write every span: one JSON header line, then the span columns as
        raw arrays in the header's order; `read_spans` reads the file."""
        columns = [
            ("layer", self.span_layer), ("parent", self.span_parent),
            ("suite", self.span_suite), ("start", self.span_start), ("end", self.span_end),
        ]
        header = {
            "layers": self.layers,
            "suites": self.suites,
            "spans": self.span_count(),
            "t0": self._t0,
            "byteorder": sys.byteorder,
            "columns": [[name, col.typecode] for name, col in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _name, col in columns:
                col.tofile(fh)


def read_spans(path):
    """(header, {column: array}) of a file written by `Tracer.write_spans`;
    start and end are perf_counter seconds, t0 is the installation time."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["spans"])
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            cols[name] = col
    return header, cols
