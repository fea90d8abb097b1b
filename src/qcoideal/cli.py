"""Command-line front end for batch computation and verification.

Subcommands: validate-pair, compute, bar-exists, canonical, nu-atlas,
verify.  Inputs are JSON files (or inline JSON strings); Cartan data may
also be given as ``type:rank`` shorthand such as ``A:3`` or
``affine:A:1``.  Every command prints human-readable text and, with
``--out``, writes a deterministic ``report.json`` (byte-identical for
identical inputs and seed).

Exit codes: 0 success / verdict exists, 1 verdict fails, 2 malformed
input (JSON of the wrong shape included), 3 any other exception.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .barcheck import (
    EngineInconsistencyError,
    bar_exists,
    canonical_params,
    nu_sign,
)
from .cartan import (
    ENUMERATION_RANK_CAP,
    admissible_violations,
    cartan_datum,
    check_enumerable,
    datum_from_json,
    datum_to_json,
    enumerate_admissible,
    exact_int,
    pair_to_json,
    tau_from_swaps,
    tau_swaps,
    validate_admissible,
)
from .grammar import element_to_json, element_to_text, parse_scalar, scalar_to_text
from .qsp import (
    QSPParameters,
    b_generator,
    c_closed,
    c_oracle,
    context_for,
    w_element,
)
from .suites import SUITES, run_suite
from .uqg import ZeroTestGuardError, zero_test_guard


class InputError(ValueError):
    pass


def _load_json_arg(text):
    """Accept a path to a JSON file or an inline JSON string."""
    if text is None:
        raise InputError("missing required JSON input")
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    if not os.path.exists(text):
        raise InputError(f"no such file: {text}")
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {text}: {exc.strerror}") from None


@contextmanager
def _json_shape(what):
    """Report JSON of the wrong shape, met while reading `what`, as an input error."""
    try:
        yield
    except (TypeError, AttributeError, KeyError) as exc:
        raise InputError(f"{what} JSON has the wrong shape ({type(exc).__name__}: {exc})") from None


def _load_datum(arg):
    if arg is None:
        raise InputError("a Cartan datum is required (--cartan)")
    stripped = arg.strip()
    if not stripped.startswith("{") and ":" in stripped and not os.path.exists(arg):
        head, _, rank = stripped.rpartition(":")
        return cartan_datum(head, int(rank))
    obj = _load_json_arg(arg)
    with _json_shape("Cartan datum"):
        return datum_from_json(obj)


def _read_pair(datum, obj):
    """(X, tau) as given by pair JSON, not yet validated."""
    with _json_shape("pair"):
        X = [exact_int(x, "node label") for x in obj.get("X", [])]
        return X, tau_from_swaps(datum, obj.get("tau", []))


def _load_pair(datum, arg):
    if arg is None:
        raise InputError("an admissible pair is required (--pair)")
    return validate_admissible(datum, *_read_pair(datum, _load_json_arg(arg)))


def _node_key(k):
    """The node that a `c` or `s` key names: only the decimal text of a
    label, such as "1" or "-1", names one, so no two keys name one node."""
    if k.removeprefix("-").isdecimal() and str(int(k)) == k:
        return int(k)
    raise InputError(f"parameter key {k!r} is not a node label")


def _load_params(args):
    """Build QSPParameters from --params (optionally with embedded cartan/pair)."""
    obj = _load_json_arg(args.params) if args.params else {}
    with _json_shape("parameter"):
        datum = datum_from_json(obj["cartan"]) if "cartan" in obj else _load_datum(args.cartan)
        X_tau = _read_pair(datum, obj["pair"]) if "pair" in obj else None
        c = {_node_key(k): parse_scalar(v) for k, v in obj.get("c", {}).items()}
        s = {_node_key(k): parse_scalar(v) for k, v in obj.get("s", {}).items()}
    pair = validate_admissible(datum, *X_tau) if X_tau else _load_pair(datum, args.pair)
    return datum, pair, QSPParameters(pair, c, s)


def _emit(args, text_lines, report):
    for line in text_lines:
        print(line)
    if args.out:
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
        path = args.out
        if os.path.isdir(path):
            path = os.path.join(path, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _cmd_validate_pair(args):
    datum = _load_datum(args.cartan)
    X, tau = _read_pair(datum, _load_json_arg(args.pair))
    violations = admissible_violations(datum, X, tau)
    report = {
        "command": "validate-pair",
        "cartan": datum_to_json(datum),
        "pair": {"X": sorted(X), "tau": [list(s) for s in tau_swaps(tau)]},
        "valid": not violations,
        "violations": violations,
    }
    lines = ["valid" if not violations else "invalid:"] + [
        f"  - {v}" for v in violations
    ]
    _emit(args, lines, report)
    return 0 if not violations else 1


# each `compute` target, in --help order: (needs --j, builder of (params, i, j))
_TARGETS = {
    "Zi": (False, lambda params, i, j: context_for(params.pair).z(i)),
    "Wij": (True, lambda params, i, j: w_element(context_for(params.pair), i, j)),
    "Bi": (False, lambda params, i, j: b_generator(params, i)),
    "Cij-closed": (True, c_closed),
    "Cij-oracle": (True, c_oracle),
}


def _cmd_compute(args):
    datum, pair, params = _load_params(args)
    what = args.what
    i = args.i
    j = args.j
    if i is None:
        raise InputError("--i is required for compute")
    for node in (i, j):
        if node is not None:
            datum.pos(node)  # an unknown label is an input error
    needs_j, build = _TARGETS[what]
    if needs_j and j is None:
        raise InputError(f"--j is required for {what}")
    elem = build(params, i, j)
    text = element_to_text(elem)
    report = {
        "command": "compute",
        "what": what,
        "i": i,
        "j": j,
        "element_text": text,
        "element": element_to_json(elem),
    }
    _emit(args, [text], report)
    return 0


def _cmd_bar_exists(args):
    datum, pair, params = _load_params(args)
    rep = bar_exists(params)
    lines = [f"verdict: {rep.verdict}"]
    if rep.failing_nodes:
        lines.append("failing nodes: " + ", ".join(map(str, sorted(rep.failing_nodes))))
    for i in sorted(rep.nu):
        lines.append(f"  node {i}: nu = {rep.nu[i]:+d}, ell = {scalar_to_text(rep.ell[i])}")
    report = {
        "command": "bar-exists",
        "pair": pair_to_json(pair),
        "report": rep.to_json(),
    }
    _emit(args, lines, report)
    return 0 if rep.exists else 1


def _cmd_canonical(args):
    datum = _load_datum(args.cartan)
    pair = _load_pair(datum, args.pair)
    d = canonical_params(pair)
    as_text = {str(i): scalar_to_text(v) for i, v in sorted(d.items())}
    lines = [f"c_{i} = {t}" for i, t in sorted(as_text.items(), key=lambda kv: int(kv[0]))]
    report = {"command": "canonical", "pair": pair_to_json(pair), "c": as_text}
    _emit(args, lines, report)
    return 0


def _atlas_data(families, max_rank):
    """[(family, rank, datum)] for every family and rank in 1..max_rank that
    names a datum, skipping the ranks that name none (such as B1 or G3).
    `families` is the comma list of --families, or None for the default
    A,B,C,D,G.  A --max-rank outside 1..cap, an empty entry, a listed
    family that names no datum in range, and a datum past the enumeration
    cap are input errors, found before any enumeration; so every datum left
    gives rows, at least those of (X = {}, tau = id)."""
    if not 1 <= max_rank <= ENUMERATION_RANK_CAP:
        raise InputError(
            f"--max-rank must be between 1 and {ENUMERATION_RANK_CAP}, got {max_rank}"
        )
    out = []
    for fam in ("A,B,C,D,G" if families is None else families).split(","):
        fam = fam.strip()
        if not fam:
            raise InputError(f"--families {families!r} has an empty entry")
        named = []
        for rank in range(1, max_rank + 1):
            try:
                datum = cartan_datum(fam, rank)
            except ValueError:
                continue
            check_enumerable(datum)
            named.append((fam, rank, datum))
        if families is not None and not named:
            raise InputError(f"family {fam!r} names no Cartan datum of rank 1 to {max_rank}")
        out += named
    return out


def _cmd_nu_atlas(args):
    rows = []
    lines = []
    for fam, rank, datum in _atlas_data(args.families, args.max_rank):
        for pair in enumerate_admissible(datum):
            ctx = context_for(pair)
            for i in pair.free:
                nu = nu_sign(ctx, i)
                rows.append({
                    "type": fam,
                    "rank": rank,
                    "X": sorted(pair.X),
                    "tau": [list(s) for s in tau_swaps(pair.tau)],
                    "node": i,
                    "nu": nu,
                })
    rows.sort(key=lambda r: (r["type"], r["rank"], str(r["X"]), str(r["tau"]), r["node"]))
    for r in rows:
        lines.append(
            f"{r['type']}{r['rank']}  X={r['X']}  tau={r['tau']}  node {r['node']}: nu = {r['nu']:+d}"
        )
    report = {"command": "nu-atlas", "rows": rows}
    _emit(args, lines, report)
    return 0


def _cmd_verify(args):
    if args.suite not in SUITES:
        raise InputError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    ok, checks = run_suite(args.suite, seed=args.seed, jobs=args.jobs)
    lines = []
    for c in checks:
        status = "pass" if c["ok"] else "FAIL"
        lines.append(f"[{status}] {c['id']}" + (f"  ({c['detail']})" if c["detail"] else ""))
    lines.append(f"suite {args.suite}: {'PASS' if ok else 'FAIL'} ({len(checks)} checks)")
    report = {
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "passed": ok,
        "checks": checks,
    }
    _emit(args, lines, report)
    return 0 if ok else 1


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="qcoideal",
        description="Exact computations in quantum symmetric pair coideal subalgebras",
    )
    ap.add_argument("--cartan", help="Cartan datum: JSON file/string or type:rank (e.g. A:3)")
    ap.add_argument("--pair", help="admissible pair JSON: {\"X\": [...], \"tau\": [[i,j],...]}")
    ap.add_argument("--params", help="parameter JSON: {cartan, pair, c: {node: scalar}, s: {...}}")
    ap.add_argument("--out", help="write a deterministic JSON report to this path")
    ap.add_argument("--jobs", type=int, default=1,
                    help="serre-oracle-sweep workers, one task per admissible pair (1..CPUs)")
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    ap.add_argument(
        "--max-bucket",
        type=int,
        default=10 ** 6,
        help="dual-word evaluations allowed per graded bucket in every zero test (>= 1)",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("validate-pair", help="check admissibility of (X, tau)")
    pc = sub.add_parser("compute", help="compute a coideal element")
    pc.add_argument("--what", required=True, choices=list(_TARGETS))
    pc.add_argument("--i", type=int)
    pc.add_argument("--j", type=int)
    sub.add_parser("bar-exists", help="decide existence of the intrinsic bar involution")
    sub.add_parser("canonical", help="canonical parameter family for a pair")
    pn = sub.add_parser("nu-atlas", help="tabulate nu over enumerated admissible pairs")
    pn.add_argument("--families", help="comma list of type letters (default A,B,C,D,G)")
    pn.add_argument("--max-rank", type=int, default=4,
                    help=f"largest rank tabulated (1..{ENUMERATION_RANK_CAP})")
    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("--suite", required=True)
    return ap


_COMMANDS = {
    "validate-pair": _cmd_validate_pair,
    "compute": _cmd_compute,
    "bar-exists": _cmd_bar_exists,
    "canonical": _cmd_canonical,
    "nu-atlas": _cmd_nu_atlas,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.max_bucket < 1:
            raise InputError(f"--max-bucket must be at least 1, got {args.max_bucket}")
        cpus = os.cpu_count() or 1
        if not 1 <= args.jobs <= cpus:
            raise InputError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
        if args.out and not os.path.isdir(args.out):
            parent = os.path.dirname(args.out) or "."
            if not os.path.isdir(parent):
                raise InputError(f"--out: no such directory: {parent}")
        with zero_test_guard(args.max_bucket):
            return _COMMANDS[args.command](args)
    except EngineInconsistencyError as exc:
        print(f"engine inconsistency: {exc}", file=sys.stderr)
        return 3
    except (ZeroTestGuardError, ValueError) as exc:
        # the engine's input errors, JSON syntax errors among them, are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other exception is the engine's fault, never a verdict: a
        # division by zero in the input is a ScalarParseError, a ValueError
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
