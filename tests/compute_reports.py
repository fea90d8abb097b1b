"""Write the `compute` reports of the closed-formula cases.

    PYTHONPATH=src python tests/compute_reports.py DIR

For every case of `qcoideal.suites.CLOSED_CASES`, with the pair's default
parameters, this runs `compute --what T --i i --j j --out DIR/<case>-T.json`
for T in Zi, Bi, Cij-closed and Cij-oracle, and for Wij where j lies in X,
and writes its stdout to DIR/<case>-T.txt.  Each command runs through
`qcoideal.cli.main` in this process.  `tests/data/compute.sha256` holds the
digests of every file, to be checked from the repository root with
`sha256sum -c` after a run with DIR = compute-reports.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from qcoideal.cartan import datum_to_json, pair_to_json
from qcoideal.cli import main
from qcoideal.grammar import scalar_to_text
from qcoideal.suites import CLOSED_CASES, _build_pair, _default_params, _dname

TARGETS = ("Zi", "Bi", "Wij", "Cij-closed", "Cij-oracle")


def runs():
    """(file stem, CLI arguments but --out) of every report."""
    out = []
    for kind, rank, X, tau_pairs, i, j, _torus in CLOSED_CASES:
        pair = _build_pair(kind, rank, X, tau_pairs)
        params = _default_params(pair)
        if kind.startswith("matrix"):
            name, cartan = "A1xA1", json.dumps(datum_to_json(pair.datum))
        else:
            name, cartan = _dname(kind, rank), f"{kind}:{rank}"
        tau = "".join(f"{a}{b}" for a, b in tau_pairs)
        stem = f"{name}-X{''.join(map(str, X))}-tau{tau}-{i}{j}"
        c = {str(node): scalar_to_text(s) for node, s in sorted(params.c.items())}
        base = ["--cartan", cartan, "--pair", json.dumps(pair_to_json(pair)),
                "--params", json.dumps({"c": c})]
        for what in TARGETS:
            if what == "Wij" and j not in X:
                continue  # W_ij is defined for j in X only
            out.append((f"{stem}-{what}",
                        base + ["compute", "--what", what, "--i", str(i), "--j", str(j)]))
    return out


def write_reports(directory):
    """Write every report and its stdout into `directory`; returns the
    paths written, relative to it."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, args in runs():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["--out", str(directory / f"{stem}.json")] + args)
        if code != 0:
            raise RuntimeError(f"compute {stem} exited with {code}")
        (directory / f"{stem}.txt").write_text(stdout.getvalue(), encoding="utf-8")
        written += [f"{stem}.json", f"{stem}.txt"]
    return written


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: compute_reports.py DIR")
    write_reports(sys.argv[1])
