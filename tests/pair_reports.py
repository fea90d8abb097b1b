"""Write the `canonical` and `bar-exists` reports of the atlas pairs.

    PYTHONPATH=src python tests/pair_reports.py DIR

For every admissible pair with a free node of every datum in
`qcoideal.suites.ATLAS_DATA` this runs, through `qcoideal.cli.main` in this
process:

- `canonical --out DIR/<pair>-canonical.json`
- `bar-exists --out DIR/<pair>-bar-canonical.json` at the canonical c read
  back from that report
- `bar-exists --out DIR/<pair>-bar-one.json` at c_i = 1 on every free node,
  which may exit 1 (the verdict "fails")

and writes the stdout of each to DIR/<stem>.txt.  `tests/data/pairs.sha256`
holds the digests of every file, to be checked from the repository root with
`sha256sum -c` after a run with DIR = pair-reports.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from qcoideal.cartan import cartan_datum, enumerate_admissible, pair_to_json, tau_swaps
from qcoideal.cli import main
from qcoideal.suites import ATLAS_DATA, _dname


def _run(directory, stem, args, codes=(0,)):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--out", str(directory / f"{stem}.json")] + args)
    if code not in codes:
        raise RuntimeError(f"{stem} exited with {code}")
    (directory / f"{stem}.txt").write_text(stdout.getvalue(), encoding="utf-8")
    return [f"{stem}.json", f"{stem}.txt"]


def write_reports(directory):
    """Write every report and its stdout into `directory`; returns the
    paths written, relative to it."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, rank in ATLAS_DATA:
        for pair in enumerate_admissible(cartan_datum(kind, rank)):
            if not pair.free:
                continue
            moved = "".join(f"{a}{b}" for a, b in tau_swaps(pair.tau))
            stem = f"{_dname(kind, rank)}-X{''.join(map(str, sorted(pair.X)))}-tau{moved}"
            base = ["--cartan", f"{kind}:{rank}", "--pair", json.dumps(pair_to_json(pair))]
            written += _run(directory, f"{stem}-canonical", base + ["canonical"])
            report = json.loads((directory / f"{stem}-canonical.json").read_text())
            for tag, c in (("canonical", report["c"]), ("one", {str(i): "1" for i in pair.free})):
                written += _run(
                    directory,
                    f"{stem}-bar-{tag}",
                    base + ["--params", json.dumps({"c": c}), "bar-exists"],
                    codes=(0, 1),
                )
    return written


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: pair_reports.py DIR")
    write_reports(sys.argv[1])
