"""Write the `canonical` and `bar-exists` reports of the atlas pairs.

For every admissible pair with a free node of every datum in
`qcoideal.suites.ATLAS_DATA`, `write_reports(DIR)` runs, through
`qcoideal.cli.main` in this process:

- `canonical --out DIR/<pair>-canonical.json`
- `bar-exists --out DIR/<pair>-bar-canonical.json` at the canonical c read
  back from that report
- `bar-exists --out DIR/<pair>-bar-one.json` at c_i = 1 on every free node,
  which may exit 1 (the verdict "fails")

and writes the stdout of each to DIR/<stem>.txt.  `tests/data/pairs.sha256`
holds the digest of every file, as written with DIR = pair-reports;
`test_grammar_cli.py` checks them all.  `run_report` is the runner of every
report that test writes.
"""

import contextlib
import io
import json
from pathlib import Path

from qcoideal.cartan import cartan_datum, enumerate_admissible, pair_to_json, tau_swaps
from qcoideal.cli import main
from qcoideal.suites import ATLAS_DATA, _dname


def run_report(directory, stem, args, codes=(0,), stdout=None):
    """Run `qcoideal.cli.main` on `args` in this process with `--out
    directory/<stem>.json`, and write its stdout to directory/`stdout`
    (default <stem>.txt); returns the two file names."""
    stdout = stdout or f"{stem}.txt"
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main(["--out", str(directory / f"{stem}.json")] + args)
    if code not in codes:
        raise RuntimeError(f"{stem} exited with {code}")
    (directory / stdout).write_text(text.getvalue(), encoding="utf-8")
    return [f"{stem}.json", stdout]


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
            written += run_report(directory, f"{stem}-canonical", base + ["canonical"])
            report = json.loads((directory / f"{stem}-canonical.json").read_text())
            for tag, c in (("canonical", report["c"]), ("one", {str(i): "1" for i in pair.free})):
                written += run_report(
                    directory,
                    f"{stem}-bar-{tag}",
                    base + ["--params", json.dumps({"c": c}), "bar-exists"],
                    codes=(0, 1),
                )
    return written
