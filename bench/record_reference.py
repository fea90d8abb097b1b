"""Record the reference digest of every suite the workloads run.

Run from the repository root: ``python3 bench/record_reference.py [SEED ...]``.
Each suite runs once per seed (default 0, 1 and 7); the script refuses to
record unless every check passes and the digest is the same at every seed,
so that one digest per suite checks a run at any seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcoideal.suites import run_suite  # noqa: E402

from workloads import REFERENCE_PATH, WORKLOADS, digest  # noqa: E402


def main(argv):
    seeds = [int(s) for s in argv[1:]] or [0, 1, 7]
    reference = {}
    for suite in sorted({s for suites in WORKLOADS.values() for s in suites}):
        digests = set()
        for seed in seeds:
            ok, checks = run_suite(suite, seed=seed, jobs=1)
            if not ok:
                raise SystemExit(f"{suite} fails at seed {seed}; nothing recorded")
            digests.add(digest(checks))
        if len(digests) != 1:
            raise SystemExit(f"{suite} check list depends on the seed; nothing recorded")
        reference[suite] = {"sha256": digests.pop(), "checks": len(checks)}
        print(suite, reference[suite], flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv)
