"""The benchmark's workloads and the reference digests of their verdicts.

A workload is a list of rounds of units (suite, seed); each unit is one
call of the engine's public entry point ``qcoideal.suites.run_suite(suite,
seed=seed, jobs=1)``.  Why each workload was chosen is recorded in BENCHMARK.json and
in bench/README.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

WORKLOADS = {
    # acceptance criterion 7; the only workload that runs qsp.c_oracle and
    # qsp.c_closed, and the one with the largest zero-test buckets
    "serre-sweep": ("cij-closed-vs-oracle", "serre-oracle-sweep"),
    # divided-power coefficients 1/[n]!: the highest share of gcd-path
    # normalisations, almost no zero-test and no coproduct work
    "braid": ("braid",),
    # many small products with trivial denominators, coproducts, tensors
    # and skew derivations; no braid and no qsp work
    "hopf-derivations": ("hopf", "derivations"),
    # every admissible pair of the atlas data: barcheck, cartan enumeration
    # and repeated T_{w_X} twists of single generators
    "atlas": ("nu-atlas", "bar-z", "bar-examples", "sigma-tau", "qsp-structure"),
}

# hopf-derivations runs its suites at this many consecutive seeds (rounds),
# starting at the benchmark's seed: one seed's draws can cost seven times
# another's, so a pass is timed by its median round
CONSECUTIVE_SEEDS = {"hopf-derivations": 8}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def rounds(workload, seed):
    """The rounds of one pass of `workload`, each a list of (suite, seed)
    calls sharing one seed."""
    count = CONSECUTIVE_SEEDS.get(workload, 1)
    return [[(suite, seed + k) for suite in WORKLOADS[workload]] for k in range(count)]


def digest(checks):
    """sha256 of a suite's check list, the form the reference records."""
    return hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()


def load_reference():
    """suite -> {"sha256": digest of the passing check list, "checks": count}."""
    return json.loads(REFERENCE_PATH.read_text())
