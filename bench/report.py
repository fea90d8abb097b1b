"""Print every end-to-end metric of every workload by name, with its unit.

Usage, from the repository root: ``python3 bench/report.py [--seed N] [--seconds S]``

Each workload is measured as ``bench/run.py --trace 0`` measures it; the
failure ratio counts failing checks, suites that raised and check lists
whose digest differs from bench/reference.json.
"""

from __future__ import annotations

import argparse

from run import environment, run
from workloads import WORKLOADS, load_reference


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    reference = load_reference()
    print("environment", environment())
    for workload in WORKLOADS:
        record = run(workload, args.seed, args.seconds, trace=False)
        for name, m in record["metrics"].items():
            print(f"{workload:17} {name:12} {m['value']:12.6g} {m['unit']}")
        units = [u for p in record["passes"] for u in p["units"]]
        matched = sum(u.get("sha256") == reference[u["suite"]]["sha256"] for u in units)
        print(
            f"{workload:17} {'fail_ratio':12} {record['fail_ratio']:12.6g} ratio"
            f" ({record['failed']} of {record['attempted']} checks;"
            f" {matched} of {len(units)} check-list digests match the reference)",
            flush=True,
        )


if __name__ == "__main__":
    main()
