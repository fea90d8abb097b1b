"""Run one pass of a benchmark workload in this process.

Usage: ``python3 bench/worker.py WORKLOAD SEED SPAWNED_AT MODE [SPANS]``

SPAWNED_AT is the CLOCK_MONOTONIC reading taken just before this process
was started.  MODE is ``setup`` (stop once the inputs are ready), ``run``
(untraced) or ``trace`` (per-layer tracer installed; spans are written to
SPANS).  Every pass also reports the host speed measured by bench/speed.py;
its wall time, the time of each round and its layers' self times exclude
the calibration samples taken during it.  The result is printed as one JSON line.  The
engine's source tree must be on PYTHONPATH; bench/run.py sets it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import speed
from workloads import digest, rounds


def run_unit(suites, tracer, suite, seed, records):
    """One suite call through the engine's public entry point."""
    if tracer is not None:
        tracer.begin_suite(f"{suite}@{seed}")
    try:
        # jobs=1: the sweep suites would otherwise start a process pool
        _ok, checks = suites.run_suite(suite, seed=seed, jobs=1)
    except Exception:
        records.append({"suite": suite, "seed": seed, "error": traceback.format_exc()})
        return
    records.append({
        "suite": suite,
        "seed": seed,
        "checks": len(checks),
        "failed": [c["id"] for c in checks if not c["ok"]],
        "sha256": digest(checks),
    })


def main(argv):
    workload, seed, spawned_at, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    from qcoideal import suites

    plan = rounds(workload, seed)
    unknown = sorted({suite for r in plan for suite, _ in r} - set(suites.SUITES))
    if unknown:
        raise SystemExit(f"the engine has no suite {unknown}")
    result = {"setup_s": time.monotonic() - spawned_at}
    if mode == "setup":
        result["speed"] = speed.speed([speed.sample() for _ in range(5)])
        print(json.dumps(result))
        return
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        sampler = speed.Sampler(on_pause=tracer.exclude)
    else:
        sampler = speed.Sampler()
    records = []
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    round_s = []
    with sampler:
        first = time.perf_counter()
        for units in plan:
            began = time.perf_counter() - sampler.paused_s
            for suite, s in units:
                run_unit(suites, tracer, suite, s, records)
            round_s.append(time.perf_counter() - sampler.paused_s - began)
        last = time.perf_counter() - sampler.paused_s
    if tracer is not None:
        tracer.uninstall()
    if resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt != children:
        raise SystemExit("a child process ran; a workload must run in one process")
    result.update(
        wall_s=last - first,
        round_s=round_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        units=records,
    )
    result["speed"] = speed.speed(sampler.samples)
    result["speed_samples"] = len(sampler.samples)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent_layers"] = tracer.absent
        result["spans"] = tracer.span_count()
        tracer.write_spans(argv[5])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
