"""Benchmark of the qcoideal engine: end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of the workload runs in a fresh process (bench/worker.py), so
module-level and per-datum caches start cold and peak memory is the pass's
own.  Passes are repeated until S seconds have passed; a pass is never cut,
so a workload whose pass is longer than S runs one pass.

--trace 0 reports the end-to-end metrics: ``setup_s`` (process start until
the inputs are ready, median over setup-only processes), ``wall_s`` (first
verdict to last, or rounds times the median round, median over passes) and
``peak_rss_mb`` (median over passes).  The two times are given at the
reference host speed of bench/speed.py, measured in the same process
(``setup_s`` is scaled by the square root of the speed); the raw times and
the speed are printed and recorded beside them.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of bench/tracer.py, each
the median over traced passes (self times at the reference speed too),
and ``trace.overhead_ratio``.

Every suite's check list is compared with its digest in
bench/reference.json; failing checks, suites that raised and digest
mismatches count as failures, and so does a traced pass whose digests
differ from its untraced partner.  The result is written to
bench/out/ and printed, last, as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, load_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 7  # setup-only processes per run
RUN_LIMIT_S = 170  # a run must end within 180 s


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    if not git.is_dir():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcoideal").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def spawn(workload, seed, mode, limit, spans=None):
    """Run bench/worker.py once and return its JSON result."""
    # byte code is cached under bench/out whatever the caller's settings, so
    # that setup_s measures imports from cached byte code; a fixed hash seed
    # gives every pass the same set and dict layouts
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), repr(spawned), mode]
    if spans is not None:
        cmd.append(str(spans))
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, limit - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdicts(passes, reference):
    """(checks attempted, failures) over the units of every pass."""
    attempted = failed = 0
    for p in passes:
        for unit in p["units"]:
            ref = reference[unit["suite"]]
            if "error" in unit:
                attempted += ref["checks"]
                failed += 1
                continue
            attempted += unit["checks"]
            failed += len(unit["failed"]) + (unit["sha256"] != ref["sha256"])
    return attempted, failed


def pass_time(p):
    """Time of a pass: the number of rounds times the median round, so that
    one expensive seed does not set it; with one round, first verdict to
    last."""
    return len(p["round_s"]) * statistics.median(p["round_s"])


def _digests(p):
    return [unit.get("sha256") for unit in p["units"]]


def run(workload, seed, seconds, trace):
    """Measure `workload`; returns the full record written to bench/out/."""
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}.spans"
    setups = [] if trace else [
        spawn(workload, seed, "setup", limit) for _ in range(SETUP_SAMPLES)
    ]
    measure_end = time.monotonic() + seconds
    passes, traced = [], []
    while True:
        began = time.monotonic()
        passes.append(spawn(workload, seed, "run", limit))
        if trace:
            traced.append(spawn(workload, seed, "trace", limit, spans))
        now = time.monotonic()
        if now >= measure_end or now + (now - began) > limit:
            break

    attempted, failed = verdicts(passes + traced, load_reference())
    failed += sum(_digests(p) != _digests(t) for p, t in zip(passes, traced))
    raw = {
        "wall_s": statistics.median(pass_time(p) for p in passes),
        "speed": statistics.median(p["speed"] for p in passes),
    }
    wall = statistics.median(pass_time(p) * p["speed"] for p in passes)
    if trace:
        metrics = {}
        for name, (_value, unit) in traced[0]["layers"].items():
            # self times, like wall_s, at the reference host speed
            scale = [t["speed"] if unit == "s" else 1 for t in traced]
            values = [t["layers"][name][0] * k for t, k in zip(traced, scale)]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        traced_wall = statistics.median(pass_time(t) * t["speed"] for t in traced)
        metrics["trace.overhead_ratio"] = {"value": traced_wall / wall - 1, "unit": "ratio"}
    else:
        raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {
            "setup_s": {
                # process start and file reads follow host speed only in part
                "value": statistics.median(s["setup_s"] * s["speed"] ** 0.5 for s in setups),
                "unit": "s",
            },
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(p["peak_rss_mb"] for p in passes),
                "unit": "MB",
            },
        }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "raw": raw,
        "setup_samples": setups,
        "passes": passes,
        "traced_passes": traced,
    }
    if trace:
        record["absent_layers"] = traced[0]["absent_layers"]
        record["spans_file"] = str(spans.relative_to(ROOT))
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qcoideal" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment", json.dumps(record["environment"], sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(record['passes'])} pass(es)")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    raw = " ".join(f"{k} {v:.6g}" for k, v in record["raw"].items())
    print(f"raw times (s) and host speed: {raw}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ratio ({record['failed']}/{record['attempted']})")
    if args.trace and record["absent_layers"]:
        print("absent layers (reported as 0):", " ".join(record["absent_layers"]))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
