"""The benchmark: each workload runs in fresh worker processes.

    python3 bench/run.py --workload {pipeline-n7,large-objects,count-tables,all}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.
``all`` runs the three workloads one after another, each as above.

``--trace 0`` times the set-up (import plus parser, in fresh processes)
and then the workload, untraced, and prints the end-to-end metrics.
``--trace 1`` runs one untraced pass and one traced pass and prints the
per-layer metrics plus the tracing overhead; spans go to
``.bench_out/``.  The last stdout line is always the JSON result:
``{"correct", "attempted", "failed", "metrics"}``.

Exit status is 0 whenever a result is printed, failed operations
included.  It is non-zero, with no result, when the source tree is
missing, the benchmark's oracle data are inconsistent, or a worker dies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170  # one workload must end within 180 s

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

SETUP_PROBES = 20
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import motzkin_ncl.cli
motzkin_ncl.cli.build_parser()
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "objects_per_ref": "1/ref",
    "steps_per_ref": "1/ref",
    "req_p50_ref": "ref",
    "req_p90_ref": "ref",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 1:
        raise BenchError("out of time")
    return left


def setup_seconds(started: float) -> list[float]:
    """Import the package and build the CLI parser in fresh interpreters;
    the first probe (which may compile bytecode) is discarded."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=_remaining(started),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        samples.append(float(proc.stdout))
    return samples[1:]


def run_worker(
    workload: str, seed: int, started: float, seconds: float, passes: int, trace_out=None
) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--passes", str(passes),
    ]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    # a fixed hash seed keeps set and dict layouts, and so timings, alike
    # from run to run
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=_remaining(started)
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, -(-len(ranked) * q // 100) - 1)]


def in_ref(passes: list[dict]) -> list[list[float]]:
    """Each request's time in units of the reference loop run before its
    calls (see ``workloads.reference``), pass by pass."""
    return [[t / r for t, r in zip(p["times"], p["refs"])] for p in passes]


def end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    passes = result["passes"]
    costs = in_ref(passes)
    totals = [sum(c) for c in costs]
    wall = statistics.median(totals)
    if passes[0]["whole_list"]:
        latencies = [wall]
    else:
        # every request of every pass; a failed one ranks as the whole
        # list, behind every completed one, so fixing a failure never
        # raises a percentile
        latencies = [
            c if ok else wall
            for p, cs in zip(passes, costs)
            for c, ok in zip(cs, p["oks"])
        ]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_ref": wall,
        "objects_per_ref": statistics.median(
            p["objects"] / t for p, t in zip(passes, totals)
        ),
        "steps_per_ref": statistics.median(p["steps"] / t for p, t in zip(passes, totals)),
        "req_p50_ref": percentile(latencies, 50),
        "req_p90_ref": percentile(latencies, 90),
        "ok_frac": 1 - failed / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_units(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {
        "busy_s": "s", "self_s": "s", "us_per_step": "us", "objects_per_s": "1/s",
        "growth_exp": "log2", "overhead_frac": "ratio",
    }.get(suffix, "count")


def run(workload: str, seed: int, seconds: int, trace: int) -> int:
    """Benchmark one workload and print its report, JSON result last."""
    started = time.perf_counter()
    try:
        if not (SRC / "motzkin_ncl" / "cli.py").is_file():
            raise BenchError(f"no package source under {SRC}")
        workloads.schroder_oracle(workloads.COUNT_LONG)
        OUT.mkdir(exist_ok=True)
        if trace:
            plain = run_worker(workload, seed, started, seconds / 2, 1)
            result = run_worker(
                workload, seed, started, seconds / 2, 1, OUT / f"spans-{workload}.bin"
            )
            metrics = dict(result["layers"])
            metrics["trace.overhead_frac"] = (
                sum(in_ref(result["passes"])[0]) / sum(in_ref(plain["passes"])[0]) - 1
            )
            units = {name: layer_units(name) for name in metrics}
        else:
            setup = setup_seconds(started)
            left = seconds - (time.perf_counter() - started)
            result = run_worker(workload, seed, started, left, 1000)
            metrics = end_to_end(result, setup)
            units = END_TO_END_UNITS
    except (BenchError, workloads.OracleError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    passes = result["passes"]
    failures: dict[str, int] = {}
    for p in passes:
        for kind, n in p["errors"].items():
            failures[kind] = failures.get(kind, 0) + n
    summary = {
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        **summary,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "inputs": result["inputs"],
        "pass_seconds": [sum(p["times"]) for p in passes],
        "pass_ref_s": [statistics.median(p["refs"]) for p in passes],
        "failures": failures,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    tag = f"{workload}-seed{seed}-trace{trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(
        f"workload {workload}  seed {seed}  trace {trace}  "
        f"inputs {result['inputs']['size']} requests "
        f"sha256 {result['inputs']['sha256'][:16]}  passes {len(passes)}"
    )
    print(
        f"attempted {summary['attempted']}  failed {summary['failed']}  "
        f"correct {summary['correct']}  failures {failures or 'none'}"
    )
    print(
        f"median pass {statistics.median(detail['pass_seconds']):.4g} s inside CLI calls; "
        f"1 ref = {1000 * statistics.median(detail['pass_ref_s']):.4g} ms in this run"
    )
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(json.dumps(summary), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run(w, args.seed, args.seconds, args.trace) for w in chosen)


if __name__ == "__main__":
    sys.exit(main())
