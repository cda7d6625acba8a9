"""Run one workload in this process and print its tallies as JSON.

Started by ``run.py`` as a fresh single-threaded process per workload:
one client in a closed loop, each CLI call made in-process through
``motzkin_ncl.cli.main`` with stdin and stdout redirected.

    python3 bench/worker.py --workload NAME --seed N --seconds S
        [--passes P] [--trace-out PATH]

Passes over the request list repeat while the next one is expected to
fit in ``--seconds`` (at least one, at most ``--passes``).  Before each
CLI call the reference loop of ``workloads.reference`` is timed.  With
``--trace-out`` the package is wrapped with span recorders and the
spans are written to PATH at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (after the path set-up above)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--passes", type=int, default=1000)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install("motzkin_ncl")
        main_fn = tracer.entry["cli.main"]
    else:
        from motzkin_ncl.cli import main as main_fn

    inputs = workloads.make_inputs(args.workload, args.seed)
    big = workloads.schroder_oracle(workloads.COUNT_LONG)

    def cli(argv, stdin=""):
        ref = workloads.reference()
        call = workloads.call_cli(main_fn, argv, stdin)
        call.ref = ref
        if tracer is not None:
            tracer.call += 1
            tracer.cli_lines += call.out.count("\n")
        return call

    passes = []
    started = time.perf_counter()
    while len(passes) < args.passes:
        t0 = time.perf_counter()
        passes.append(asdict(workloads.run_pass(inputs, cli, big)))
        now = time.perf_counter()
        if now - started + (now - t0) > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": {"size": len(inputs.items), "sha256": inputs.sha256},
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
