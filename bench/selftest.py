"""Self-test of the benchmark harness itself (not of the package).

    python3 bench/selftest.py

Checks that inputs follow the seed, that the independent checkers accept
and reject what they should, and that a crash and a corrupted output
each count as one failed operation without stopping the pass.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from motzkin_ncl.cli import main as cli_main  # noqa: E402


def check(holds: bool, what: str) -> None:
    if not holds:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def honest(argv, stdin=""):
    return workloads.call_cli(cli_main, argv, stdin)


def corrupting(argv, stdin=""):
    call = honest(argv, stdin)
    if argv[:2] == ["map", "--phi-inv"] and call.out:
        call.out = ("a" if call.out[0] != "a" else "b") + call.out[1:]
    return call


def main() -> int:
    first = workloads.make_inputs("large-objects", 1)
    again = workloads.make_inputs("large-objects", 1)
    other = workloads.make_inputs("large-objects", 2)
    fixed = 2 * (len(workloads.DEEP_KS) + len(workloads.CHAIN_KS))
    check(first.sha256 == again.sha256, "same seed gives the same input hash")
    check(first.sha256 != other.sha256, "another seed gives another input hash")
    check(
        len(set(first.items) & set(other.items)) == fixed
        and len(first.items) == len(other.items) == fixed + len(workloads.RANDOM_LENGTHS),
        "another seed changes every random path and keeps the fixed shapes",
    )
    check(
        workloads.make_inputs(workloads.PIPELINE, 1).sha256
        == workloads.make_inputs(workloads.PIPELINE, 2).sha256,
        "the exhaustive pipeline ignores the seed",
    )

    check(workloads.is_ncl_text("{1,2}{2,3}", 3), "checker accepts {1,2}{2,3}")
    check(not workloads.is_ncl_text("{1,3}{2,4}", 4), "checker rejects crossing arcs")
    check(not workloads.is_ncl_text("{1,3}{2,3}", 3), "checker rejects in-degree two")
    check(not workloads.is_ncl_text("{1,2}", 3), "checker rejects a missing vertex")
    check(not workloads.is_large_path("cUx"), "checker rejects color 3 on the axis")
    check(len(workloads.schroder_oracle(50)) == 51, "oracle recurrence matches OEIS")

    words = workloads.Inputs(
        "large-objects", ("UbxUbUxcUycy", "ab", "U" * 400 + "x" * 400)
    )
    tally = workloads.large_objects_pass(words, honest)
    check(
        (tally.attempted, tally.failed, tally.wrong) == (3, 1, 0),
        "a RecursionError counts as failed, not wrong, and the pass goes on",
    )
    tally = workloads.large_objects_pass(words, corrupting)
    check(
        (tally.attempted, tally.failed, tally.wrong) == (3, 3, 2),
        "a corrupted output counts as failed and wrong",
    )
    check(tally.oks == [False] * 3, "failed requests are marked as failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
