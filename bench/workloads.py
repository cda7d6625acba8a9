"""The three workloads: seeded inputs, the CLI calls each request makes,
and the checks that every output is correct.

Every check here is independent of the code under test: path and
partition validity are re-derived from the definitions, and the counting
tables are compared against OEIS A006318 and its holonomic recurrence.
A request fails when a call raises (``RecursionError`` included), exits
non-zero, or prints a wrong answer; the last kind also marks the run as
incorrect.  Failures are counted, never fatal.
"""

from __future__ import annotations

import gc
import hashlib
import io
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# OEIS A006318, the large Schroeder numbers S(0)..S(19).  L(n) = S(n).
A006318 = (
    1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718, 5293446,
    27297738, 142078746, 745387038, 3937603038, 20927156706, 111818026018,
    600318853926, 3236724317174,
)

# Sizes are set so that a pass over a workload's request list takes a
# few seconds and is made of many calls: run.py takes medians over the
# passes of a run, and each call is paired with a run of ``reference``.
PIPELINE_N = 7
PIPELINE = f"pipeline-n{PIPELINE_N}"
PIPELINE_BATCH = 1000  # lines per ``map`` call
COUNT_UPTO = 300
COUNT_LONG = 600

# Random paths get a fixed, log-uniform spread of lengths 64..384 so every
# seed does the same amount of stepping; the seed picks the steps and the
# request order.  There are enough of them that the median request
# latency falls in a dense stretch, where noise that reorders neighbours
# hardly moves it.
RANDOM_LENGTHS = tuple(round(64 * 6 ** (i / 69)) for i in range(70))
# Nesting depths straddle the recursion defect: every k <= 120 maps
# today, every k >= 400 raises RecursionError.  Both sides stay far from
# the threshold (about 190) so that the traced run fails the same set.
DEEP_KS = (25, 40, 60, 80, 100, 120, 400, 600, 800)
CHAIN_KS = (50, 100, 150, 200)

PIPELINE_STAGES = (
    f"enumerate --family large --n {PIPELINE_N}",
    "map --phi",
    "map --phi-inv",
    "map --project",
    "map --double 0",
    "map --double 1",
    f"enumerate --family ncl --n {PIPELINE_N + 1}",
)

COUNT_REQUESTS = (
    *(f"count --seq {seq} --upto {COUNT_UPTO}" for seq in "mLSsf"),
    f"count --seq L --upto {COUNT_LONG}",
    f"verify --max-n 0 --identities {COUNT_UPTO}",
)


def reference() -> float:
    """Seconds for a fixed pure-Python loop of about a millisecond that
    builds short strings and tallies them in a dict, as the CLI does.

    On a shared host the machine's speed can drift by a fifth or more
    over minutes, which moves every timing in a run alike.  The worker
    runs this loop before every CLI call, and run.py divides each
    request's time by the loop's time before it, so the reported costs
    are in units of this loop on the same core at the same moments.  Of the loops tried
    (integer arithmetic, big-integer products, this one), this one
    followed the drift most closely on every workload.
    """
    started = time.perf_counter()
    for _ in range(40):
        word = "".join(("Ux", "ab", "cy")[i % 3] for i in range(100))
        tally: dict[str, int] = {}
        for i, ch in enumerate(word):
            tally[ch] = tally.get(ch, 0) + i
    return time.perf_counter() - started


class OracleError(Exception):
    """The benchmark's own reference data disagree with each other."""


# ---------------------------------------------------------------------------
# calling the CLI in-process


@dataclass
class Call:
    code: int | None  # None when the CLI raised instead of returning
    out: str
    error: str
    seconds: float
    ref: float = 0.0  # seconds of the reference loop run just before


def call_cli(main: Callable, argv: list[str], stdin: str = "") -> Call:
    """Run ``main(argv)`` with stdin/stdout/stderr redirected to memory.

    Garbage from earlier calls is collected and everything still alive is
    frozen first, so the call starts with the near-empty collector state
    of a fresh CLI process instead of paying for the harness's heap.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    code, error = None, ""
    started = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        seconds = time.perf_counter() - started
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return Call(code, out, error or err.strip()[:200], seconds)


class Request:
    """One request: a chain of CLI calls, timed and judged together."""

    def __init__(self, cli: Callable[[list[str], str], Call]):
        self.cli = cli
        self.seconds = 0.0
        self.refs: list[float] = []
        self.crashed = ""  # why the first failing call failed
        self.wrong = False

    @property
    def ok(self) -> bool:
        return not (self.crashed or self.wrong)

    def run(self, argv: list[str], stdin: str = "") -> str:
        call = self.cli(argv, stdin)
        self.seconds += call.seconds
        self.refs.append(call.ref)
        if call.code != 0 and not self.crashed:
            self.crashed = call.error.split(":")[0] or f"exit {call.code}"
        return call.out

    def expect(self, holds: bool) -> None:
        if not holds:
            self.wrong = True


@dataclass
class Tally:
    """What one pass over a workload's request list did.

    ``times``, ``refs`` and ``oks`` hold one entry per request, in list
    order.
    """

    times: list = field(default_factory=list)  # seconds inside CLI calls
    refs: list = field(default_factory=list)  # mean reference-loop seconds
    oks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    objects: int = 0
    steps: int = 0
    errors: dict = field(default_factory=dict)  # failure kind -> count
    # the calls' outputs are checked against each other, so the user's
    # request is the whole list
    whole_list: bool = False

    def add(self, request: Request, objects: int = 0, steps: int = 0) -> None:
        self.times.append(request.seconds)
        self.refs.append(sum(request.refs) / len(request.refs))
        self.oks.append(request.ok)
        self.attempted += 1
        if request.ok:
            self.objects += objects
            self.steps += steps
        else:
            self.failed += 1
            self.wrong += not request.crashed
            kind = request.crashed or "wrong output"
            self.errors[kind] = self.errors.get(kind, 0) + 1


# ---------------------------------------------------------------------------
# independent checkers

_DELTA = {"U": 1, "a": 0, "b": 0, "c": 0, "x": -1, "y": -1}


def is_large_path(word: str) -> bool:
    h = 0
    for ch in word:
        if ch not in _DELTA or (ch == "c" and h == 0):
            return False
        h += _DELTA[ch]
        if h < 0:
            return False
    return h == 0


def is_ncl_text(text: str, n: int) -> bool:
    """Block text of a noncrossing linked partition of exactly {1..n}."""
    if not text.startswith("{") or not text.endswith("}"):
        return False
    try:
        blocks = [sorted(map(int, b.split(","))) for b in text[1:-1].split("}{")]
    except ValueError:
        return False
    if {v for b in blocks for v in b} != set(range(1, n + 1)):
        return False
    arcs = sorted(((b[0], v) for b in blocks for v in b[1:]), key=lambda a: (a[0], -a[1]))
    rights = [b for _, b in arcs]
    if len(rights) != len(set(rights)):
        return False
    open_rights: list[int] = []
    for a, b in arcs:
        while open_rights and open_rights[-1] <= a:
            open_rights.pop()
        if open_rights and b > open_rights[-1]:
            return False
        open_rights.append(b)
    return True


def schroder_oracle(upto: int) -> list[int]:
    """S(0)..S(upto) from (n+1) S(n) = 3(2n-1) S(n-1) - (n-2) S(n-2),
    cross-checked against the hard-coded OEIS prefix."""
    s = [1, 2]
    for n in range(2, upto + 1):
        value, rest = divmod(3 * (2 * n - 1) * s[n - 1] - (n - 2) * s[n - 2], n + 1)
        if rest:
            raise OracleError(f"recurrence leaves a remainder at n={n}")
        s.append(value)
    if tuple(s[: len(A006318)]) != A006318:
        raise OracleError("recurrence disagrees with the OEIS A006318 prefix")
    return s[: upto + 1]


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Inputs:
    workload: str
    items: tuple[str, ...]  # one line per request or per input object

    @property
    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.items).encode()).hexdigest()


def random_large_path(rng: random.Random, length: int, block: int = 64) -> str:
    """A seeded large path built from blocks of at most ``block`` steps.

    Each block is a walk with equal up and down weight that lands back on
    the axis, so a long path has many components (which the rescans in
    ``restrict_partition`` pay for) while its cost stays close to
    proportional to its length whatever the seed.
    """
    out = []
    while length > 0:
        piece = min(block, length)
        length -= piece
        h = 0
        for left in range(piece, 0, -1):
            options = []
            if h + 1 <= left - 1:
                options += ["U", "U"]
            if h <= left - 1:
                options += ["a", "b"] + (["c"] if h else [])
            if h >= 1:
                options += ["x", "y"]
            ch = rng.choice(options)
            out.append(ch)
            h += _DELTA[ch]
    return "".join(out)


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == PIPELINE:
        # exhaustive, so the seed has nothing to choose
        return Inputs(workload, PIPELINE_STAGES)
    if workload == "count-tables":
        return Inputs(workload, COUNT_REQUESTS)
    if workload == "large-objects":
        rng = random.Random(seed)
        words = [random_large_path(rng, n) for n in RANDOM_LENGTHS]
        for k in DEEP_KS:
            words += ["U" * k + "x" * k, "U" * k + "b" * k + "y" * k]
        for k in CHAIN_KS:
            words += ["Ucx" * k, "U" + "Ucy" * k + "x"]
        for w in words:
            if not is_large_path(w):
                raise OracleError(f"generated input is not a large path: {w[:40]}")
        rng.shuffle(words)
        return Inputs(workload, tuple(words))
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pass per workload


def _batches(lines: list[str]) -> list[str]:
    return [
        "".join(line + "\n" for line in lines[i : i + PIPELINE_BATCH])
        for i in range(0, len(lines), PIPELINE_BATCH)
    ]


def pipeline_pass(inputs: Inputs, cli) -> Tally:
    """The stages of ``inputs``; each ``map`` stage reads its input in
    batches of ``PIPELINE_BATCH`` lines, one call per batch."""
    n = PIPELINE_N
    tally = Tally(whole_list=True)
    stages = [stage.split() for stage in inputs.items]

    def batched(argv: list[str], lines: list[str], want=None) -> list[str]:
        """One call per batch of ``lines``.  ``want`` holds each batch's
        expected output, and makes the batch's paths round trips."""
        out: list[str] = []
        for i, batch in enumerate(_batches(lines)):
            r = Request(cli)
            got = r.run(argv, batch)
            size = batch.count("\n")
            if want is None:
                r.expect(got.count("\n") == size)
                tally.add(r)
            else:
                r.expect(got == want[i])
                tally.add(r, objects=size, steps=n * size)
            out += got.splitlines()
        return out

    r = Request(cli)
    paths = r.run(stages[0]).splitlines()
    r.expect(
        len(paths) == A006318[n]
        and paths == sorted(set(paths))
        and all(len(w) == n and is_large_path(w) for w in paths)
    )
    tally.add(r)

    images = batched(stages[1], paths)
    # phi-inv must give back every batch of paths byte for byte
    batched(stages[2], images, want=_batches(paths))

    projected = batched(stages[3], paths)
    halves = {"0": [], "1": []}
    for line in projected:
        path, _, bit = line.partition("\t")
        halves.get(bit, []).append(path)
    doubled = batched(stages[4], halves["0"]) + batched(stages[5], halves["1"])
    r = Request(cli)
    partitions = r.run(stages[6]).splitlines()
    # the two halves together must give back every path exactly once, and
    # phi must hit every partition exactly once
    r.expect(
        sorted(doubled) == paths
        and len(partitions) == A006318[n]
        and sorted(partitions) == sorted(images)
    )
    tally.add(r)
    return tally


def large_objects_pass(inputs: Inputs, cli) -> Tally:
    tally = Tally()
    for word in inputs.items:
        r = Request(cli)
        part = r.run(["map", "--phi", word]).rstrip("\n")
        if r.ok:
            r.expect(is_ncl_text(part, len(word) + 1))
        if r.ok:
            r.expect(r.run(["map", "--phi-inv", part]) == word + "\n")
        if r.ok:
            art = r.run(["render", "--partition", part]).rstrip("\n").split("\n")
            r.expect(art[-1] == " ".join(str(v) for v in range(1, len(word) + 2)))
        tally.add(r, objects=1, steps=len(word))
    return tally


def count_pass(inputs: Inputs, cli, big: list[int]) -> Tally:
    """``big`` is the oracle S(0)..S(COUNT_LONG); every table follows
    from it by L = S, s = S/2, m(n-1) = L(n)/2 and f(n+1) = L(n)."""
    tally = Tally(whole_list=True)
    N = COUNT_UPTO
    expected = {
        "L": big[: N + 1],
        "S": big[: N + 1],
        "s": [1] + [v // 2 for v in big[1 : N + 1]],
        "m": [v // 2 for v in big[1 : N + 2]],
        "f": big[:N],
    }
    for argv in (request.split() for request in inputs.items):
        r = Request(cli)
        lines = r.run(argv).splitlines()
        if argv[0] == "verify":
            r.expect(
                len(lines) == 5
                and all(" PASS " in line for line in lines)
                and f" {4 * N} checked" in lines[-1]
            )
            tally.add(r)
            continue
        want = expected[argv[2]] if argv[4] == str(N) else big
        r.expect(lines == [str(v) for v in want])
        tally.add(r, objects=len(want), steps=sum(len(line) for line in lines))
    return tally


def run_pass(inputs: Inputs, cli, big: list[int] | None = None) -> Tally:
    if inputs.workload == "large-objects":
        return large_objects_pass(inputs, cli)
    if inputs.workload == PIPELINE:
        return pipeline_pass(inputs, cli)
    return count_pass(inputs, cli, big)


WORKLOADS = (PIPELINE, "large-objects", "count-tables")
