"""Command line interface.

Subcommands: ``count`` prints counting sequences, ``enumerate`` streams
whole families, ``map`` applies the correspondences to objects (from an
argument or stdin, one per line), ``render`` draws ASCII diagrams (of
an argument, or of all of stdin for ``-``), and ``verify`` replays the
property suites end to end.

Exit codes: 0 on success, 1 on domain errors or failed verification,
2 on usage errors.  Handlers raise ``ValueError``; only ``main`` reports it.

``main`` builds its parser on its first call, about 1 ms, and reuses it
in every later call of the process (``build_parser`` still returns a new
one).  ``enumerate --limit`` skips the guard's count, so it builds no
counting table.  ``map`` builds no partition, reads stdin a line at a
time, prefixes an error with ``line N:`` and, for ``--phi-inv``, reads
each distinct block text of the stream once.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager, suppress
from itertools import chain, combinations, islice, repeat
from typing import Callable, Iterator, NamedTuple

from .bijection import _path_text, _phi_arcs, path_to_partition, partition_to_path
from .counting import (
    large_motzkin_numbers,
    motzkin32_numbers,
    ncl_counts,
    schroder_numbers,
    verify_identities,
)
from .doubling import double, project
from .enumerate import gen_large, gen_motzkin32, gen_ncl, gen_schroder
from .structures import (
    LinkedPartition,
    _BlockMemo,
    _block_text,
    _check_crossings,
    _checked_text,
    _partition_rows,
    ascii_rows,
    parse_partition,
    render_ascii,
    render_partition,
    validate_large,
    validate_motzkin,
    validate_ncl,
    validate_ncl_blockwise,
)

GUARD_ENV = "SCHRODER_MAX_OBJECTS"
GUARD_DEFAULT = 10**8

FAMILIES = ("m32", "large", "ncl", "schroder-large", "schroder-little")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkin-ncl",
        description="Large colored Motzkin paths, noncrossing linked "
        "partitions, and the maps between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print a counting sequence")
    count.add_argument("--seq", required=True, choices=("m", "L", "S", "s", "f"))
    count.add_argument("--upto", required=True, type=int, metavar="N")

    enum = sub.add_parser("enumerate", help="stream a whole family")
    enum.add_argument("--family", required=True, choices=FAMILIES)
    enum.add_argument("--n", required=True, type=int)
    enum.add_argument("--limit", type=int, metavar="X")
    enum.add_argument("--format", choices=("text", "jsonl"), default="text")

    mapping = sub.add_parser("map", help="apply a correspondence to objects")
    which = mapping.add_mutually_exclusive_group(required=True)
    which.add_argument("--phi", action="store_true", help="path to partition")
    which.add_argument("--phi-inv", action="store_true", help="partition to path")
    which.add_argument(
        "--double", type=int, choices=(0, 1), metavar="BIT", default=None,
        help="plain path + bit to large path",
    )
    which.add_argument(
        "--project", action="store_true", help="large path to plain path + bit"
    )
    mapping.add_argument(
        "object", nargs="?", help="object text; stdin lines when omitted"
    )

    render = sub.add_parser("render", help="draw an ASCII diagram")
    what = render.add_mutually_exclusive_group(required=True)
    what.add_argument("--path", metavar="WORD", help="a word; - reads stdin")
    what.add_argument("--partition", metavar="BLOCKS", help="block text; - reads stdin")
    render.add_argument("--format", choices=("text", "jsonl"), default="text")

    verify = sub.add_parser("verify", help="run the property suites")
    verify.add_argument("--max-n", dest="max_n", type=int, default=6)
    verify.add_argument("--identities", type=int, default=1000, metavar="N")

    return parser


# ---------------------------------------------------------------------------
# count


def cmd_count(args: argparse.Namespace) -> int:
    if args.seq == "f" and args.upto < 1:
        raise ValueError("f starts at 1; --upto must be at least 1")
    if args.upto < 0:
        raise ValueError("--upto must not be negative")
    if args.seq == "f":
        table = ncl_counts(args.upto)
    elif args.seq == "m":
        table = motzkin32_numbers(args.upto)
    elif args.seq == "L":
        table = large_motzkin_numbers(args.upto)
    else:
        table = schroder_numbers(args.upto)[args.seq == "s"]
    with _any_digits():
        for value in table.values:
            print(value)
    return 0


@contextmanager
def _any_digits() -> Iterator[None]:
    """Lift str(int)'s digit limit (4300 since Python 3.11) for the block."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# enumerate


def _family_stream(family: str, n: int) -> tuple[Iterator[str], Callable[[], int]]:
    """Texts of the family members plus a function that counts them."""
    if family == "m32":
        texts, table = (p.text for p in gen_motzkin32(n)), motzkin32_numbers
    elif family == "large":
        texts, table = (p.text for p in gen_large(n)), large_motzkin_numbers
    elif family == "ncl":
        texts, table = (render_partition(q) for q in gen_ncl(n)), ncl_counts
    else:
        variant = family.removeprefix("schroder-")
        texts = (p.text for p in gen_schroder(n, variant))
        table = lambda m: schroder_numbers(m)[variant == "little"]
    # every family has a member for each valid n; taking the first one
    # runs the generator's own check of n before any table is built
    return chain((next(texts),), texts), lambda: table(n)[n]


def cmd_enumerate(args: argparse.Namespace) -> int:
    stream, count = _family_stream(args.family, args.n)
    raw = os.environ.get(GUARD_ENV)
    try:
        with _any_digits():  # a guard of any length is read, not refused
            guard = GUARD_DEFAULT if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"{GUARD_ENV} must be an integer, got {raw!r}") from None
    if args.limit is not None:
        # the guard does not apply, so the table to N is never built
        stream = islice(stream, max(args.limit, 0))
    elif (predicted := count()) > guard:
        with _any_digits():
            raise ValueError(
                f"refusing to stream {predicted} objects (guard {guard}); "
                f"pass --limit or raise {GUARD_ENV}"
            )
    if args.format == "jsonl":
        stream = (_jsonl(args.family, args.n, text) for text in stream)
    for text in stream:
        sys.stdout.write(text + "\n")
    return 0


def _jsonl(kind: str, n: int, text: str) -> str:
    import json  # only --format jsonl needs it, so start-up skips it

    return json.dumps({"kind": kind, "n": n, "text": text}, separators=(",", ":"))


# ---------------------------------------------------------------------------
# map


def _map_transform(args: argparse.Namespace) -> Callable[[str], str]:
    if args.phi:
        return lambda line: _block_text(
            len(line) + 1, _phi_arcs(validate_large(line).text)
        )
    if args.phi_inv:
        # a stream repeats its blocks, where one object repeats few
        memo = _BlockMemo() if args.object is None else None
        return lambda line: _path_text(*_checked_text(line, memo))
    if args.double is not None:
        bit = args.double
        return lambda line: double(line, bit).text
    return lambda line: "%s\t%d" % project(line)


def cmd_map(args: argparse.Namespace) -> int:
    transform = _map_transform(args)
    if args.object is not None:
        sys.stdout.write(transform(args.object) + "\n")
        return 0
    # one line at a time, split at "\n" only; a "\r" before it is dropped
    for number, line in enumerate(sys.stdin, 1):
        try:
            out = transform(line.removesuffix("\n").removesuffix("\r"))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        sys.stdout.write(out + "\n")
    return 0


# ---------------------------------------------------------------------------
# render


def cmd_render(args: argparse.Namespace) -> int:
    if args.path is not None:
        obj = validate_motzkin(_object_text(args.path))
        kind, n, rows = "path", len(obj), ascii_rows(obj)
    else:
        obj = parse_partition(_object_text(args.partition))
        # the reader refused a second in-arc: only the sweep is left to run
        depths = _check_crossings(obj._pairs)
        kind, n, rows = "partition", obj.n, _partition_rows(obj.n, obj._pairs, depths)
    if args.format == "jsonl":
        print(_jsonl(kind, n, render_ascii(obj)))
    else:
        # a deep diagram runs to megabytes; write each row once it is made
        sys.stdout.writelines(row + "\n" for row in rows)
    return 0


def _object_text(arg: str) -> str:
    """``arg``, or for ``-`` all of stdin less the line end ``map`` drops."""
    if arg != "-":
        return arg
    return sys.stdin.read().removesuffix("\n").removesuffix("\r")


# ---------------------------------------------------------------------------
# verify


class SuiteResult(NamedTuple):
    name: str
    scope: str
    checked: int
    passed: bool
    elapsed: float
    counterexample: str | None = None


def run_suite(name: str, scope: str, checks: Iterator[str | None]) -> SuiteResult:
    """Time one suite and stop at its first counterexample.

    A suite yields ``None`` for each object that passes its check and a
    counterexample string for one that fails; ``checked`` counts the
    objects that passed before the first counterexample.
    """
    started = time.perf_counter()
    checked = 0
    counterexample = None
    for counterexample in checks:
        if counterexample is not None:
            break
        checked += 1
    elapsed = time.perf_counter() - started
    return SuiteResult(
        name, scope, checked, counterexample is None, elapsed, counterexample
    )


def suite_bijectivity(max_n: int) -> Iterator[str | None]:
    """Image of the path map = independently generated partitions."""
    for n in range(max_n + 1):
        image: dict[str, str] = {}
        for path in gen_large(n):
            text = render_partition(path_to_partition(path))
            if text in image:
                yield f"{image[text]!r} and {path.text!r} both map to {text}"
            else:
                image[text] = path.text
                yield None
        oracle = {render_partition(q) for q in gen_ncl(n + 1)}
        if set(image) != oracle:
            witness = sorted(set(image) ^ oracle)[0]
            side = "missing from image" if witness in oracle else "not a partition"
            yield f"{witness} ({side}, n={n})"


def suite_round_trip(max_n: int) -> Iterator[str | None]:
    """Both compositions are the identity, exhaustively."""
    for n in range(max_n + 1):
        for path in gen_large(n):
            back = partition_to_path(path_to_partition(path))
            yield None if back == path else path.text
        for q in gen_ncl(n + 1):
            back = path_to_partition(partition_to_path(q))
            yield None if back == q else render_partition(q)


def suite_doubling(max_n: int) -> Iterator[str | None]:
    """The doubling map is a bijection paths x bits -> large paths."""
    m = motzkin32_numbers(max(max_n - 1, 0))
    large = large_motzkin_numbers(max_n)
    for n in range(1, max_n + 1):
        seen = 0
        for path in gen_large(n):
            yield None if double(*project(path)) == path else path.text
            seen += 1
        if seen != large[n] or seen != 2 * m[n - 1]:
            yield f"count mismatch at n={n}: {seen} large paths"
        for q in gen_motzkin32(n - 1):
            for bit in (0, 1):
                back = project(double(q, bit))
                yield None if back == (q, bit) else f"{q.text!r} with bit {bit}"


def suite_validator_equivalence(max_n: int) -> Iterator[str | None]:
    """Arc-level and block-level validators agree on every arc set."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(2 ** len(pairs)):
            arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            p = LinkedPartition(n, arcs)
            by_arcs = _accepts(validate_ncl, p)
            by_blocks = _accepts(validate_ncl_blockwise, p)
            if by_arcs == by_blocks:
                yield None
            else:
                arcs_text = ",".join(f"({a},{b})" for a, b in arcs)
                yield (
                    f"n={n} arcs {arcs_text}: arc-level {by_arcs}, "
                    f"block-level {by_blocks}"
                )


def _accepts(validator, p: LinkedPartition) -> bool:
    try:
        validator(p)
    except ValueError:
        return False
    return True


def suite_identities(upto: int) -> Iterator[str | None]:
    """Each identity holds at every 1 <= n <= upto."""
    for check in verify_identities(upto).checks:
        yield from repeat(None, upto if check.holds else check.first_failure - 1)
        if not check.holds:
            yield f"{check.name} fails first at n={check.first_failure}"


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 0:
        raise ValueError("--max-n must not be negative")
    if args.identities < 1:
        raise ValueError("--identities must be at least 1")
    bound = min(args.max_n, 6)  # 2^C(n,2) subsets; 6 keeps this exhaustive yet quick
    suites = (
        ("bijectivity", args.max_n, suite_bijectivity),
        ("round-trip", args.max_n, suite_round_trip),
        ("doubling", args.max_n, suite_doubling),
        ("validator-equivalence", bound, suite_validator_equivalence),
        ("identities", args.identities, suite_identities),
    )
    results = [run_suite(name, f"n<={k}", suite(k)) for name, k, suite in suites]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.name:<24} {r.scope:<10} {r.checked:>9} checked  "
            f"{status}  {r.elapsed:8.2f}s"
        )
    failures = [r for r in results if not r.passed]
    for r in failures:
        print(f"counterexample ({r.name}): {r.counterexample}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------


_parser: argparse.ArgumentParser | None = None  # main's, built on its first call


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    handler = {
        "count": cmd_count,
        "enumerate": cmd_enumerate,
        "map": cmd_map,
        "render": cmd_render,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # downstream closed early (e.g. piped into head); not our error
        with suppress(OSError):
            sys.stdout.close()
        return 0
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
