"""The command line surface: outputs, exit codes, stdin handling."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import motzkin_ncl.enumerate
import motzkin_ncl.structures
from motzkin_ncl import (
    LinkedPartition,
    cli,
    gen_large,
    gen_ncl,
    large_motzkin_numbers,
    parse_partition,
    path_to_partition,
    render_partition,
    schroder_numbers,
    validate_large,
    validate_ncl,
)
from motzkin_ncl.cli import main
from motzkin_ncl.counting import IdentityCheck, IdentityReport
from test_bijection import large_words, watch_builds
from test_structures import _grid_partition_art, block_texts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_large_sequence(self, capsys):
        code, out, err = run(capsys, "count", "--seq", "L", "--upto", "6")
        assert code == 0 and err == ""
        assert out == "1\n2\n6\n22\n90\n394\n1806\n"

    def test_colored_motzkin_sequence(self, capsys):
        code, out, _ = run(capsys, "count", "--seq", "m", "--upto", "4")
        assert code == 0
        assert out == "1\n3\n11\n45\n197\n"

    def test_schroder_pair(self, capsys):
        _, big, _ = run(capsys, "count", "--seq", "S", "--upto", "3")
        _, little, _ = run(capsys, "count", "--seq", "s", "--upto", "3")
        assert big == "1\n2\n6\n22\n"
        assert little == "1\n1\n3\n11\n"

    def test_ncl_counts_start_at_one(self, capsys):
        code, out, _ = run(capsys, "count", "--seq", "f", "--upto", "4")
        assert code == 0
        assert out == "1\n2\n6\n22\n"

    def test_ncl_needs_positive_upto(self, capsys):
        code, out, err = run(capsys, "count", "--seq", "f", "--upto", "0")
        assert code == 1 and out == "" and "at least 1" in err

    def test_negative_upto(self, capsys):
        code, _, err = run(capsys, "count", "--seq", "m", "--upto", "-3")
        assert code == 1 and err

    def test_terms_past_the_int_to_str_digit_limit(self, capsys):
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        before = digit_limit()
        code, out, err = run(capsys, "count", "--seq", "S", "--upto", "6000")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 6001 and len(lines[-1]) > 4300
        assert Decimal(lines[-1]) == Decimal(schroder_numbers(6000)[0][6000])
        assert digit_limit() == before

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count", "--upto", "3"])
        assert info.value.code == 2


class TestEnumerate:
    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "large", "--n", "2")
        assert code == 0
        assert out == "Ux\nUy\naa\nab\nba\nbb\n"

    def test_zero_length_is_one_empty_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "large", "--n", "0")
        assert code == 0 and out == "\n"

    def test_jsonl_records(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "ncl", "--n", "2", "--format", "jsonl"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records == [
            {"kind": "ncl", "n": 2, "text": "{1,2}"},
            {"kind": "ncl", "n": 2, "text": "{1}{2}"},
        ]
        assert all(list(r) == ["kind", "n", "text"] for r in records)

    def test_limit_truncates(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "m32", "--n", "3", "--limit", "2"
        )
        assert code == 0
        assert out == "Uax\nUay\n"

    def test_guard_refuses_large_jobs(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHRODER_MAX_OBJECTS", "100")
        code, out, err = run(capsys, "enumerate", "--family", "large", "--n", "5")
        assert code == 1 and out == ""
        assert "394" in err and "SCHRODER_MAX_OBJECTS" in err

    def test_guard_lifted_by_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHRODER_MAX_OBJECTS", "100")
        code, out, _ = run(
            capsys, "enumerate", "--family", "large", "--n", "5", "--limit", "1"
        )
        assert code == 0 and out == "UUaxx\n"

    def test_refusal_past_the_int_to_str_digit_limit(self, capsys, monkeypatch):
        # L(5700) has more digits than str(int) writes by default
        monkeypatch.delenv("SCHRODER_MAX_OBJECTS", raising=False)
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        before = digit_limit()
        code, out, err = run(capsys, "enumerate", "--family", "large", "--n", "5700")
        assert code == 1 and out == ""
        assert err.startswith("refusing to stream ")
        assert err.endswith("pass --limit or raise SCHRODER_MAX_OBJECTS\n")
        assert digit_limit() == before

    def test_guard_raised_by_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHRODER_MAX_OBJECTS", "1000")
        code, out, _ = run(capsys, "enumerate", "--family", "large", "--n", "5")
        assert code == 0 and len(out.splitlines()) == 394

    def test_guard_that_is_not_a_number_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHRODER_MAX_OBJECTS", "abc")
        code, out, err = run(capsys, "enumerate", "--family", "large", "--n", "3")
        assert code == 1 and out == ""
        assert err == "SCHRODER_MAX_OBJECTS must be an integer, got 'abc'\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="int() has no digit limit before Python 3.11",
    )
    def test_guard_past_the_int_to_str_digit_limit(self, capsys, monkeypatch):
        # a guard longer than int() reads by default is still a number
        monkeypatch.setenv("SCHRODER_MAX_OBJECTS", "1" * 5000)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            code, out, err = run(capsys, "enumerate", "--family", "large", "--n", "3")
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "") and len(out.splitlines()) == 22

    def test_schroder_families(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "schroder-little", "--n", "2")
        assert code == 0
        assert out == "UDUD\nUFD\nUUDD\n"

    def test_ncl_needs_a_vertex(self, capsys):
        code, _, err = run(capsys, "enumerate", "--family", "ncl", "--n", "0")
        assert code == 1 and err

    @pytest.mark.parametrize(
        "family, n, message",
        [
            ("ncl", "0", "partitions need at least one vertex"),
            ("large", "-1", "path length cannot be negative"),
            ("m32", "-1", "path length cannot be negative"),
            ("schroder-large", "-1", "half-length cannot be negative"),
            ("schroder-little", "-1", "half-length cannot be negative"),
        ],
    )
    def test_bad_n_fails_by_the_family_rule(self, capsys, family, n, message):
        # the generator's own rule, not the counting table's index check
        code, out, err = run(capsys, "enumerate", "--family", family, "--n", n)
        assert (code, out, err) == (1, "", message + "\n")

    def test_limit_bounds_the_work(self, capsys, monkeypatch):
        # the first line needs one partition built, not all L(9) of them
        built = []
        unchecked = motzkin_ncl.enumerate._unchecked

        def counted(cls, **fields):
            built.append(cls)
            return unchecked(cls, **fields)

        monkeypatch.setattr(motzkin_ncl.enumerate, "_unchecked", counted)
        code, out, _ = run(
            capsys, "enumerate", "--family", "ncl", "--n", "10", "--limit", "1"
        )
        assert code == 0 and out == "{1,10}{2,3,4,5,6,7,8,9}\n"
        assert len(built) == 1

    @pytest.mark.parametrize("family", cli.FAMILIES)
    def test_limit_builds_no_counting_table(self, capsys, monkeypatch, family):
        # the table to N serves only the guard, which --limit lifts
        built = []
        for name in (
            "motzkin32_numbers", "large_motzkin_numbers", "ncl_counts", "schroder_numbers"
        ):
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda m, real=real, name=name: built.append(name) or real(m)
            )
        argv = ("enumerate", "--family", family, "--n", "3")
        code, out, _ = run(capsys, *argv, "--limit", "1")
        assert code == 0 and len(out.splitlines()) == 1
        assert built == []
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(built) == 1


class TestMap:
    def test_phi_argument(self, capsys):
        code, out, _ = run(capsys, "map", "--phi", "UbxUbUxcUycy")
        assert code == 0
        assert out == "{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}\n"

    def test_phi_inverse_argument(self, capsys):
        code, out, _ = run(
            capsys, "map", "--phi-inv", "{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}"
        )
        assert code == 0 and out == "UbxUbUxcUycy\n"

    def test_stdin_lines(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Ux\nUy\n\n"))
        code, out, _ = run(capsys, "map", "--phi")
        assert code == 0
        assert out == "{1,2,3}\n{1,3}{2}\n{1}\n"

    @pytest.mark.parametrize("flag", ["--phi", "--phi-inv"])
    def test_stdin_builds_no_partition(self, capsys, monkeypatch, flag):
        # both directions go from text to text: neither builds a partition,
        # checked or not, nor a path through the unchecked builder
        words = [p.text for p in gen_large(5)]
        images = [render_partition(path_to_partition(w)) for w in words]
        lines, want = (words, images) if flag == "--phi" else (images, words)
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(x + "\n" for x in lines)))
        built = watch_builds(monkeypatch)
        code, out, _ = run(capsys, "map", flag)
        assert (code, out) == (0, "".join(x + "\n" for x in want))
        assert built == []

    def test_double_flag(self, capsys):
        code, out, _ = run(capsys, "map", "--double", "1", "c")
        assert code == 0 and out == "Uy\n"

    def test_project_emits_path_and_bit(self, capsys):
        code, out, _ = run(capsys, "map", "--project", "UbxUbUxcUycy")
        assert code == 0 and out == "UbxcbUxcUyc\t1\n"

    def test_invalid_word_exits_one(self, capsys):
        code, out, err = run(capsys, "map", "--phi", "Uq")
        assert (code, out, err) == (1, "", "unknown step character 'q' (offset 1)\n")

    def test_axis_l3_rejected_for_phi(self, capsys):
        code, _, err = run(capsys, "map", "--phi", "c")
        assert code == 1 and "axis" in err

    def test_crossing_partition_rejected(self, capsys):
        code, _, err = run(capsys, "map", "--phi-inv", "{1,3}{2,4}")
        assert code == 1 and "cross" in err

    def test_clashing_blocks_print_ascending(self, capsys):
        # 8 sits before 1 in a two-element set, which once printed {8, 1}
        code, out, err = run(capsys, "map", "--phi-inv", "{1,2}{1,8}{3}{4}{5}{6}{7}")
        assert (code, out) == (1, "")
        assert err == "blocks {1, 2} and {1, 8} are not nearly disjoint\n"

    def test_exactly_one_direction_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["map", "Ux"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["map", "--phi", "--project", "Ux"])
        assert info.value.code == 2

    def test_first_bad_stdin_line_stops_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Ux\nbad\nUy\n"))
        code, out, err = run(capsys, "map", "--phi")
        assert code == 1
        assert out == "{1,2,3}\n"
        assert err == "line 2: unknown step character 'd' (offset 2)\n"

    @pytest.mark.parametrize(
        "text, out",
        [
            ("Ux\r\nUy\r\n\r\n", "{1,2,3}\n{1,3}{2}\n{1}\n"),
            ("Ux\r\nUy", "{1,2,3}\n{1,3}{2}\n"),
            ("Ux\nUy\r", "{1,2,3}\n{1,3}{2}\n"),
        ],
        ids=["crlf", "last-line-unended", "last-line-ends-in-cr"],
    )
    def test_line_endings(self, capsys, monkeypatch, text, out):
        # "\n" ends a line and one "\r" before it is dropped
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, "map", "--phi") == (0, out, "")

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\f", "\r"])
    def test_other_line_breaks_are_part_of_the_line(self, capsys, monkeypatch, char):
        # only "\n" ends a line, and only one "\r" before it is dropped
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"Ux\nUx{char}\r\n"))
        code, out, err = run(capsys, "map", "--phi")
        assert (code, out) == (1, "{1,2,3}\n")
        assert err == f"line 2: unknown step character {char!r} (offset 2)\n"

    def test_stdin_streams(self, capsys, monkeypatch):
        # each line's answer is written before the next line is read
        written = []

        def lines():
            yield "Ux\n"
            written.append(capsys.readouterr().out)
            yield "Uy\n"

        monkeypatch.setattr(sys, "stdin", lines())
        code, out, _ = run(capsys, "map", "--phi")
        assert (code, written, out) == (0, ["{1,2,3}\n"], "{1,3}{2}\n")

    def test_too_deep_nesting_fails_in_one_line(self):
        import subprocess

        word = "U" * 2000 + "x" * 2000
        proc = subprocess.run(
            [sys.executable, "-m", "motzkin_ncl", "map", "--phi", word],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr and "deep" in proc.stderr

    def test_too_deep_stdin_line_is_named(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "motzkin_ncl", "map", "--phi"],
            input="Ux\n" + "U" * 2000 + "x" * 2000 + "\nUy\n",
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (1, "{1,2,3}\n")
        assert proc.stderr == "line 2: input nests too deeply for the recursive maps\n"

    def test_deep_partition_argument_maps(self, capsys):
        # φ⁻¹ reads any depth: the one block on 4001 vertices is a nest of 2000
        block = "{" + ",".join(map(str, range(1, 4002))) + "}"
        code, out, err = run(capsys, "map", "--phi-inv", block)
        assert (code, out, err) == (0, "U" * 2000 + "x" * 2000 + "\n", "")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="int() has no digit limit before Python 3.11",
    )
    def test_over_long_label_on_stdin_is_named(self, capsys, monkeypatch):
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr(sys, "stdin", io.StringIO("{1}\n{1,%s}\n" % ("1" * 5000)))
        try:
            sys.set_int_max_str_digits(4300)
            code, out, err = run(capsys, "map", "--phi-inv")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (1, "\n")
        assert err == "line 2: vertex label has more than 4300 digits (offset 3)\n"


class TestRender:
    def test_path_diagram(self, capsys):
        code, out, _ = run(capsys, "render", "--path", "Ux")
        assert code == 0 and out == "/\\\n--\n"

    def test_partition_diagram(self, capsys):
        code, out, _ = run(
            capsys, "render", "--partition", "{1,4,8}{2,3}{5,6}{6,7}{8,9}"
        )
        assert code == 0
        assert out.splitlines()[-1] == "1 2 3 4 5 6 7 8 9"

    def test_jsonl_wraps_the_diagram(self, capsys):
        code, out, _ = run(
            capsys, "render", "--path", "Ux", "--format", "jsonl"
        )
        assert code == 0
        record = json.loads(out)
        assert record == {"kind": "path", "n": 2, "text": "/\\\n--"}

    def test_plain_paths_render_without_large_check(self, capsys):
        code, out, _ = run(capsys, "render", "--path", "c")
        assert code == 0 and out == "c\n"

    def test_crossing_partition_rejected(self, capsys):
        code, _, err = run(capsys, "render", "--partition", "{1,3}{2,4}")
        assert code == 1 and "cross" in err

    @pytest.mark.parametrize(
        "word,fmt",
        [
            ("U" * 100 + "x" * 100, "text"),
            ("Ucx" * 200, "text"),
            ("U" * 100 + "x" * 100, "jsonl"),
            ("Ucx" * 200, "jsonl"),
        ],
        ids=["nested", "chain", "nested-jsonl", "chain-jsonl"],
    )
    def test_sorts_and_sweeps_the_arcs_once(self, capsys, monkeypatch, word, fmt):
        # no arc list is sorted, not even once: the diagram is drawn from
        # the pairs the reader stored, at the depths the validating sweep
        # counted, and jsonl sweeps a second time inside render_ascii; the
        # reader's one object is the only one built
        p = path_to_partition(word)
        text = render_partition(p)
        sorts, sweeps = [], []

        def counting_sort(items, *args, **kwargs):
            sorts.append((type(items), len(items)))
            return sorted(items, *args, **kwargs)

        for module in (motzkin_ncl.structures, cli):
            monkeypatch.setattr(module, "sorted", counting_sort, raising=False)
        sweep = motzkin_ncl.structures._check_crossings

        def counting_sweep(arcs):
            sweeps.append(len(arcs))
            return sweep(arcs)

        for module in (motzkin_ncl.structures, cli):
            monkeypatch.setattr(module, "_check_crossings", counting_sweep)
        built = watch_builds(monkeypatch)
        code, out, err = run(capsys, "render", "--partition", text, "--format", fmt)
        assert (code, err) == (0, "")
        art = _grid_partition_art(p)
        assert (out if fmt == "text" else json.loads(out)["text"] + "\n") == art + "\n"
        # only the reader's sort of each block's label set
        assert [size for kind, size in sorts if kind is not set] == []
        assert sum(kind is set for kind, _ in sorts) == text.count("{")
        assert sweeps == [len(p.arcs)] * (1 if fmt == "text" else 2)
        assert built == [LinkedPartition]


# one argv per CLI way that meets a partition, on the image of a word
# with every letter, a chain and a nest
_WORD = "aUbUcyUcxxbUacy"
_IMAGE = "{1,2}{2,10,11}{3,6}{4,5}{6,7,9}{7,8}{12,13,16}{14,15}"
_PARTITION_WAYS = {
    "phi": ("map", "--phi", _WORD),
    "phi-inv": ("map", "--phi-inv", _IMAGE),
    "render": ("render", "--partition", _IMAGE),
    "render-jsonl": ("render", "--partition", _IMAGE, "--format", "jsonl"),
    "enumerate": ("enumerate", "--family", "ncl", "--n", "6"),
}


class TestArcsView:
    @pytest.mark.parametrize("argv", _PARTITION_WAYS.values(), ids=_PARTITION_WAYS)
    def test_cli_reads_no_arcs_view(self, capsys, monkeypatch, argv):
        # every CLI way reads a partition's stored pairs; the frozenset of
        # Arc that the arcs view builds is for library callers
        assert render_partition(path_to_partition(_WORD)) == _IMAGE
        reads = []
        view = LinkedPartition.arcs

        def counted(p):
            reads.append(p.n)
            return view.fget(p)

        monkeypatch.setattr(LinkedPartition, "arcs", property(counted))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out
        assert reads == []


def _captured(*argv):
    """main(argv)'s exit code, stdout and stderr, without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _oracle_render(text: str, fmt: str):
    """What ``render --partition text`` must print: the grid oracle's
    diagram of the validated parse, or the error the validation names."""
    try:
        p = validate_ncl(parse_partition(text))
    except ValueError as exc:
        return 1, "", f"{exc}\n"
    art = _grid_partition_art(p)
    if fmt == "jsonl":
        record = {"kind": "partition", "n": p.n, "text": art}
        return 0, json.dumps(record, separators=(",", ":")) + "\n", ""
    return 0, art + "\n", ""


class TestRenderPartitionOracle:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_small_partition(self, n):
        for q in gen_ncl(n):
            text = render_partition(q)
            for fmt in ("text", "jsonl"):
                outcome = _captured("render", "--partition", text, "--format", fmt)
                assert outcome == _oracle_render(text, fmt), (text, fmt)

    @given(block_texts())
    def test_block_texts(self, text):
        # invalid texts included: the error line and exit code 1
        for fmt in ("text", "jsonl"):
            outcome = _captured("render", "--partition", text, "--format", fmt)
            assert outcome == _oracle_render(text, fmt)


class TestRenderStdin:
    """``-`` reads the object from all of stdin, as one text."""

    def test_partition_from_stdin(self, capsys, monkeypatch):
        text = "{1,4,8}{2,3}{5,6}{6,7}{8,9}"
        want = run(capsys, "render", "--partition", text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text + "\n"))
        assert run(capsys, "render", "--partition", "-") == want
        assert want[0] == 0

    @pytest.mark.parametrize("end", ["", "\n", "\r\n", "\r"])
    def test_path_from_stdin_drops_one_line_end(self, capsys, monkeypatch, end):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Ux" + end))
        assert run(capsys, "render", "--path", "-") == (0, "/\\\n--\n", "")

    def test_only_one_line_end_is_dropped(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Ux\n\n"))
        code, out, err = run(capsys, "render", "--path", "-")
        assert (code, out) == (1, "")
        assert err == "unknown step character '\\n' (offset 2)\n"

    def test_error_offset_is_the_offset_in_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{1,2}{3,}\n"))
        code, out, err = run(capsys, "render", "--partition", "-")
        assert (code, out, err) == (1, "", "expected a vertex label (offset 8)\n")

    def test_crossing_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{1,4}{2,5}{3}\n"))
        code, out, err = run(capsys, "render", "--partition", "-")
        assert (code, out, err) == (1, "", "arcs (1, 4) and (2, 5) cross\n")

    def test_jsonl_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{1,3}{2}\n"))
        code, out, _ = run(capsys, "render", "--partition", "-", "--format", "jsonl")
        assert code == 0
        assert out == '{"kind":"partition","n":3,"text":".---.\\n1 2 3"}\n'

    def test_objects_past_the_argument_limit(self, capsys, monkeypatch):
        # Linux refuses one argument of 131,072 bytes or more; stdin has
        # no such limit
        k = 43691
        monkeypatch.setattr(sys, "stdin", io.StringIO("Ucx" * k + "\n"))
        code, out, _ = run(capsys, "render", "--path", "-")
        assert (code, out) == (0, "/c\\" * k + "\n" + "-" * 3 * k + "\n")
        text = render_partition(path_to_partition("Ucx" * 5000))
        assert len(text) > 131072
        want = run(capsys, "render", "--partition", text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text + "\n"))
        assert run(capsys, "render", "--partition", "-") == want
        assert want[1].endswith(" ".join(map(str, range(1, 15002))) + "\n")


# one injected fault per suite: the suite, the name in cli it replaces,
# the fault (built from the real function), and what verify must report
_FAULTS = [
    (
        "bijectivity",
        "path_to_partition",
        lambda real: lambda path: real("aa" if path.text == "Ux" else path),
        5,
        "'Ux' and 'aa' both map to {1,2}{2,3}",
    ),
    (
        "round-trip",
        "partition_to_path",
        lambda real: lambda q: validate_large(
            real(q).text.translate(str.maketrans("ab", "ba"))
        ),
        2,
        "a",
    ),
    (
        "doubling",
        "double",
        lambda real: lambda q, bit: real(q, bit if len(q) == 0 else 1 - bit),
        4,
        "Ux",
    ),
    (
        "validator-equivalence",
        "validate_ncl_blockwise",
        lambda real: lambda p: p,
        9,  # the disagreeing arc set itself is not counted
        "n=3 arcs (1,3),(2,3): arc-level False, block-level True",
    ),
    (
        "identities",
        "verify_identities",
        lambda real: lambda upto: IdentityReport(
            upto,
            (
                real(upto).checks[0],
                IdentityCheck("L(n) = S(n)", False, 3),
                *real(upto).checks[2:],
            ),
        ),
        20 + 2,  # all of the first identity, then n = 1, 2
        "L(n) = S(n) fails first at n=3",
    ),
]


class TestVerify:
    def test_default_scope_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4", "--identities", "50")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all("PASS" in line for line in lines)
        suites = {line.split()[0] for line in lines}
        assert suites == {
            "bijectivity",
            "round-trip",
            "doubling",
            "validator-equivalence",
            "identities",
        }

    def test_bad_arguments(self, capsys):
        code, _, err = run(capsys, "verify", "--max-n", "-1")
        assert code == 1 and err
        code, _, err = run(capsys, "verify", "--identities", "0")
        assert code == 1 and err

    def test_passing_counts_follow_the_tables(self, capsys):
        # "checked" counts the objects that passed: every large path of
        # length n <= 5 (bijectivity); each path and each partition of
        # {1..n+1}, f(n+1) = L(n) of them (round trip); each large path of
        # length n >= 1 and each (plain path, bit), 2 m(n-1) = L(n) of them
        # (doubling); every arc set on n <= 5 vertices; and each
        # (identity, n) pair
        code, out, _ = run(capsys, "verify", "--max-n", "5", "--identities", "200")
        assert code == 0
        large = large_motzkin_numbers(5)
        expected = {
            "bijectivity": sum(large.values),
            "round-trip": 2 * sum(large.values),
            "doubling": 2 * sum(large.values[1:]),
            "validator-equivalence": sum(2 ** comb(n, 2) for n in range(1, 6)),
            "identities": 4 * 200,
        }
        rows = _verify_rows(out)
        assert {name: int(row[2]) for name, row in rows.items()} == expected
        assert all(row[4] == "PASS" for row in rows.values())

    @pytest.mark.parametrize(
        "suite, name, fault, checked, counterexample",
        _FAULTS,
        ids=[case[0] for case in _FAULTS],
    )
    def test_fault_is_reported(
        self, capsys, monkeypatch, suite, name, fault, checked, counterexample
    ):
        monkeypatch.setattr(cli, name, fault(getattr(cli, name)))
        code, out, _ = run(capsys, "verify", "--max-n", "3", "--identities", "20")
        assert code == 1
        row = _verify_rows(out)[suite]
        assert row[2:5] == [str(checked), "checked", "FAIL"]
        assert f"counterexample ({suite}): {counterexample}" in out.splitlines()


def _verify_rows(out: str) -> dict[str, list[str]]:
    """The suite rows of ``verify`` output, split into fields."""
    return {
        line.split()[0]: line.split()
        for line in out.splitlines()
        if not line.startswith("counterexample")
    }


# what an option's value may be instead of a good one
_JUNK = st.sampled_from(["", "-", "-1", "x", "1e3", "٣", "0x10", "--n", "\x00"])


@st.composite
def cli_calls(draw):
    """An argv for one of the five subcommands and the stdin it reads.
    Option values come from their choices or small numbers, and one time
    in five are junk; objects are words, near-words and block texts,
    given as the argument or, through ``-`` or no argument, on stdin."""

    def value(good):
        return draw(_JUNK if draw(st.integers(0, 4)) == 0 else good)

    small = st.integers(-2, 5).map(str)
    word = large_words(max_len=12) | st.text("Uabcxy?\r", max_size=8)
    thing = word | block_texts()
    command = draw(st.sampled_from(["count", "enumerate", "map", "render", "verify"]))
    if command == "count":
        argv = ["--seq", value(st.sampled_from("mLSsf")), "--upto", value(small)]
    elif command == "enumerate":
        argv = ["--family", value(st.sampled_from(cli.FAMILIES)), "--n", value(small)]
        argv += draw(st.sampled_from([[], ["--limit", "3"], ["--format", "jsonl"]]))
    elif command == "map":
        argv = draw(
            st.sampled_from(
                [["--phi"], ["--phi-inv"], ["--double", "0"], ["--double", "1"]]
                + [["--project"], ["--double", "2"], ["--phi", "--project"], []]
            )
        )
        argv += draw(st.lists(thing, max_size=1))
    elif command == "render":
        what = draw(st.sampled_from(["--path", "--partition"]))
        argv = [what, draw(thing | st.just("-"))]
        argv += draw(st.sampled_from([[], ["--format", "jsonl"], ["--format", "x"]]))
    else:
        argv = ["--max-n", value(st.integers(-1, 2).map(str))]
        argv += ["--identities", value(small)]
    stdin = "\n".join(draw(st.lists(thing, max_size=3)))
    return [command, *argv], stdin


class TestNoTraceback:
    @settings(max_examples=200, deadline=None)
    @given(cli_calls())
    def test_generated_calls_fail_in_one_line(self, call):
        # exit 0 says nothing on stderr, a refused input says one line and
        # a usage error ends in argparse's own; no call shows a traceback
        argv, stdin = call
        out, err = io.StringIO(), io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdin = saved
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err
        if code == 0:
            assert err == ""
        elif code == 1:
            assert len(err.splitlines()) <= 1 and err.endswith("\n")
        else:
            assert ": error: " in err.splitlines()[-1]


class TestSharedParser:
    """``main`` builds its parser once per process and reuses it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Start with no parser and count the builds from here on."""
        built = []
        factory = cli.build_parser

        def counted():
            built.append(1)
            return factory()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        return built

    def test_fifty_calls_build_it_once(self, capsys, builds):
        calls = [
            ("count", "--seq", "L", "--upto", "3"),
            ("enumerate", "--family", "large", "--n", "2"),
            ("map", "--phi", "Ux"),
            ("render", "--path", "Ux", "--format", "jsonl"),
            ("verify", "--max-n", "0", "--identities", "1"),
        ]
        for i in range(50):
            assert run(capsys, *calls[i % len(calls)])[0] == 0
        assert len(builds) == 1

    def test_build_parser_stays_a_factory(self, capsys, builds):
        assert run(capsys, "map", "--phi", "Ux")[0] == 0
        assert cli.build_parser() is not cli._parser

    def test_an_option_does_not_carry_over(self, capsys, builds):
        argv = ("enumerate", "--family", "ncl", "--n", "2")
        code, out, _ = run(capsys, *argv, "--format", "jsonl")
        assert code == 0 and out.startswith('{"kind"')
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "{1,2}\n{1}{2}\n")
        code, out, _ = run(capsys, "map", "--double", "1", "c")
        assert (code, out) == (0, "Uy\n")
        code, out, _ = run(capsys, "map", "--project", "Uy")
        assert (code, out) == (0, "c\t1\n")

    def test_usage_error_then_a_correct_call(self, capsys, builds):
        with pytest.raises(SystemExit) as info:
            main(["map", "--phi", "--project", "Ux"])
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert run(capsys, "map", "--phi", "Ux") == (0, "{1,2,3}\n", "")

    def _help(self, capsys, *argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--help"])
        assert info.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("argv", [(), ("map",), ("enumerate",)])
    def test_help_is_the_same_each_time(self, capsys, monkeypatch, builds, argv):
        monkeypatch.setenv("COLUMNS", "80")
        first = self._help(capsys, *argv)
        assert self._help(capsys, *argv) == first
        assert len(builds) == 1
        monkeypatch.setattr(cli, "_parser", None)  # a fresh parser says the same
        assert self._help(capsys, *argv) == first
        assert len(builds) == 2

    def test_help_follows_columns(self, capsys, monkeypatch, builds):
        # argparse reads the width when it formats, not when it is built
        monkeypatch.setenv("COLUMNS", "200")
        wide = self._help(capsys, "map")
        monkeypatch.setenv("COLUMNS", "50")
        narrow = self._help(capsys, "map")
        assert len(builds) == 1 and narrow != wide
        assert max(map(len, narrow.splitlines())) < max(map(len, wide.splitlines()))


class TestModuleEntry:
    def test_python_dash_m_works(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "motzkin_ncl", "count", "--seq", "L", "--upto", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1\n2\n6\n"


class TestStartUp:
    # modules that the value types and --format jsonl once pulled into
    # every start-up; counted in a fresh interpreter, not timed
    HEAVY = ("dataclasses", "inspect", "json", "ast", "dis", "tokenize")
    PROBE = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import motzkin_ncl.cli\n"
        "motzkin_ncl.cli.build_parser()\n"
        "print(sorted(set(sys.modules) - before), file=sys.stderr)\n"
        "sys.exit(motzkin_ncl.cli.main(sys.argv[1:]))\n"
    )

    def test_import_loads_no_heavy_module_and_jsonl_still_prints(self):
        import ast
        import subprocess

        argv = ["enumerate", "--family", "large", "--n", "2", "--format", "jsonl"]
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv], capture_output=True
        )
        assert proc.returncode == 0
        added = ast.literal_eval(proc.stderr.decode())
        assert "motzkin_ncl.cli" in added
        assert [name for name in self.HEAVY if name in added] == []
        # byte for byte what json printed when start-up imported it
        assert proc.stdout == b"".join(
            b'{"kind":"large","n":2,"text":"%s"}\n' % word
            for word in (b"Ux", b"Uy", b"aa", b"ab", b"ba", b"bb")
        )
