"""Command-level tests: golden outputs and exit codes."""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordsum.l1
import ordsum.orders
import ordsum.presentations
from ordsum.cantor import MAX_EXPAND_DEPTH, format_gap_order, parse_system
from ordsum.cli import (
    COMMANDS,
    INTEGER_WORDS,
    LAZY_TRUNCATION,
    MAX_LAZY_PIECES,
    MAX_ROUNDTRIP_PIECES,
    MAX_SURFACE_GRID,
    MAX_THETA_LESS_LINES,
    MAX_THETA_SIZE,
    main,
)
from ordsum.orders import _Placement
from ordsum.presentations import load_presentation
from ordsum.rationals import _IndexCounter
from ordsum.tnorm import MAX_DIGITS, FinitePresentation

PAIR_A_TEXT = "tnorm v1\npiece 1/4 1/2 P\npiece 1/2 3/4 L\n"
PAIR_B_TEXT = "tnorm v1\npiece 1/10 1/5 P\npiece 1/5 9/10 L\n"
LUK_TEXT = "tnorm v1\npiece 0 1 L\n"

# (family a, family b, depth, the whole stdout of `ordsum iso`)
LAZY_NOT_ISO = [
    ("theta omega", "limit-right", "6",
     "NOT_ISO MinimumExistsMismatch(M)\n"
     "  one side has a least entry labeled M; "
     "the other is certified to have no least entry\n"),
    ("theta omega", "theta omega_plus_omega_star", "6",
     "NOT_ISO MaximumExistsMismatch(M)\n"
     "  one side has a greatest entry labeled M; "
     "the other is certified to have no greatest entry\n"),
    ("theta eta", "theta zeta", "2",
     "NOT_ISO SuccessorPairPresent((1/9, 2/9), (2/9, 1/3))\n"
     "  one side has adjacent entries sharing an endpoint: "
     "(1/9, 2/9) P then (2/9, 1/3) M; the other side is certified order-dense\n"),
    ("theta eta", "theta zeta", "1",
     "NOT_ISO DensityMismatch\n"
     "  exactly one side is certified dense without endpoints\n"),
]


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


@pytest.fixture
def no_pieces(monkeypatch):
    # every piece of an order, lazy or not, is placed by extend
    def placed(self, count):
        raise OSError("a piece was placed")

    monkeypatch.setattr(_Placement, "extend", placed)


class TestEval:
    def test_lukasiewicz_center(self, write, capsys):
        assert main(["eval", write("t", LUK_TEXT), "1/2", "1/2"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_product_piece_value(self, write, capsys):
        assert main(["eval", write("t", PAIR_A_TEXT), "3/8", "3/8"]) == 0
        assert capsys.readouterr().out == "5/16\n"

    def test_lazy_value_carries_error_bound(self, write, capsys):
        f = write("t", "tnorm v1\nfamily limit-left\n")
        assert main(["eval", f, "5/12", "5/12"]) == 0
        assert capsys.readouterr().out == "value 25/72 error_bound 2/13\n"

    def test_missing_file(self, capsys):
        assert main(["eval", "/nonexistent.tnorm", "1/2", "1/2"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_point_outside_unit_interval(self, write, capsys):
        assert main(["eval", write("t", LUK_TEXT), "3/2", "1/2"]) == 2

    def test_unparseable_point(self, write, capsys):
        assert main(["eval", write("t", LUK_TEXT), "one", "1/2"]) == 2

    def test_decimal_and_exponent_points_rejected(self, write, capsys):
        assert main(["eval", write("t", PAIR_A_TEXT), "0.5", "1e-1"]) == 2
        assert capsys.readouterr().err == "error: not a rational: '0.5'\n"

    def test_decimal_presentation_rejected(self, write, capsys):
        f = write("t", "tnorm v1\npiece 0.25 5e-1 P\n")
        assert main(["eval", f, "1/2", "1/2"]) == 2
        assert capsys.readouterr().err == "error: line 2: bad rational '0.25'\n"

    def test_negative_x_rejected_as_a_number(self, write, capsys):
        assert main(["eval", write("t", LUK_TEXT), "-1/2", "1/2"]) == 2
        assert capsys.readouterr().err == "error: not a rational: '-1/2'\n"

    def test_negative_y_rejected_as_a_number(self, write, capsys):
        assert main(["eval", write("t", LUK_TEXT), "1/2", "-1/2"]) == 2
        assert capsys.readouterr().err == "error: not a rational: '-1/2'\n"

    def test_non_reduced_point_accepted(self, write, capsys):
        assert main(["eval", write("t", PAIR_A_TEXT), "6/16", "3/8"]) == 0
        assert capsys.readouterr().out == "5/16\n"

    def test_empty_lazy_truncation(self, write, capsys):
        f = write("t", "tnorm v1\nfamily limit-left\n")
        assert main(["eval", f, "1/2", "1/2", "0"]) == 3


class TestAxioms:
    def test_finite_clean(self, write, capsys):
        assert main(["axioms", write("t", PAIR_A_TEXT)]) == 0
        out = capsys.readouterr().out
        assert out == "axioms checked=63084 violations=0\n"

    def test_lazy_runs_on_truncation(self, write, capsys):
        f = write("t", "tnorm v1\nfamily limit-left\n")
        assert main(["axioms", f]) == 0
        assert "violations=0" in capsys.readouterr().out

    def test_bad_header(self, write, capsys):
        assert main(["axioms", write("t", "tnorm v2\n")]) == 2


class TestSignature:
    def test_finite_dump(self, write, capsys):
        assert main(["signature", write("t", PAIR_A_TEXT)]) == 0
        assert capsys.readouterr().out == (
            "signature v1 complete=true depth=-\n"
            "M 0 1/4\n"
            "P 1/4 1/2\n"
            "L 1/2 3/4\n"
            "M 3/4 1\n"
        )

    def test_lazy_dump_at_depth(self, write, capsys):
        f = write("t", "tnorm v1\nfamily theta omega\n")
        assert main(["signature", f, "2"]) == 0
        assert capsys.readouterr().out == (
            "signature v1 complete=false depth=2\n"
            "M 0 1/3\n"
            "P 1/3 2/3\n"
            "M 2/3 7/9\n"
            "P 7/9 8/9\n"
        )


class TestIso:
    def test_ladders_not_iso(self, write, capsys):
        a = write("a", "tnorm v1\nfamily limit-left\n")
        b = write("b", "tnorm v1\nfamily limit-right\n")
        assert main(["iso", a, b]) == 0
        assert capsys.readouterr().out == (
            "NOT_ISO MinimumExistsMismatch(P)\n"
            "  one side has a least entry labeled P; "
            "the other is certified to have no least entry\n"
        )

    @pytest.mark.parametrize("family_a, family_b, depth, expected", LAZY_NOT_ISO,
                             ids=["minimum", "maximum", "successor-pair", "density"])
    def test_lazy_not_iso(self, write, capsys, family_a, family_b, depth, expected):
        a = write("a", f"tnorm v1\nfamily {family_a}\n")
        b = write("b", f"tnorm v1\nfamily {family_b}\n")
        assert main(["iso", a, b, depth]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("other", ["limit-left", "theta omega", "cantor cantor:non-e"])
    @pytest.mark.parametrize("swap", [False, True], ids=["first", "second"])
    def test_greatest_entry_beyond_depth_one(self, write, capsys, other, swap):
        # the greatest entry of theta omega_plus_omega_star shows from two pieces on
        a = write("a", "tnorm v1\nfamily theta omega_plus_omega_star\n")
        b = write("b", f"tnorm v1\nfamily {other}\n")
        assert main(["iso", *((b, a) if swap else (a, b)), "1"]) == 0
        assert capsys.readouterr().out == LAZY_NOT_ISO[1][3]

    def test_finite_iso_prints_witness_map(self, write, capsys):
        a = write("a", PAIR_A_TEXT)
        b = write("b", PAIR_B_TEXT)
        assert main(["iso", a, b]) == 0
        assert capsys.readouterr().out == (
            "ISO\n"
            "  (0, 1/4) M ~ (0, 1/10) M\n"
            "  (1/4, 1/2) P ~ (1/10, 1/5) P\n"
            "  (1/2, 3/4) L ~ (1/5, 9/10) L\n"
            "  (3/4, 1) M ~ (9/10, 1) M\n"
            "  [0, 1/4] -> [0, 1/10]\n"
            "  [1/4, 1/2] -> [1/10, 1/5]\n"
            "  [1/2, 3/4] -> [1/5, 9/10]\n"
            "  [3/4, 1] -> [9/10, 1]\n"
        )

    def test_finite_not_iso(self, write, capsys):
        a = write("a", PAIR_A_TEXT)
        b = write("b", "tnorm v1\npiece 1/4 1/2 L\npiece 1/2 3/4 P\n")
        assert main(["iso", a, b]) == 0
        assert capsys.readouterr().out == (
            "NOT_ISO FiniteLabelSequenceMismatch(1)\n"
            "  label sequences first differ at position 1\n"
        )

    def test_undecided_pair_exits_four(self, write, capsys):
        a = write("a", "tnorm v1\nfamily limit-left\n")
        b = write("b", "tnorm v1\nfamily theta omega\n")
        assert main(["iso", a, b]) == 4
        assert capsys.readouterr().out == (
            "UNKNOWN depth=8\n"
            "  no certified invariant separates the presentations at this depth\n"
        )

    def test_mixed_finite_lazy_rejected(self, write, capsys):
        a = write("a", PAIR_A_TEXT)
        b = write("b", "tnorm v1\nfamily limit-left\n")
        assert main(["iso", a, b]) == 0
        assert capsys.readouterr().out == (
            "NOT_ISO CardinalityMismatch\n"
            "  one side has finitely many pieces; "
            "the other lists infinitely many disjoint pieces\n"
        )


class TestTheta:
    def test_finite_dump(self, write, capsys):
        assert main(["theta", write("t", PAIR_A_TEXT), "8"]) == 0
        assert capsys.readouterr().out == (
            "l1 v1 n=8 qualified=false\n"
            "rp: 3\n"
            "rl: 4\n"
            "rm: 0 1\n"
            "less: 0 1\n"
            "less: 0 3\n"
            "less: 0 4\n"
            "less: 3 1\n"
            "less: 3 4\n"
            "less: 4 1\n"
        )

    def test_lazy_dump(self, write, capsys):
        f = write("t", "tnorm v1\nfamily theta omega\n")
        assert main(["theta", f, "8", "8"]) == 0
        assert capsys.readouterr().out == (
            "l1 v1 n=8 qualified=true\n"
            "rp: 2\n"
            "rl:\n"
            "rm: 0 4\n"
            "less: 0 2\n"
            "less: 0 4\n"
            "less: 2 4\n"
        )


    def test_dump_beyond_the_line_budget_exits_before_formatting(
        self, write, monkeypatch, capsys
    ):
        def no_format(s):
            pytest.fail("the line count is checked before the dump is formatted")

        monkeypatch.setattr(ordsum.l1, "_l1_blocks", no_format)
        # 3,200 chain entries make 5,118,400 ordered pairs
        f = write("t", "tnorm v1\nfamily cantor cantor:svc\n")
        assert main(["theta", f, "1000000000000", "3200"]) == 3
        assert capsys.readouterr().err == (
            f"error: the dump's 5118400 less lines exceed the limit of {MAX_THETA_LESS_LINES}\n"
        )

    def test_dump_within_the_line_budget_is_written(self, write, monkeypatch):
        class LineCount(io.TextIOBase):  # stdout's writelines and flush, counting lines
            lines = 0

            def write(self, text):
                self.lines += text.count("\n")
                return len(text)

        sink = LineCount()
        monkeypatch.setattr(sys, "stdout", sink)
        # 2,000 chain entries: the header, three groups and 1,999,000 pairs
        f = write("t", "tnorm v1\nfamily cantor cantor:svc\n")
        assert main(["theta", f, "1000000000000", "2000"]) == 0
        assert sink.lines == 4 + 2000 * 1999 // 2

    @pytest.fixture
    def no_load(self, monkeypatch):
        def loaded(path):
            raise OSError("the file was read")

        monkeypatch.setattr(ordsum.presentations, "load_presentation", loaded)

    def test_size_over_the_limit_exits_before_the_file_is_read(self, no_load, capsys):
        n = MAX_THETA_SIZE + 1
        assert main(["theta", "unread.tnorm", str(n), "3200"]) == 3
        assert capsys.readouterr() == (
            "", f"error: size {n} exceeds the limit of {MAX_THETA_SIZE}\n"
        )

    def test_the_size_limit_itself_is_accepted(self, no_load, capsys):
        # reaching the file shows the limit passes the check
        assert main(["theta", "unread.tnorm", str(MAX_THETA_SIZE)]) == 2
        assert capsys.readouterr().err == "error: the file was read\n"


class TestFromLo:
    def test_omega_three(self, capsys):
        assert main(["from-lo", "omega", "3"]) == 0
        assert capsys.readouterr().out == "(1/3, 2/3)\n(7/9, 8/9)\n(25/27, 26/27)\n"

    def test_finite_spec(self, capsys):
        assert main(["from-lo", "finite:1,0", "2"]) == 0
        assert capsys.readouterr().out == "(1/3, 2/3)\n(1/9, 2/9)\n"

    def test_unknown_order(self, capsys):
        assert main(["from-lo", "sideways", "3"]) == 2

    def test_count_beyond_finite_order(self, capsys):
        assert main(["from-lo", "finite:1,0", "5"]) == 3

    # a repeated rank is malformed input, on the command line or in a file
    @pytest.mark.parametrize("spec", ["finite:0,0", "finite:2,1,02"])
    def test_repeated_rank_is_bad_input_everywhere(self, spec, write, capsys):
        f = write("t", f"tnorm v1\nfamily theta {spec}\n")
        for argv in (["from-lo", spec, "3"], ["signature", f, "3"], ["roundtrip", spec, "2"]):
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and "ranks must be distinct" in err, argv


class TestCantor:
    def test_non_e_depth_one(self, capsys):
        assert main(["cantor", "cantor:non-e", "1"]) == 0
        assert capsys.readouterr().out == (
            "gaps depth=1 count=2\n"
            "( 0 , 1/4 )\n"
            "( 1/2 , 3/4 )\n"
            "property_E false\n"
            "dense unknown\n"
            "has_min true\n"
            "has_max false\n"
            "successor_witness none\n"
        )

    def test_non_e_depth_zero_has_a_least_gap(self, capsys):
        # no gap is removed yet, but the rule certifies (0, 1/4) as least
        assert main(["cantor", "cantor:non-e", "0"]) == 0
        assert capsys.readouterr().out == (
            "gaps depth=0 count=0\n"
            "property_E false\n"
            "dense unknown\n"
            "has_min true\n"
            "has_max false\n"
            "successor_witness none\n"
        )

    def test_middle_third_depth_two(self, capsys):
        assert main(["cantor", "cantor:middle-third", "2"]) == 0
        assert capsys.readouterr().out == (
            "gaps depth=2 count=3\n"
            "( 1/9 , 2/9 )\n"
            "( 1/3 , 2/3 )\n"
            "( 7/9 , 8/9 )\n"
            "property_E true\n"
            "dense true\n"
            "has_min false\n"
            "has_max false\n"
            "successor_witness none\n"
        )

    def test_non_e_depth_two_shows_a_successor_pair(self, capsys):
        assert main(["cantor", "cantor:non-e", "2"]) == 0
        assert capsys.readouterr().out == (
            "gaps depth=2 count=6\n"
            "( 0 , 1/4 )\n"
            "( 1/4 , 5/16 )\n"
            "( 3/8 , 7/16 )\n"
            "( 1/2 , 3/4 )\n"
            "( 3/4 , 13/16 )\n"
            "( 7/8 , 15/16 )\n"
            "property_E false\n"
            "dense false\n"
            "has_min true\n"
            "has_max false\n"
            "successor_witness ( 0 , 1/4 ) ( 1/4 , 5/16 )\n"
        )

    def test_svc_depth_two(self, capsys):
        assert main(["cantor", "cantor:svc", "2"]) == 0
        assert capsys.readouterr().out == (
            "gaps depth=2 count=3\n"
            "( 5/32 , 7/32 )\n"
            "( 3/8 , 5/8 )\n"
            "( 25/32 , 27/32 )\n"
            "property_E true\n"
            "dense true\n"
            "has_min false\n"
            "has_max false\n"
            "successor_witness none\n"
        )

    def test_bad_system(self, capsys):
        assert main(["cantor", "svc", "2"]) == 2

    def test_a_dump_of_several_blocks_is_written_whole(self, capsys):
        # non-e at depth 12 removes 8,190 gaps: the command writes more
        # than one block of lines
        assert main(["cantor", "cantor:non-e", "12"]) == 0
        want = "".join(format_gap_order(parse_system("cantor:non-e"), 12))
        assert capsys.readouterr().out == want and want.count("\n") == 8190 + 6

    def test_depth_over_the_cap(self, capsys):
        assert main(["cantor", "cantor:svc", "1000000000"]) == 3
        assert capsys.readouterr().err == "error: depth 1000000000 exceeds the limit of 16\n"


class TestRoundtrip:
    def test_omega_eight(self, capsys):
        assert main(["roundtrip", "omega", "8"]) == 0
        assert capsys.readouterr().out == (
            "pieces 8 size 3273771\n"
            "recovered 0 1 2 3 4 5 6 7\n"
            "expected 0 1 2 3 4 5 6 7\n"
            "PASS\n"
        )

    def test_omega_star_reverses(self, capsys):
        assert main(["roundtrip", "omega_star", "4"]) == 0
        out = capsys.readouterr().out
        assert "recovered 3 2 1 0\n" in out
        assert out.endswith("PASS\n")

    def test_finite_order(self, capsys):
        assert main(["roundtrip", "finite:2,0,1", "3"]) == 0
        out = capsys.readouterr().out
        assert "recovered 1 2 0\n" in out
        assert out.endswith("PASS\n")

    def test_every_small_finite_order_and_count(self, capsys):
        # a count below the size encodes only the first `count` elements
        for size in range(1, 6):
            for ranks in permutations(range(size)):
                spec = "finite:" + ",".join(map(str, ranks))
                for count in range(1, size + 1):
                    assert main(["roundtrip", spec, str(count)]) == 0, (spec, count)
                    assert capsys.readouterr().out.endswith("PASS\n")
        assert main(["roundtrip", "finite:0,1,3,2", "5"]) == 3

    def test_one_counter_serves_the_command(self, monkeypatch, capsys):
        # the witnesses' indices and theta's share one sieve and one memo
        made = []
        init = _IndexCounter.__init__

        def counting_init(self, max_denominator):
            made.append(max_denominator)
            init(self, max_denominator)

        monkeypatch.setattr(_IndexCounter, "__init__", counting_init)
        assert main(["roundtrip", "omega", "13"]) == 0
        assert made == [797162]
        assert capsys.readouterr().out.endswith("PASS\n")

    # a finite order's first pieces have the same denominators as omega's
    ROUNDTRIP_ORDERS = ["omega", "eta", "finite:" + ",".join(map(str, range(MAX_ROUNDTRIP_PIECES + 1)))]

    @pytest.mark.parametrize("order", ROUNDTRIP_ORDERS)
    def test_over_the_limit_exits_before_any_piece(self, order, no_pieces, capsys):
        n = MAX_ROUNDTRIP_PIECES + 1
        assert main(["roundtrip", order, str(n)]) == 3
        assert capsys.readouterr() == (
            "", f"error: count {n} exceeds the limit of {MAX_ROUNDTRIP_PIECES} pieces\n"
        )

    @pytest.mark.parametrize("order", ROUNDTRIP_ORDERS)
    def test_the_limit_itself_is_accepted(self, order, no_pieces, capsys):
        # reaching the placement shows the limit passes the check
        assert main(["roundtrip", order, str(MAX_ROUNDTRIP_PIECES)]) == 2
        assert capsys.readouterr().err == "error: a piece was placed\n"


class TestSurface:
    def test_finite_grid(self, write, capsys):
        assert main(["surface", write("t", LUK_TEXT), "5"]) == 0
        assert capsys.readouterr().out == (
            ",0,1/4,1/2,3/4,1\n"
            "0,0,0,0,0,0\n"
            "1/4,0,0,0,0,1/4\n"
            "1/2,0,0,0,1/4,1/2\n"
            "3/4,0,0,1/4,1/2,3/4\n"
            "1,0,1/4,1/2,3/4,1\n"
        )

    def test_lazy_grid_uses_truncation(self, write, capsys):
        f = write("t", "tnorm v1\nfamily limit-left\n")
        assert main(["surface", f, "3"]) == 0
        assert capsys.readouterr().out == (
            ",0,1/2,1\n"
            "0,0,0,0\n"
            "1/2,0,1/2,1/2\n"
            "1,0,1/2,1\n"
        )

    def test_degenerate_grid(self, write, capsys):
        assert main(["surface", write("t", LUK_TEXT), "1"]) == 3

    @pytest.mark.parametrize("grid", ["0", "1", str(MAX_SURFACE_GRID + 1), "10000000"])
    def test_grid_outside_the_budget_exits_before_loading(self, grid, monkeypatch, capsys):
        def no_load(path):
            pytest.fail("the grid is checked before the file is loaded")

        monkeypatch.setattr(ordsum.presentations, "load_presentation", no_load)
        assert main(["surface", "unread.tnorm", grid]) == 3
        assert capsys.readouterr().err.startswith("error: grid")

    def test_grid_at_the_budget_is_accepted(self, monkeypatch, capsys):
        # reaching the loader shows the limit itself passes the check
        def missing(path):
            raise OSError("loader reached")

        monkeypatch.setattr(ordsum.presentations, "load_presentation", missing)
        assert main(["surface", "unread.tnorm", str(MAX_SURFACE_GRID)]) == 2
        assert capsys.readouterr().err == "error: loader reached\n"

    @pytest.mark.parametrize(
        "text",
        [
            # 1/3, 5/9 and 8/9 are grid points, and 1/3 is a shared endpoint
            "tnorm v1\npiece 0 1/3 L\npiece 1/3 5/9 P\npiece 8/9 1 P\n",
            "tnorm v1\nfamily limit-right\n",
        ],
    )
    def test_cells_run_the_piece_formula_only_in_x_piece(self, text, write, monkeypatch, capsys):
        f = write("t", text)
        t = load_presentation(f).truncation(LAZY_TRUNCATION)
        spans = [(p.lo, p.hi) for p in t.pieces]
        pts = [F(i, 99) for i in range(100)]
        want = 0
        for x in pts:
            # x reads the formula of the last piece whose closure holds it
            holders = [(lo, hi) for lo, hi in spans if lo <= x <= hi]
            if holders:
                lo, hi = holders[-1]
                want += sum(lo <= y <= hi for y in pts)
        assert want > 0

        calls = {"eval": 0, "formula": 0}
        eval_, rows_ = FinitePresentation.eval, FinitePresentation._rows

        def counted_eval(self, x, y):
            calls["eval"] += 1
            return eval_(self, x, y)

        def counted_rows(self, pts, off, cell):
            # a formula cell is made by `cell`, an off-piece one is copied
            def counted(n, den):
                calls["formula"] += 1
                return cell(n, den)

            return rows_(self, pts, off, counted)

        monkeypatch.setattr(FinitePresentation, "eval", counted_eval)
        monkeypatch.setattr(FinitePresentation, "_rows", counted_rows)
        assert main(["surface", f, "100"]) == 0
        assert calls == {"eval": 0, "formula": want}


# each lazy command and the word its piece count is named by; "{n}" is
# the count, "{zeta}" and "{eta}" are family files
LAZY_PIECE_COMMANDS = [
    ("pieces", ["eval", "{zeta}", "1/3", "1/3", "{n}"]),
    ("depth", ["signature", "{zeta}", "{n}"]),
    ("depth", ["theta", "{zeta}", "1000000000000", "{n}"]),
    ("depth", ["iso", "{zeta}", "{eta}", "{n}"]),
    ("count", ["from-lo", "omega", "{n}"]),
]


class TestLazyPieceBudget:
    @pytest.fixture
    def argv(self, write):
        files = {
            "zeta": write("zeta", "tnorm v1\nfamily theta zeta\n"),
            "eta": write("eta", "tnorm v1\nfamily theta eta\n"),
            "pair_a": write("pair_a", PAIR_A_TEXT),
        }
        return lambda words, n: [w.format(n=n, **files) for w in words]

    # a finite side against a lazy one builds no piece, but the depth of
    # a lazy side is bounded all the same
    @pytest.mark.parametrize(
        "what, words", LAZY_PIECE_COMMANDS + [("depth", ["iso", "{pair_a}", "{zeta}", "{n}"])]
    )
    def test_over_the_limit_exits_before_any_piece(self, what, words, argv, no_pieces, capsys):
        n = MAX_LAZY_PIECES + 1
        assert main(argv(words, n)) == 3
        assert capsys.readouterr() == (
            "", f"error: {what} {n} exceeds the limit of {MAX_LAZY_PIECES} pieces\n"
        )

    @pytest.mark.parametrize("what, words", LAZY_PIECE_COMMANDS)
    def test_the_limit_itself_is_accepted(self, what, words, argv, no_pieces, capsys):
        # reaching the placement shows the limit passes the check
        assert main(argv(words, MAX_LAZY_PIECES)) == 2
        assert capsys.readouterr().err == "error: a piece was placed\n"

    # a lazy side below one piece gets one refusal, whichever command reads it
    @pytest.mark.parametrize("words", [words for _, words in LAZY_PIECE_COMMANDS[:4]])
    @pytest.mark.parametrize("n", [0, -5])
    def test_a_lazy_depth_below_one_is_refused_alike(self, words, n, argv, no_pieces, capsys):
        assert main(argv(words, n)) == 3
        assert capsys.readouterr() == (
            "", "error: a lazy presentation needs a depth of at least one piece\n"
        )

    @pytest.mark.parametrize(
        "words",
        [
            ["eval", "{pair_a}", "3/8", "3/8", "{n}"],
            ["signature", "{pair_a}", "{n}"],
            ["theta", "{pair_a}", "8", "{n}"],
            ["iso", "{pair_a}", "{pair_a}", "{n}"],
        ],
    )
    def test_a_finite_presentation_ignores_the_count(self, words, argv, capsys):
        assert main(argv(words[:-1], None)) == 0
        default = capsys.readouterr()
        assert default.err == ""
        for n in (10**9, 0, -5):
            assert main(argv(words, n)) == 0
            assert capsys.readouterr() == default, n


# each path a number takes in, with "{0}" for it and "@" for a file that
# holds the text given, or PAIR_A_TEXT
NUMBER_PATHS = [
    ("integer word", None, ["signature", "@", "{0}"]),
    ("x, numerator and denominator", None, ["eval", "@", "{0}/{0}", "1/3"]),
    ("y, denominator", None, ["eval", "@", "1/3", "1/{0}"]),
    ("finite rank", None, ["from-lo", "finite:0,{0}", "2"]),
    ("file endpoint", "tnorm v1\npiece 1/{0} 1/2 P\n", ["eval", "@", "1/3", "1/3"]),
    ("file rank", "tnorm v1\nfamily theta finite:1,{0}\n", ["eval", "@", "1/3", "1/3"]),
]


class TestDigitBudget:
    @pytest.mark.parametrize("text, words", [p[1:] for p in NUMBER_PATHS],
                             ids=[p[0] for p in NUMBER_PATHS])
    def test_max_digits_is_read_and_one_more_is_not(self, text, words, write, capsys):
        # 4,301 digits is past what int(str) itself refuses, with its own message
        for digits, code in ((MAX_DIGITS, 0), (MAX_DIGITS + 1, 3), (4301, 3)):
            number = "9" * digits
            path = write("n", (text or PAIR_A_TEXT).format(number))
            assert main([path if w == "@" else w.format(number) for w in words]) == code
            out, err = capsys.readouterr()
            if code == 3:
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1
                assert err.endswith(f"a number of {digits} digits exceeds the limit of {MAX_DIGITS}\n")

    def test_a_value_at_the_cap_prints_in_full(self, write, capsys):
        # its integers have about three times MAX_DIGITS digits, far below
        # the 4,300 that int(str) and str(int) refuse by default
        d = 10 ** (MAX_DIGITS - 1) + 7
        lo, hi, x, y = F(1, d), F(1, 2), F(1, d - 5), F(1, 3)
        path = write("cap", f"tnorm v1\npiece {lo} {hi} P\n")
        assert main(["eval", path, str(x), str(y)]) == 0
        assert capsys.readouterr().out == f"{lo + (x - lo) * (y - lo) / (hi - lo)}\n"

    def test_help_wins_over_a_long_word(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["theta", "-h", "1" * (MAX_DIGITS + 1)])
        assert (info.value.code, capsys.readouterr().err) == (0, "")


# each path a finite order spec takes in, with "{spec}" for it and "@" for
# a file that holds it in a `family theta` line
RANK_PATHS = [
    ["from-lo", "{spec}", "1"],
    ["roundtrip", "{spec}", "1"],
    ["signature", "@"],
    ["iso", "@", "@"],
]


class TestFiniteRankBudget:
    @pytest.fixture
    def argv(self, write):
        def argv(words, ranks):
            spec = "finite:" + ",".join(map(str, range(ranks)))
            path = write("order", f"tnorm v1\nfamily theta {spec}\n")
            return [path if w == "@" else w.format(spec=spec) for w in words]

        return argv

    @pytest.mark.parametrize("words", RANK_PATHS)
    def test_the_limit_itself_is_accepted(self, words, argv, no_pieces, capsys):
        # reaching the placement shows the spec passes the check
        assert main(argv(words, MAX_LAZY_PIECES)) == 2
        assert capsys.readouterr().err == "error: a piece was placed\n"

    @pytest.mark.parametrize("words", RANK_PATHS)
    def test_one_rank_more_exits_before_the_order_is_built(self, words, argv, monkeypatch, capsys):
        def built(ranks):
            raise AssertionError("the order was built")

        monkeypatch.setattr(ordsum.orders, "FiniteOrder", built)
        n = MAX_LAZY_PIECES + 1
        assert main(argv(words, n)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"{n} ranks exceed the limit of {MAX_LAZY_PIECES}\n")


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# each command with a word missing, a word too many, and one integer
# word replaced by "{n}"
USAGE_COMMANDS = [
    ("eval", ["eval", "t", "1/2"], ["eval", "t", "1/2", "1/2", "12", "1"],
     ["eval", "t", "1/2", "1/2", "{n}"]),
    ("signature", ["signature"], ["signature", "t", "8", "1"], ["signature", "t", "{n}"]),
    ("iso", ["iso", "t"], ["iso", "t", "t", "8", "1"], ["iso", "t", "t", "{n}"]),
    ("theta", ["theta", "t"], ["theta", "t", "8", "12", "1"], ["theta", "t", "{n}"]),
    ("from-lo", ["from-lo", "omega"], ["from-lo", "omega", "3", "1"], ["from-lo", "omega", "{n}"]),
    ("cantor", ["cantor"], ["cantor", "cantor:svc", "2", "1"], ["cantor", "cantor:svc", "{n}"]),
    ("roundtrip", ["roundtrip", "omega"], ["roundtrip", "omega", "3", "1"],
     ["roundtrip", "omega", "{n}"]),
    ("surface", ["surface", "t"], ["surface", "t", "5", "1"], ["surface", "t", "{n}"]),
]


class TestUsage:
    @staticmethod
    def usage_error(argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        assert err.startswith("usage: ordsum")
        return err

    def test_unknown_command(self, capsys):
        err = self.usage_error(["sideways", "omega", "3"], capsys)
        assert err.endswith("ordsum: error: unknown command 'sideways'\n")

    @pytest.mark.parametrize("words", [c[1] for c in USAGE_COMMANDS] + [["axioms"]],
                             ids=[c[0] for c in USAGE_COMMANDS] + ["axioms"])
    def test_missing_word(self, words, capsys):
        assert "ordsum: error: missing " in self.usage_error(words, capsys)

    @pytest.mark.parametrize("words", [c[2] for c in USAGE_COMMANDS] + [["axioms", "t", "1"]],
                             ids=[c[0] for c in USAGE_COMMANDS] + ["axioms"])
    def test_extra_word(self, words, capsys):
        assert self.usage_error(words, capsys).endswith("ordsum: error: unexpected 1\n")

    # int() takes the first four and str.isdigit the fourth and fifth; an
    # integer word is ASCII digits after an optional minus sign
    @pytest.mark.parametrize("word", ["1_2", "+12", " 12", "١٢", "²", "--1", "-", "", "1.0"])
    @pytest.mark.parametrize("words", [c[3] for c in USAGE_COMMANDS],
                             ids=[c[0] for c in USAGE_COMMANDS])
    def test_non_integer_count(self, words, word, capsys):
        argv = [w.format(n=word) for w in words]
        err = self.usage_error(argv, capsys)
        assert err.endswith(f"is not an integer: {word!r}\n")

    def test_a_negative_count_reaches_the_command(self, capsys):
        assert main(["from-lo", "omega", "-1"]) == 3
        assert capsys.readouterr() == ("", "error: need at least one interval\n")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_every_command(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main([flag])
        out, err = capsys.readouterr()
        assert (info.value.code, err) == (0, "")
        assert out.startswith("usage: ordsum COMMAND WORD...\n")
        assert [line.split()[0] for line in out.splitlines() if line.startswith("  ")] == [
            "eval", "axioms", "signature", "iso", "theta", "from-lo", "cantor", "roundtrip",
            "surface",
        ]

    # -h wins over a missing word and over a word that is not an integer
    @pytest.mark.parametrize("argv", [["theta", "-h"], ["theta", "t", "x", "--help"]])
    def test_command_help_shows_its_words(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr() == (
            "usage: ordsum theta FILE SIZE [DEPTH=12]\n\n"
            "index structure dump at truncation size SIZE; a lazy presentation "
            "to DEPTH pieces\n",
            "",
        )


# a dump far longer than a pipe holds, so the command meets the closed end
@pytest.mark.parametrize("words", [["cantor", "cantor:non-e", "16"], ["signature", "{zeta}", "2000"]],
                         ids=["cantor", "signature"])
def test_a_reader_that_closes_stdout_ends_the_command_quietly(words, write):
    argv = [w.format(zeta=write("zeta", "tnorm v1\nfamily theta zeta\n")) for w in words]
    env = dict(os.environ, PYTHONPATH=str(Path(ordsum.l1.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "ordsum.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")
    assert first.startswith((b"gaps depth=16 ", b"signature v1 "))


# a write error other than a closed pipe is exit 5, with one line on stderr
# (README); stdout may already hold part of the output
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("words", [["from-lo", "omega", "3"], ["cantor", "cantor:non-e", "12"]],
                         ids=["from-lo", "cantor"])
def test_a_full_device_on_stdout_exits_5(words):
    env = dict(os.environ, PYTHONPATH=str(Path(ordsum.l1.__file__).parents[1]))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "ordsum.cli", *words], env=env,
                              stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert done.returncode == 5
    assert re.fullmatch(rb"error: [^\n]+\n", done.stderr), done.stderr


# Exit-code fuzz: every command with words drawn from its grammar, the
# values near it, and each cap + 1; never a valid value near a cap
RATIONALS = ["0", "1", "1/3", "2/6", "3/8", "5/12", "1/1"]
ORDERS = ["omega", "omega_star", "zeta", "eta", "omega_plus_omega_star", "finite:2,0,1"]
SYSTEMS = ["cantor:middle-third", "cantor:svc", "cantor:non-e"]
FAMILIES = ["limit-left", "limit-right", "theta omega", "theta eta", "theta zeta",
            "theta finite:1,0", "cantor cantor:svc", "cantor cantor:non-e"]
PRESENTATIONS = [PAIR_A_TEXT, PAIR_B_TEXT, LUK_TEXT, "tnorm v1\npiece 0 1 P\n"] + [
    f"tnorm v1\nfamily {family}\n" for family in FAMILIES
]
# each integer word's cap per command, MAX_LAZY_PIECES where none is named
CAPS = {("theta", "size"): MAX_THETA_SIZE, ("cantor", "depth"): MAX_EXPAND_DEPTH,
        ("roundtrip", "count"): MAX_ROUNDTRIP_PIECES, ("surface", "grid"): MAX_SURFACE_GRID}


def one_edit(base, alphabet):
    """Strings one insertion, deletion or replacement away from `base`."""
    def edit(i, kind, c):
        i %= len(base) + (kind == "insert")
        return base[:i] + ("" if kind == "delete" else c) + base[i + (kind != "insert"):]

    return st.builds(edit, st.integers(0, 40), st.sampled_from(["insert", "delete", "replace"]),
                     st.sampled_from(alphabet))


def near(values, alphabet):
    """A value drawn from `values`, edited once in a third of the draws."""
    return st.sampled_from(values).flatmap(
        lambda v: st.one_of(st.just(v), st.just(v), one_edit(v, alphabet)))


# an integer word's edits add no digit, so an edited value stays small;
# long numbers come from LONG_WORDS
INTEGER_EDITS = list("-+_ .x") + ["\u0661", "\u00b2"]
RATIONAL_WORDS = near(RATIONALS, list("0123456789/-+. e") + ["\u0661"])
TEXT_WORDS = {
    "x": RATIONAL_WORDS,
    "y": RATIONAL_WORDS,
    "order": near(ORDERS, list("0123456789,:_-a ")),
    "system": near(SYSTEMS, list("cantor:-e ")),
}
MUTATIONS = {
    "crlf": lambda t, i, b: t.replace(b"\n", b"\r\n"),
    "bom": lambda t, i, b: "\ufeff".encode() + t,
    "blanks": lambda t, i, b: t.replace(b"\n", b" \t\n", 1) + b"\n  \n",
    "stray byte": lambda t, i, b: t[: i % (len(t) + 1)] + b + t[i % (len(t) + 1):],
    "duplicated line": lambda t, i, b: b"".join(
        (lines := t.splitlines(keepends=True))[: i % len(lines) + 1] + lines[i % len(lines):]),
}


def mutated(text, edits):
    for name, i, b in edits:
        text = MUTATIONS[name](text, i, b)
    return text


presentations = st.builds(
    mutated,
    st.sampled_from(PRESENTATIONS).map(str.encode),
    st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 60),
                       st.sampled_from([b"\x00", b"\xff", b"\xc3", b" ", b"#", b"1", b"/", b"-"])),
             max_size=2),
)


def word(command, name):
    if name in INTEGER_WORDS:
        small = st.integers(1, 40 if name == "size" else 6).map(str)
        low = st.integers(-2, 0).map(str)
        cap = st.just(str(CAPS.get((command, name), MAX_LAZY_PIECES) + 1))
        return st.one_of(small, small, small, low, cap,
                         small.flatmap(lambda v: one_edit(v, INTEGER_EDITS)))
    return TEXT_WORDS[name]


# each word that holds a number, written with "{}" for it: the fuzz puts
# a number past the digit budget there, of MAX_DIGITS + 1 digits or past
# the 4,300 that int(str) refuses, and reruns the command with "1" there
LONG_WORDS = {
    "x": ["{0}", "1/{0}", "{0}/{0}"],
    "y": ["{0}", "1/{0}", "{0}/{0}"],
    "order": ["finite:{}", "finite:0,{}"],
    "file": ["tnorm v1\npiece 0/{} 1/2 P\n", "tnorm v1\npiece 1/4 1/{} L\n",
             "tnorm v1\nfamily theta finite:0,{}\n"],
    **{name: ["{}", "-{}"] for name in INTEGER_WORDS},
}
LONG_NUMBERS = st.builds(str.__mul__, st.sampled_from("0123456789"),
                         st.sampled_from([MAX_DIGITS + 1, 4301]))


def run_main(argv):
    """(exit code, stdout, stderr) of main in process; a SystemExit's code as ("exit", code)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_every_command_keeps_the_exit_code_contract(fuzz_dir, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    _, _, names, defaults = COMMANDS[command]
    argv, short, long = [command], [command], False  # short: each long number cut to "1"
    for name in names[: data.draw(st.integers(len(names) - len(defaults), len(names)))]:
        kind = "file" if name.startswith("file") else name
        if kind in LONG_WORDS and data.draw(st.integers(0, 5)) == 0:
            long = True
            template = data.draw(st.sampled_from(LONG_WORDS[kind]))
            words = [template.format(data.draw(LONG_NUMBERS)), template.format("1")]
        elif kind == "file":
            words = [data.draw(presentations)] * 2
        else:
            words = [data.draw(word(command, name))] * 2
        if kind == "file":
            paths = [fuzz_dir / f"{len(argv)}{side}.tnorm" for side in ("", "short")]
            for path, text in zip(paths, words):
                path.write_bytes(text if isinstance(text, bytes) else text.encode())
            missing = data.draw(st.sampled_from([False, False, True]))
            words = ["missing.tnorm"] * 2 if missing else [str(path) for path in paths]
        argv.append(words[0])
        short.append(words[1])
    code, out, err = first = run_main(argv)
    assert run_main(argv) == first
    if long:
        # a long number never lets a run through: it exits 3 where the same
        # run with short numbers gets past it, and at worst 2 where that one
        # meets a malformed word
        short_code = run_main(short)[0]
        assert code == 3 or (code in (2, ("exit", 2)) and short_code in (2, ("exit", 2))), (
            code, short_code, err[:200])
        if short_code in (0, 1, 4):
            assert f"digits exceeds the limit of {MAX_DIGITS}\n" in err
    if isinstance(code, tuple):  # only _parse exits, on a usage error
        assert (code, out) == (("exit", 2), "") and err.startswith("usage: ordsum")
    elif code in (2, 3):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1, 4) and err == ""
