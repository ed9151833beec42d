"""Command-level tests: golden outputs and exit codes."""

import pytest

from ordsum.cli import main

PAIR_A_TEXT = "tnorm v1\npiece 1/4 1/2 P\npiece 1/2 3/4 L\n"
PAIR_B_TEXT = "tnorm v1\npiece 1/10 1/5 P\npiece 1/5 9/10 L\n"
LUK_TEXT = "tnorm v1\npiece 0 1 L\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


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
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "NOT_ISO MinimumExistsMismatch(P)"

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
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "NOT_ISO FiniteLabelSequenceMismatch(1)"
        assert "position 1" in lines[1]

    def test_undecided_pair_exits_four(self, write, capsys):
        a = write("a", "tnorm v1\nfamily limit-left\n")
        b = write("b", "tnorm v1\nfamily theta omega\n")
        assert main(["iso", a, b]) == 4
        assert capsys.readouterr().out.splitlines()[0] == "UNKNOWN depth=8"

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

    def test_bad_system(self, capsys):
        assert main(["cantor", "svc", "2"]) == 2


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


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
