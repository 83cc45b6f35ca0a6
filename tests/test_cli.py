"""Parser round-trips, fuzzed files, exit codes, JSON schema conformance."""

import ast
import contextlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import textwrap
import types
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ratho import character
from ratho.cli import corpus
from ratho.cli.main import _COMMANDS, _build_parser, main
from ratho.cli.parser import MAX_NESTING, ParseError, parse, print_model
from ratho.core_algebra import GeneratorSet, basis_of_degree
from ratho.dgca import check_d_squared


# -- grammar ------------------------------------------------------------------

def test_handwritten_s4_matches_corpus():
    mf = parse("algebra S4 { gen w4:4; gen w7:7; d w7 = -w4*w4; }")
    _, A = mf.first_algebra()
    B = corpus.algebra("s4")
    assert A.gens == B.gens
    assert A.d == B.d


def test_trailing_star_is_a_syntax_error():
    with pytest.raises(ParseError) as exc:
        parse("algebra S4 { gen w4:4; gen w7:7; d w7 = -w4*w4*; }")
    assert exc.value.line == 1
    assert exc.value.col > 40


def test_odd_square_rejected():
    with pytest.raises(ParseError, match="squared"):
        parse("algebra X { gen x:3; gen y:7; d y = x*x; }")
    with pytest.raises(ParseError, match="power on odd"):
        parse("algebra X { gen x:3; gen y:7; d y = x^2; }")


def test_unknown_generator_position():
    with pytest.raises(ParseError) as exc:
        parse("algebra A {\n  gen a:3;\n  d a = b;\n}")
    assert exc.value.line == 3
    assert "'b'" in exc.value.message


def test_inhomogeneous_differential_rejected():
    with pytest.raises(ParseError, match="homogeneous"):
        parse("algebra A { gen a:2; d a = a; }")


def test_reserved_name_and_duplicates():
    with pytest.raises(ParseError, match="reserved"):
        parse("algebra A { gen d:3; }")
    with pytest.raises(ParseError, match="already declared"):
        parse("algebra A { gen a:2; gen a:3; }")
    with pytest.raises(ParseError, match="already declared"):
        parse("algebra A { gen a:2; } algebra A { gen b:2; }")


def test_qualifier_needed_with_several_algebras():
    parse("algebra A { gen a:2; } twist t = a;")
    with pytest.raises(ParseError, match="ALGEBRA"):
        parse("algebra A { gen a:2; } algebra B { gen u:2; } twist t = a;")
    mf = parse("algebra A { gen a:2; } algebra B { gen u:2; } "
               "twist t : B = u;")
    assert mf.twists["t"].algebra == "B"


def test_differential_may_precede_generator():
    mf = parse("algebra A { d y = -x^2; gen x:2; gen y:3; }")
    _, A = mf.first_algebra()
    assert not A.d["y"].is_zero()


@pytest.mark.parametrize("name", corpus.names())
def test_corpus_roundtrip(name):
    mf = corpus.load(name)
    assert parse(print_model(mf)) == mf


@pytest.mark.parametrize("name", corpus.names())
def test_corpus_entry_sound_and_cited(name):
    assert check_d_squared(corpus.algebra(name)).passed
    assert corpus.entry(name)["citation"]


# -- fuzzed round-trips -------------------------------------------------------

def _random_expr(rng, gens, degree):
    basis = basis_of_degree(gens, degree)
    if not basis:
        return None
    p = gens.zero()
    for expo in rng.sample(basis, min(len(basis), rng.randint(1, 2))):
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                     rng.choice([1, 1, 2, 4]))
        p = p + gens.from_exponents(expo, c)
    return p


def _fuzz_text(rng, tag):
    lines = []
    made = {}
    for ai in range(rng.randint(1, 2)):
        name = "A%s_%d" % (tag, ai)
        pairs = [("g%d_%d" % (ai, i), rng.randint(1, 6))
                 for i in range(rng.randint(1, 4))]
        gens = GeneratorSet(pairs)
        made[name] = gens
        if rng.random() < 0.3:
            lines.append("# block %s" % name)
        lines.append("algebra %s {" % name)
        for g, deg in pairs:
            lines.append("  gen %s:%d;" % (g, deg))
        for g, deg in pairs:
            if rng.random() < 0.5:
                p = _random_expr(rng, gens, deg + 1)
                if p is not None:
                    lines.append("  d %s = %s;" % (g, p))
        lines.append("}")
    names = list(made)
    if len(names) == 2 and rng.random() < 0.7:
        src, tgt = rng.sample(names, 2)
        lines.append("morphism f%s : %s -> %s {" % (tag, src, tgt))
        for g in made[src].names:
            p = _random_expr(rng, made[tgt], made[src].degree_of(g))
            lines.append("  %s = %s;" % (g, p if p is not None else "0"))
        lines.append("}")
    if rng.random() < 0.5:
        which = rng.choice(names)
        cols = rng.randint(1, 2)
        lines.append("matrix m%s : %s {" % (tag, which))
        for _ in range(rng.randint(1, 2)):
            entries = []
            for _ in range(cols):
                p = _random_expr(rng, made[which], 2)
                entries.append(str(p) if p is not None else "0")
            lines.append("  [%s];" % ", ".join(entries))
        lines.append("}")
    if rng.random() < 0.5:
        which = rng.choice(names)
        deg = rng.choice([1, 3, 5])
        p = _random_expr(rng, made[which], deg)
        if p is not None:
            lines.append("twist t%s : %s = %s;" % (tag, which, p))
    return "\n".join(lines) + "\n"


def test_fuzzed_roundtrip_100_files():
    rng = random.Random(414243)
    for k in range(100):
        text = _fuzz_text(rng, str(k))
        mf = parse(text)
        assert parse(print_model(mf)) == mf


# -- command exit codes -------------------------------------------------------

def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passes_on_corpus_file(capsys):
    code, out, _ = _run(["check", "corpus:s4"], capsys)
    assert code == 0
    assert "d^2 = 0" in out


def test_check_fails_on_broken_differential(tmp_path, capsys):
    f = tmp_path / "bad.dgca"
    f.write_text("algebra A { gen a:2; gen b:3; gen c:4; "
                 "d b = a^2; d c = a*b; }")
    code, out, _ = _run(["check", str(f)], capsys)
    assert code == 1
    assert "d^2 != 0" in out


@pytest.mark.parametrize("argv", [
    ["brackets"],
    ["cohomology"],
    ["minimal-model"],
    ["line-quotient", "--max-degree", "1"],
    ["twisted-cohomology", "--period", "1", "--max-degree", "6"],
    ["twisted-op", "wedge-twist", "T", "--period", "1", "--max-degree", "6"],
], ids=lambda argv: argv[0])
def test_commands_on_broken_differential_exit_1(argv, tmp_path, capsys):
    f = tmp_path / "bad.dgca"
    f.write_text("algebra A { gen a:2; gen b:3; gen c:4; "
                 "d b = a^2; d c = a*b; }\ntwist T : A = a;\n")
    code, out, err = _run(argv + [str(f)], capsys)
    assert (code, out, err) == (1, "A: d^2 != 0 (d^2(c) = a^3)\n", "")
    code, out, _ = _run(argv + ["--json", str(f)], capsys)
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, _schema())
    assert payload["result"] == {"passed": False, "algebras": {"A": False}}
    assert payload["witnesses"] == [
        {"algebra": "A", "generator": "c", "residual": "a^3"}]


@pytest.mark.parametrize("command", [
    "verify-flat", "verify-twisted", "verify-concordance"])
def test_verify_commands_on_broken_differential_exit_1(command, tmp_path,
                                                      capsys):
    broken = "{ gen a:2; gen b:3; gen c:4; d b = a^2; d c = a*b; }\n"
    f = tmp_path / "bad.dgca"
    f.write_text("algebra A " + broken + "algebra B " + broken
                 + "morphism F : A -> B { a = a; b = b; c = c; }\n"
                 "morphism G : A -> B { a = a; b = b; c = c; }\n")
    check = _run(["check", str(f)], capsys)
    assert check == (1, "A: d^2 != 0 (d^2(c) = a^3)\n"
                        "B: d^2 != 0 (d^2(c) = a^3)\n", "")
    assert _run([command, str(f)], capsys) == check
    code, out, _ = _run([command, "--json", str(f)], capsys)
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, _schema())
    assert payload["result"] == {"passed": False,
                                 "algebras": {"A": False, "B": False}}
    assert payload["witnesses"] == [
        {"algebra": n, "generator": "c", "residual": "a^3"} for n in "AB"]


def test_verify_flat_gates_the_target_algebra(tmp_path, capsys):
    f = tmp_path / "bad.dgca"
    f.write_text("algebra L { gen x:2; }\n"
                 "algebra A { gen a:2; gen b:3; gen c:4; "
                 "d b = a^2; d c = a*b; }\n"
                 "morphism F : L -> A { x = a; }\n")
    assert _run(["verify-flat", str(f)], capsys) == (
        1, "L: d^2 = 0\nA: d^2 != 0 (d^2(c) = a^3)\n", "")


def test_check_on_file_without_algebra_exits_2(tmp_path, capsys):
    f = tmp_path / "none.dgca"
    f.write_text("# nothing declared\n")
    for argv in (["check", str(f)], ["check", "--json", str(f)]):
        assert _run(argv, capsys) == (
            2, "", "error: the file declares no algebra\n")


def test_stokes_check_on_algebra_without_generators(tmp_path, capsys):
    f = tmp_path / "empty.dgca"
    f.write_text("algebra A { }\n")
    code, out, err = _run(["stokes-check", str(f)], capsys)
    assert (code, out, err) == (0, "stokes: 30/30\nprojection: 30/30\n", "")


def test_cohomology_table_of_even_sphere(capsys):
    code, out, _ = _run(
        ["cohomology", "--max-degree", "12", "--json", "corpus:s4"], capsys)
    assert code == 0
    dims = json.loads(out)["result"]["dims"]
    assert dims == {str(k): (1 if k in (0, 4) else 0) for k in range(13)}


def test_is_sullivan_exit_codes(capsys):
    code, out, _ = _run(["is-sullivan", "corpus:su2"], capsys)
    assert code == 1
    assert "th1 -> th2 -> th3 -> th1" in out
    code, out, _ = _run(["is-sullivan", "corpus:heis3"], capsys)
    assert code == 0
    assert "th1 < th2 < th3" in out


def test_parse_error_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.dgca"
    f.write_text("algebra A { gen a:2 }")
    code, _, err = _run(["check", str(f)], capsys)
    assert code == 2
    assert "parse error" in err


def test_superscript_digit_is_a_located_parse_error(tmp_path, capsys):
    # '\u00b2'.isdigit() holds but int() refuses it: it is not an integer
    f = tmp_path / "sup.dgca"
    f.write_text("algebra A { gen x:\u00b2; }", encoding="utf-8")
    code, _, err = _run(["check", str(f)], capsys)
    assert code == 2
    assert "parse error: 1:19: unexpected character '\u00b2'" in err
    # a Unicode decimal digit still lexes as an integer
    mf = parse("algebra A { gen x:\u0663; }")
    assert mf.first_algebra()[1].gens.degrees == (3,)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="int() converts literals of any length")
def test_oversized_integer_is_a_located_parse_error(tmp_path, capsys):
    # int() refuses more digits than sys.get_int_max_str_digits()
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    prefix = "algebra A { gen x:2; gen y:5; d y = "
    for text, col in ((prefix + digits + "*x^3; }", len(prefix) + 1),
                      ("algebra A { gen x:" + digits + "; }", 19)):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert (e.value.line, e.value.col, e.value.message) == (
            1, col, "integer too long")
    f = tmp_path / "big.dgca"
    f.write_text(prefix + digits + "*x^3; }\n")
    assert _run(["check", str(f)], capsys) == (
        2, "", "parse error: 1:37: integer too long\n")


def test_missing_file_exits_2(capsys):
    code, _, err = _run(["check", "no/such/file.dgca"], capsys)
    assert code == 2


def test_unknown_corpus_name_exits_2(capsys):
    code, _, err = _run(["corpus", "nope"], capsys)
    assert code == 2


def test_unknown_command_exits_2(capsys):
    assert _run(["frobnicate", "x"], capsys)[0] == 2


def test_corpus_list_has_ten_cited_entries(capsys):
    code, out, _ = _run(["corpus", "--list", "--json"], capsys)
    assert code == 0
    entries = json.loads(out)["result"]["entries"]
    assert len(entries) >= 10
    assert all(e["citation"] for e in entries)


def test_verify_flat_both_ways(tmp_path, capsys):
    good = tmp_path / "good.dgca"
    good.write_text(
        "algebra s { gen w4:4; gen w7:7; d w7 = -w4^2; }\n"
        "algebra om { gen g4:4; gen g7:7; d g7 = -g4^2; }\n"
        "morphism F : s -> om { w4 = g4; w7 = g7; }\n")
    assert _run(["verify-flat", str(good)], capsys)[0] == 0
    bad = tmp_path / "bad.dgca"
    bad.write_text(
        "algebra s { gen w4:4; gen w7:7; d w7 = -w4^2; }\n"
        "algebra om { gen g4:4; gen g7:7; d g7 = -g4^2; }\n"
        "morphism F : s -> om { w4 = g4; w7 = 2*g7; }\n")
    code, out, _ = _run(["verify-flat", str(bad)], capsys)
    assert code == 1
    assert "w7" in out


def test_decide_concordance_exit_codes(tmp_path, capsys):
    saddle = ("algebra om { gen x:1; gen y:1; gen z:1; }\n"
              "algebra line { gen c1:1; }\n")
    apart = tmp_path / "apart.dgca"
    apart.write_text(saddle + "morphism F0 : line -> om { c1 = x; }\n"
                     "morphism F1 : line -> om { c1 = y; }\n")
    assert _run(["verify-concordance", str(apart)], capsys)[0] == 1
    same = tmp_path / "same.dgca"
    same.write_text(saddle + "morphism F0 : line -> om { c1 = x; }\n"
                    "morphism F1 : line -> om { c1 = x; }\n")
    assert _run(["verify-concordance", str(same)], capsys)[0] == 0


@pytest.mark.parametrize("target, f1, datum, residual", [
    ("algebra W { gen u:2; gen v:3; d u = v; }\n", "u", "F0", "-v"),
    ("algebra W { gen u:2; gen a:2; gen b:3; d a = b; }\n", "u + a",
     "F1", "-b"),
], ids=["f0", "f1"])
def test_decide_concordance_non_flat_endpoint_exits_1(
        target, f1, datum, residual, tmp_path, capsys):
    f = tmp_path / "nonflat.dgca"
    f.write_text("algebra L { gen c:2; }\n" + target
                 + "morphism F0 : L -> W { c = u; }\n"
                 "morphism F1 : L -> W { c = %s; }\n" % f1)
    # verify-flat's report on the endpoint, not a traceback
    assert _run(["verify-concordance", str(f)], capsys) == (
        1, "%s: not flat\n  d mismatch at c: %s\n" % (datum, residual), "")
    code, out, err = _run(["verify-concordance", "--json", str(f)], capsys)
    assert (code, err) == (1, "")
    payload = json.loads(out)
    jsonschema.validate(payload, _schema())
    assert payload["result"] == {"concordant": False, "datum": datum,
                                 "flat": False}
    assert payload["witnesses"] == [{"generator": "c", "residual": residual}]


def test_verify_concordance_explicit_cylinder(tmp_path, capsys):
    f = tmp_path / "cyl.dgca"
    f.write_text(
        "algebra om { gen w3:3; }\n"
        "algebra line { gen c3:3; }\n"
        "algebra cyl { gen w3:3; gen t0:0; gen dt0:1; d t0 = dt0; }\n"
        "morphism F0 : line -> om { c3 = w3; }\n"
        "morphism F1 : line -> om { c3 = w3; }\n"
        "morphism M : line -> cyl { c3 = w3; }\n")
    code, out, _ = _run(["verify-concordance", str(f)], capsys)
    assert code == 0
    assert "valid" in out


def test_verify_concordance_reports_each_failing_leg(tmp_path, capsys):
    # t0*x is not a chain map (d(t0*x) = dt0*x) and restricts to 0 and x
    f = tmp_path / "badcyl.dgca"
    f.write_text(
        "algebra om { gen x:1; gen y:1; }\n"
        "algebra line { gen c1:1; }\n"
        "algebra cyl { gen x:1; gen y:1; gen t0:0; gen dt0:1; d t0 = dt0; }\n"
        "morphism F0 : line -> om { c1 = x; }\n"
        "morphism F1 : line -> om { c1 = y; }\n"
        "morphism M : line -> cyl { c1 = t0*x; }\n")
    assert _run(["verify-concordance", str(f)], capsys) == (
        1, "chain failure at c1: x*dt0\nev0 mismatch at c1: x\n"
           "ev1 mismatch at c1: y - x\nconcordance: invalid\n", "")
    code, out, err = _run(["verify-concordance", "--json", str(f)], capsys)
    assert (code, err) == (1, "")
    payload = json.loads(out)
    jsonschema.validate(payload, _schema())
    assert payload["result"] == {"concordant": False}
    assert payload["witnesses"] == [
        {"leg": "chain", "generator": "c1", "residual": "x*dt0"},
        {"leg": "ev0", "generator": "c1", "residual": "x"},
        {"leg": "ev1", "generator": "c1", "residual": "y - x"}]


def test_verify_twisted_reports_a_bundle_cycle(tmp_path, capsys):
    # d a = a*b: a new generator whose differential needs itself
    cycle = "{ gen h3:3; gen a:1; gen b:1; d a = a*b; d b = a*b; }\n"
    f = tmp_path / "cycle.dgca"
    f.write_text("algebra base { gen h3:3; }\n"
                 "algebra tot " + cycle + "algebra om " + cycle
                 + "morphism M : tot -> om { h3 = h3; a = a; b = b; }\n"
                 "morphism tau : base -> om { h3 = h3; }\n")
    assert _run(["verify-twisted", str(f)], capsys) == (
        1, "bundle order: cycle a -> a\nchain: ok\ntriangle: ok\n"
           "twisted-flat: no\n", "")
    code, out, err = _run(["verify-twisted", "--json", str(f)], capsys)
    assert (code, err) == (1, "")
    payload = json.loads(out)
    jsonschema.validate(payload, _schema())
    assert payload["result"] == {"datum": "M", "twist": "tau",
                                 "passed": False}
    assert payload["witnesses"] == [{"leg": "sullivan", "cycle": ["a"]}]


def test_twisted_cohomology_oracles(capsys):
    code, out, _ = _run(
        ["twisted-cohomology", "--twist", "H", "--json", "corpus:t3"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["dims"] == {"0": 3, "1": 3}
    code, out, _ = _run(
        ["twisted-cohomology", "--twist", "H", "--json", "corpus:s3"], capsys)
    assert json.loads(out)["result"]["dims"] == {"0": 0, "1": 0}
    code, out, _ = _run(
        ["twisted-cohomology", "--period", "1", "--json", "corpus:s3"],
        capsys)
    assert json.loads(out)["result"]["dims"] == {"0": 1, "1": 1}


def test_matrix_commands(tmp_path, capsys):
    f = tmp_path / "mat.dgca"
    f.write_text("algebra P { gen a:2; gen b:2; }\n"
                 "matrix R {\n"
                 "  [0, a, 0, 0];\n"
                 "  [-a, 0, 0, 0];\n"
                 "  [0, 0, 0, b];\n"
                 "  [0, 0, -b, 0];\n"
                 "}\n")
    code, out, _ = _run(["pontrjagin", "--json", str(f)], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema())
    forms = payload["result"]["forms"]
    assert forms["p1"] == "b^2 + a^2"
    assert forms["p2"] == "a^2*b^2"
    code, out, _ = _run(["euler", "--json", str(f)], capsys)
    assert json.loads(out)["result"]["euler"] == "a*b"
    code, out, _ = _run(["i8", "--json", str(f)], capsys)
    assert json.loads(out)["result"]["i8"] == \
        "-1/192*b^4 + 1/96*a^2*b^2 - 1/192*a^4"
    notanti = tmp_path / "diag.dgca"
    notanti.write_text("algebra P { gen a:2; }\nmatrix F { [a]; }\n")
    assert _run(["pontrjagin", str(notanti)], capsys)[0] == 2
    assert _run(["chern", "--json", str(notanti)], capsys)[0] == 0


def test_usage_errors_exit_2(capsys):
    assert _run(["cohomology", "corpus:interval"], capsys)[0] == 2
    assert _run(["line-quotient", "corpus:s3"], capsys)[0] == 2
    assert _run(["twisted-cohomology", "corpus:s3"], capsys)[0] == 2
    assert _run(["verify-flat", "corpus:s3"], capsys)[0] == 2


def test_negative_max_degree_exits_2(capsys):
    code, out, err = _run(["cohomology", "--max-degree", "-3", "corpus:s4"],
                          capsys)
    assert code == 2
    assert out == ""
    assert "--max-degree" in err and "-3" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = _run(["cohomology", "--max-degree", "4", "--json",
                         "--out", str(target), "corpus:s3"], capsys)
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "cohomology"


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = _run(["cohomology", "corpus:s2", "--out", str(target)],
                          capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: cannot write %s: No such file or directory\n"
                   % target)


# -- options per command -----------------------------------------------------

# the computation options each command reads; every command also takes
# --json and --out
_READS = {
    "check": (),
    "cohomology": ("--max-degree", "--polybound"),
    "minimal-model": ("--max-degree", "--polybound"),
    "brackets": (),
    "is-sullivan": (),
    "is-minimal": (),
    "twisted-cohomology": ("--max-degree", "--twist", "--period"),
    "twisted-op": ("--max-degree", "--twist", "--period"),
    "chern": ("--max-degree",),
    "pontrjagin": ("--max-degree",),
    "euler": (),
    "i8": (),
    "verify-flat": (),
    "verify-twisted": (),
    "verify-concordance": ("--polybound",),
    "line-quotient": ("--max-degree", "--polybound"),
    "stokes-check": (),
    "corpus": (),
}
_OPTIONS = ("--max-degree", "--polybound", "--twist", "--period")


def _argv(command, *options):
    tail = {"corpus": ["s4"], "twisted-op": ["wedge-twist", "R", "corpus:t3"]}
    return [command, *tail.get(command, ["corpus:t3"]), *options]


def test_option_map_names_every_command():
    assert sorted(_READS) == sorted(_COMMANDS)


@pytest.mark.parametrize("command, option", [
    (c, o) for c in _READS for o in _OPTIONS if o not in _READS[c]])
def test_an_option_the_command_does_not_read_exits_2(command, option,
                                                     capsys):
    code, out, err = _run(_argv(command, option, "1"), capsys)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: %s" % option in err


@pytest.mark.parametrize("argv", [
    ["cohomology", "--twist", "H", "corpus:t3"],
    ["check", "--twist", "X", "corpus:s4"],
])
def test_an_ignored_option_is_not_run(argv, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --twist" in err


@pytest.mark.parametrize("argv, full", [
    (["cohomology", "--max", "3", "corpus:s2"],
     ["cohomology", "--max-degree", "3", "corpus:s2"]),
    (["twisted-cohomology", "--t", "H", "corpus:t3"],
     ["twisted-cohomology", "--twist", "H", "corpus:t3"]),
    (["cohomology", "--js", "corpus:s2"], ["cohomology", "--json", "corpus:s2"]),
])
def test_an_abbreviated_option_exits_2(argv, full, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: %s" % argv[1] in err
    code, out, err = _run(full, capsys)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("command, option", [
    (c, o) for c in _READS for o in _READS[c]])
def test_an_option_the_command_reads_is_accepted(command, option):
    args = _build_parser().parse_args(_argv(command, option, "1"))
    value = getattr(args, option[2:].replace("-", "_"))
    assert value == ("1" if option == "--twist" else 1)


@pytest.mark.parametrize("command", sorted(_READS))
def test_every_namespace_carries_the_four_options(command):
    args = _build_parser().parse_args(_argv(command, "--json"))
    for option in _OPTIONS:
        assert getattr(args, option[2:].replace("-", "_")) is None


# -- error map ----------------------------------------------------------------

def test_handlers_leave_errors_to_main():
    for handler, _, _, _ in _COMMANDS.values():
        tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
        assert not any(isinstance(node, ast.Try) for node in ast.walk(tree)), \
            handler.__name__


def test_minimal_model_over_budget_exits_2(tmp_path, capsys):
    f = tmp_path / "wide.dgca"
    f.write_text("algebra W { %s}\n"
                 % "".join("gen g%d:2; " % i for i in range(65)))
    for flags in ([], ["--json"]):
        assert _run(["minimal-model", "--max-degree", "2", *flags, str(f)],
                    capsys) == (
            2, "", "error: generator budget 64 exceeded in degree 2\n")


def test_failed_certificate_exits_1_without_a_traceback(tmp_path, capsys,
                                                        monkeypatch):
    f = tmp_path / "same.dgca"
    f.write_text("algebra om { gen x:1; gen y:1; }\n"
                 "algebra line { gen c1:1; }\n"
                 "morphism F0 : line -> om { c1 = x; }\n"
                 "morphism F1 : line -> om { c1 = x; }\n")
    assert _run(["verify-concordance", str(f)], capsys) == (
        0, "concordant: yes\n", "")
    # decide_concordance checks the concordance it builds; make that fail
    monkeypatch.setattr(character, "verify_concordance",
                        lambda ccd: types.SimpleNamespace(passed=False))
    message = "constructed concordance failed verification"
    assert _run(["verify-concordance", str(f)], capsys) == (
        1, message + "\n", "")
    code, out, err = _run(["verify-concordance", "--json", str(f)], capsys)
    payload = json.loads(out)
    jsonschema.validate(payload, _schema())
    assert (code, err) == (1, "")
    assert (payload["result"], payload["witnesses"]) == (
        {"error": message}, [])


# -- JSON schema --------------------------------------------------------------

def _schema():
    path = resources.files("ratho.cli") / "schema.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("argv", [
    ["check", "corpus:s4"],
    ["cohomology", "--max-degree", "6", "corpus:s3"],
    ["minimal-model", "--max-degree", "4", "corpus:s2"],
    ["brackets", "corpus:su2"],
    ["is-sullivan", "corpus:su2"],
    ["is-minimal", "corpus:heis3"],
    ["twisted-cohomology", "--twist", "H", "corpus:t3"],
    ["line-quotient", "--max-degree", "2", "corpus:s3"],
    ["stokes-check", "corpus:s3"],
    ["corpus", "--list"],
    ["corpus", "s4"],
])
def test_json_payloads_validate(argv, capsys):
    main(argv + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema())
    assert payload["command"] == argv[0]


@pytest.mark.parametrize("argv, inputs", [
    (["cohomology", "--max-degree", "0", "corpus:s2"],
     {"file": "corpus:s2", "max_degree": 0}),
    (["twisted-cohomology", "--period", "0", "corpus:t3"],
     {"file": "corpus:t3", "period": 0}),
])
def test_json_inputs_keep_zero_valued_options(argv, inputs, capsys):
    main(argv + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema())
    assert payload["inputs"] == inputs


def _script_env(**extra):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_runs_as_a_script():
    env = _script_env()
    proc = subprocess.run(
        [sys.executable, "-m", "ratho.cli.main", "cohomology", "corpus:s4"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "H^4 = 1" in proc.stdout.splitlines()


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_1_without_a_traceback(unbuffered):
    env = _script_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    # the read end is closed before the script starts, so every write to
    # its stdout fails with a broken pipe
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ratho.cli.main", "cohomology",
             "--max-degree", "6", "corpus:s4"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(write)
    assert proc.stderr == ""
    assert proc.returncode == 1


def _nested_differential(depth):
    return ("algebra A {\n  gen x:2;\n  gen y:5;\n  d y = "
            + "(" * depth + "x*x*x" + ")" * depth + ";\n}\n")


def test_deep_nesting_is_a_located_parse_error(tmp_path, capsys):
    assert not parse(_nested_differential(MAX_NESTING)).algebras[
        "A"].d["y"].is_zero()
    f = tmp_path / "deep.dgca"
    f.write_text(_nested_differential(3000))
    code, _, err = _run(["check", str(f)], capsys)
    assert code == 2
    col = len("  d y = ") + MAX_NESTING + 1
    assert ("parse error: 4:%d: parentheses nested deeper than %d"
            % (col, MAX_NESTING)) in err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    f = tmp_path / "latin1.dgca"
    f.write_bytes("# modèle\nalgebra A { gen x:2; }\n".encode("latin-1"))
    code, _, err = _run(["check", str(f)], capsys)
    assert code == 2
    assert "cannot read %s: not valid UTF-8" % f in err


def test_wide_model_enumerates_without_recursion(tmp_path, capsys):
    # more generators than Python's recursion limit: enumerating monomials
    # must not take one stack frame per generator
    f = tmp_path / "wide.dgca"
    f.write_text("algebra W {\n%s}\n" % "".join(
        "  gen g%d:2;\n" % i for i in range(1200)))
    code, out, _ = _run(["cohomology", "--max-degree", "1", str(f)], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["H^0 = 1", "H^1 = 0"]
    code, _, _ = _run(["minimal-model", "--max-degree", "1", str(f)], capsys)
    assert code == 0


# -- fuzzed commands ----------------------------------------------------------

# commands whose work is bounded on small inputs; line-quotient enumerates
# 5^dim lattice points of the degree-2 cocycles, so it only runs on
# algebras of at most 3 generators (5^3 points)
_FUZZ_COMMANDS = [
    ["check"], ["is-sullivan"], ["is-minimal"], ["brackets"],
    ["cohomology", "--max-degree", "3", "--polybound", "1"],
    ["minimal-model", "--max-degree", "3", "--polybound", "1"],
    ["verify-flat"], ["chern"],
    ["twisted-cohomology", "--twist", "H", "--max-degree", "4"],
]
_LINE_QUOTIENT = ["line-quotient", "--max-degree", "1", "--polybound", "1"]
# the characters of the model language's keywords, names, numbers and
# symbols
_ALPHABET = "abcdeghilmnoprstwxAHM0123456789:;{}()[],+-*/^=># \n"


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    # one file per module, rewritten by every example
    return tmp_path_factory.mktemp("fuzz") / "fuzz.dgca"


def _exit_codes(path, commands):
    codes = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv + [str(path)]))
    return codes


@st.composite
def _element(draw, gens, degree):
    basis = basis_of_degree(gens, degree, polybound=2)
    terms = draw(st.lists(st.sampled_from(basis), max_size=3, unique=True)
                 if basis else st.just([]))
    p = gens.zero()
    for m in terms:
        c = draw(st.sampled_from([-2, -1, Fraction(1, 2), 1, 3]))
        p = p + gens.from_exponents(m, Fraction(c))
    return p


@st.composite
def _small_model(draw):
    degrees = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    gens = GeneratorSet([("g%d" % i, d) for i, d in enumerate(degrees)])
    lines = ["algebra A {"]
    lines += ["  gen %s:%d;" % pair for pair in zip(gens.names, degrees)]
    for g, d in zip(gens.names, degrees):
        p = draw(_element(gens, d + 1))
        if not p.is_zero():
            lines.append("  d %s = %s;" % (g, p))
    lines.append("}")
    block = draw(st.sampled_from([None, "twist", "matrix", "morphism"]))
    if block == "twist":
        lines.append("twist H = %s;" % draw(
            _element(gens, draw(st.sampled_from([1, 3])))))
    elif block == "matrix":
        rows = [[draw(_element(gens, 2)) for _ in range(2)] for _ in range(2)]
        lines.append("matrix M : A { %s }" % " ".join(
            "[%s, %s];" % tuple(row) for row in rows))
    elif block == "morphism":
        lines.append("morphism F : A -> A { %s }" % " ".join(
            "%s = %s;" % (g, draw(_element(gens, d)))
            for g, d in zip(gens.names, degrees)))
    return len(degrees), "\n".join(lines) + "\n"


# texts under 43 characters cannot declare four generators, so the
# lattice enumeration of line-quotient stays small on them too
@settings(max_examples=60, deadline=None)
@given(st.text(_ALPHABET, max_size=42))
def test_fuzzed_text_never_raises(fuzz_file, text):
    fuzz_file.write_text(text)
    codes = _exit_codes(fuzz_file, _FUZZ_COMMANDS + [_LINE_QUOTIENT])
    assert set(codes) <= {0, 1, 2}


@settings(max_examples=40, deadline=None)
@given(_small_model())
def test_fuzzed_models_never_raise(fuzz_file, model):
    size, text = model
    fuzz_file.write_text(text)
    commands = _FUZZ_COMMANDS + ([_LINE_QUOTIENT] if size <= 3 else [])
    codes = _exit_codes(fuzz_file, commands)
    assert set(codes) <= {0, 1, 2}
    # the text is well formed, so check gets past the parser
    assert codes[0] in (0, 1)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64))
def test_random_bytes_never_raise(fuzz_file, data):
    fuzz_file.write_bytes(data)
    codes = _exit_codes(fuzz_file, [["check"],
                                    ["cohomology", "--max-degree", "3"]])
    assert set(codes) <= {0, 1, 2}


@st.composite
def _model_file(draw):
    """Two algebras, a morphism, a twist and a 2x2 matrix, as text.

    Morphism images take a wrong degree now and then, so some files do
    not parse."""
    algebras = {}
    lines = []
    for name in ("A", "B"):
        degrees = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
        gens = GeneratorSet([("%s%d" % (name.lower(), i), d)
                             for i, d in enumerate(degrees)])
        algebras[name] = gens
        lines.append("algebra %s {" % name)
        lines += ["  gen %s:%d;" % pair for pair in zip(gens.names, degrees)]
        lines += ["  d %s = %s;" % (g, draw(_element(gens, d + 1)))
                  for g, d in zip(gens.names, degrees)]
        lines.append("}")
    A, B = algebras["A"], algebras["B"]
    lines.append("morphism F : A -> B { %s }" % " ".join(
        "%s = %s;" % (g, draw(_element(B, draw(st.sampled_from(
            [d, d, d, d + 1])))))
        for g, d in zip(A.names, A.degrees)))
    lines.append("twist H : A = %s;" % draw(
        _element(A, draw(st.sampled_from([1, 3])))))
    lines.append("matrix M : B { %s }" % " ".join(
        "[%s, %s];" % (draw(_element(B, 2)), draw(_element(B, 2)))
        for _ in range(2)))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_model_file())
def test_printed_model_parses_back(text):
    try:
        mf = parse(text)
    except ParseError:
        return
    assert parse(print_model(mf)) == mf
