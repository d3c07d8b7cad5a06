"""Command-line interface: every subcommand, exit codes, document plumbing."""

from __future__ import annotations

import contextlib
import csv
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ietrel import cli, finite_model, relations, words
from ietrel.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_SEARCH_CAP,
    EXIT_VERIFICATION,
    MAX_EXHAUSTIVE_SIZE,
    MAX_GROWTH_N,
    MAX_GROWTH_PIECES,
    MAX_ORBIT_N,
    MAX_POW_N,
    MAX_POW_PIECES,
    MAX_RANDOM_SIZE,
    MAX_TRIALS,
    main,
)
from ietrel.documents import KIND_CERTIFICATE, document, emit_document, parse_document
from ietrel.iet import Iet, PermLambdaSpec
from ietrel.relations import DEFAULT_M_CAP
from ietrel.rotation import DisjointRotationSpec
from ietrel.sampling import demo_suite
from ietrel.scalars import MAX_DISC, MAX_PRINT_DIGITS, QuadExt
from ietrel.words import MAX_B_LETTERS, MAX_EXPONENT_DIGITS, MAX_VERIFY_PIECES, Word

from conftest import q
from test_synth import gallop_cap_g

F = Fraction

SQRT2M1 = QuadExt(-1, 1, 2)


@pytest.fixture
def files(tmp_path):
    """Write a document and hand back its path."""

    def write(name, payload, text=None):
        p = tmp_path / name
        p.write_text(text if text is not None else emit_document(document(payload)))
        return str(p)

    write.dir = tmp_path
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- map arithmetic ---------------------------------------------------------------


def test_compose(files, capsys):
    f = files("f.iet", Iet.rotation(q(F(1, 4))))
    code, out, _ = run(capsys, "compose", "--f", f, "--g", f)
    assert code == EXIT_OK
    assert parse_document(out).payload == Iet.rotation(q(F(1, 2)))


def test_compose_accepts_every_map_kind(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (q(F(1, 4)),)))
    pl = files("g.pl", PermLambdaSpec(pi=(2, 1), lengths=(q(F(1, 4)), q(F(3, 4)))))
    code, out, _ = run(capsys, "compose", "--f", r, "--g", pl)
    assert code == EXIT_OK
    expected = Iet.rotation(q(F(1, 4))).compose(Iet.rotation(q(F(3, 4))))
    assert parse_document(out).payload == expected


def test_pow_and_output_file(files, capsys):
    f = files("f.iet", Iet.rotation(q(F(1, 8))))
    out_path = str(files.dir / "out.iet")
    code, out, _ = run(capsys, "pow", "--map", f, "--n", "-3", "-o", out_path)
    assert code == EXIT_OK
    assert out == ""
    payload = parse_document((files.dir / "out.iet").read_text()).payload
    assert payload == Iet.rotation(q(F(5, 8)))


def test_eval(files, capsys):
    f = files("f.iet", Iet.rotation(SQRT2M1))
    code, out, _ = run(capsys, "eval", "--map", f, "--x", "3/4")
    assert code == EXIT_OK
    assert parse_document(out).payload == QuadExt(-F(5, 4), 1, 2)


def test_eval_point_outside_domain(files, capsys):
    f = files("f.iet", Iet.identity())
    # a one-point orbit applies no map, and checks its point all the same
    for name, *rest in (("eval",), ("orbit", "--n", "1")):
        code, out, err = run(capsys, name, "--map", f, "--x", "3/2", *rest)
        assert (code, out) == (EXIT_PRECONDITION, ""), name
        assert "precondition error: point 3/2 outside [0, 1)" in err, name


@pytest.mark.parametrize("command", [("eval",), ("orbit", "--n", "3")], ids=["eval", "orbit"])
def test_an_x_that_starts_with_a_minus_is_read_as_the_value(files, capsys, command):
    f = files("f.iet", Iet.rotation(q(F(1, 3))))
    name, *rest = command
    x = str(SQRT2M1)  # how the program writes sqrt(2) - 1
    assert x == "-1+1*sqrt(2)"
    joined = run(capsys, name, "--map", f, f"--x={x}", *rest)
    assert joined[0] == EXIT_OK
    assert run(capsys, name, "--map", f, "--x", x, *rest) == joined


def test_orbit(files, capsys):
    f = files("f.iet", Iet.rotation(q(F(1, 3))))
    code, out, _ = run(capsys, "orbit", "--map", f, "--x", "0", "--n", "3")
    assert code == EXIT_OK
    assert out == "0\n1/3\n2/3\n"


def test_l1(files, capsys):
    f = files("f.iet", Iet.rotation(q(F(1, 4))))
    code, out, _ = run(capsys, "l1", "--map", f)
    assert code == EXIT_OK
    assert out == "exact = 3/8\nfloat = 0.375\n"


# -- growth report ------------------------------------------------------------------


def _growth_rows(out: str):
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "discontinuities", "l1_exact", "l1_float"]
    return [(int(n), int(d), exact, float(fl)) for n, d, exact, fl in rows[1:]]


def test_disc_growth_rotation_stays_bounded(files, capsys):
    f = files("f.iet", Iet.rotation(SQRT2M1))
    code, out, _ = run(capsys, "disc-growth", "--map", f, "--max-n", "12")
    assert code == EXIT_OK
    rows = _growth_rows(out)
    assert [n for n, _, _, _ in rows] == list(range(1, 13))
    assert all(d <= 1 for _, d, _, _ in rows)


def test_disc_growth_generic_iet_grows_linearly(files, capsys):
    lengths = (QuadExt(0, F(1, 4), 2), q(F(1, 4)), QuadExt(F(3, 4), -F(1, 4), 2))
    f = files("f.iet", Iet.from_perm_lambda(PermLambdaSpec(pi=(3, 2, 1), lengths=lengths)))
    code, out, _ = run(capsys, "disc-growth", "--map", f, "--max-n", "10")
    assert code == EXIT_OK
    rows = _growth_rows(out)
    counts = [d for _, d, _, _ in rows]
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_disc_growth_at_its_cap_ends_where_pow_then_l1_does(files, capsys):
    # a generic quadratic 4-interval exchange: f^n has 3n + 1 pieces.  The last
    # row of the sequential chain must match repeated squaring, exactly.
    lengths = (QuadExt(0, F(1, 8), 2), q(F(1, 4)), q(F(1, 4)), QuadExt(F(1, 2), -F(1, 8), 2))
    f = files("f.iet", Iet.from_perm_lambda(PermLambdaSpec(pi=(4, 3, 2, 1), lengths=lengths)))
    n = str(MAX_GROWTH_N)
    code, out, _ = run(capsys, "disc-growth", "--map", f, "--max-n", n)
    assert code == EXIT_OK
    rows = _growth_rows(out)
    assert len(rows) == MAX_GROWTH_N
    power = str(files.dir / "power.iet")
    assert run(capsys, "pow", "--map", f, "--n", n, "-o", power)[0] == EXIT_OK
    f_n = parse_document(Path(power).read_text()).payload
    code, out, _ = run(capsys, "l1", "--map", power)
    assert code == EXIT_OK
    exact = out.splitlines()[0].removeprefix("exact = ")
    assert rows[-1][:3] == (MAX_GROWTH_N, len(f_n.discontinuities()), exact)
    assert rows[-1][1] == 3 * MAX_GROWTH_N


# -- synthesize and verify ------------------------------------------------------------


def test_synthesize_then_verify(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (SQRT2M1,)))
    g = files("g.iet", Iet.identity())
    cert_path = str(files.dir / "cert.txt")
    code, _, err = run(capsys, "synthesize", "--r", r, "--g", g, "-o", cert_path)
    assert code == EXIT_OK
    assert "branch h_trivial" in err
    cert = parse_document((files.dir / "cert.txt").read_text(), KIND_CERTIFICATE).payload
    assert cert.M == 70 and cert.verified

    code, out, _ = run(capsys, "verify", "--word", cert_path, "--r", r, "--g", g)
    assert code == EXIT_OK
    assert "verified: 284 letters" in out


def test_verify_accepts_a_bare_word(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (q(F(1, 4)),)))
    g = files("g.iet", Iet.identity())
    w = files("w.txt", Word.parse("a^4"))
    code, out, _ = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert code == EXIT_OK
    assert "4 letters" in out


def test_verify_rejects_a_wrong_word(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (q(F(1, 4)),)))
    g = files("g.iet", Iet.identity())
    w = files("w.txt", Word.parse("a^3"))
    code, _, err = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert code == EXIT_VERIFICATION
    assert "does not evaluate to the identity" in err


def test_verify_rejects_an_empty_word(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (q(F(1, 4)),)))
    g = files("g.iet", Iet.identity())
    w = files("w.txt", Word())
    code, _, err = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert code == EXIT_VERIFICATION
    assert "empty" in err


def test_verify_uses_no_iet_map_arithmetic(files, capsys, monkeypatch):
    pair = next(p for p in demo_suite() if p.name == "d3-two-blocks-fixed")
    r = files("r.rot", pair.r)
    g = files("g.iet", pair.g)
    cert_path = str(files.dir / "cert.txt")
    code, _, err = run(capsys, "synthesize", "--r", r, "--g", g, "-o", cert_path)
    assert code == EXIT_OK and "branch T_sixth" in err

    def forbidden(*args, **kwargs):
        raise AssertionError("verify called Iet map arithmetic")

    for name in ("compose", "inverse", "power", "apply"):
        monkeypatch.setattr(Iet, name, forbidden)
    code, out, _ = run(capsys, "verify", "--word", cert_path, "--r", r, "--g", g)
    assert code == EXIT_OK
    assert out.startswith("verified:")


def test_verify_huge_rotation_power_is_prompt(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (SQRT2M1,)))
    g = files("g.iet", Iet.identity())
    w = files("w.txt", Word.parse("a^100000000000 b"))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert time.perf_counter() - t0 < 5
    assert code == EXIT_VERIFICATION
    assert "does not evaluate to the identity" in err


def test_verify_caps_b_letters_before_pushing_any_piece(files, capsys, monkeypatch):
    r = files("r.rot", DisjointRotationSpec((q(1),), (q(F(1, 4)),)))
    g = files("g.iet", Iet.rotation(q(F(1, 8))))
    w = files("w.txt", Word.parse(f"b a b^{MAX_B_LETTERS}"))

    def forbidden(*args):
        raise AssertionError("a piece was pushed")

    monkeypatch.setattr(words, "_push", forbidden)
    code, _, err = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert code == EXIT_SEARCH_CAP
    assert f"MAX_B_LETTERS = {MAX_B_LETTERS}" in err


def test_verify_rejects_a_g_that_is_not_a_bijection(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (q(F(1, 4)),)))
    g = files("g.iet", None, text=NOT_A_BIJECTION)
    w = files("w.txt", Word.parse("a b"))
    code, _, err = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert code == EXIT_PRECONDITION
    assert "do not tile" in err


def test_verify_refuses_mixed_discriminants_before_pushing_any_piece(files, capsys,
                                                                    monkeypatch):
    r = files("r.rot", DisjointRotationSpec((q(1),), (SQRT2M1,)))
    g = files("g.iet", Iet.rotation(QuadExt(-1, 1, 3)))
    w = files("w.txt", Word.parse("a b a^-1 b^-1"))

    def forbidden(*args):
        raise AssertionError("a piece was pushed")

    monkeypatch.setattr(words, "_push", forbidden)
    code, out, err = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "context error" in err


NOT_A_BIJECTION = """ietrel v1
D = 0
kind = iet
breakpoints = 0, 1/2
translations = 0, -1/2
"""


@pytest.mark.parametrize("command", [
    ("l1",),
    ("eval", "--x", "1/4"),
    ("pow", "--n", "2"),
    ("compose", "--g", "{map}"),
    ("disc-growth", "--max-n", "3"),
], ids=lambda command: command[0])
def test_a_map_that_is_not_a_bijection_is_rejected_at_load(files, capsys, command):
    f = files("f.iet", None, text=NOT_A_BIJECTION)
    name, *rest = command
    flag = "--f" if name == "compose" else "--map"
    argv = [name, flag, f] + [arg.format(map=f) for arg in rest]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "not a bijection" in err


HUGE_D = 10**30 + 1


@pytest.mark.parametrize("text", [
    f"ietrel v1\nD = {HUGE_D}\nkind = scalar\nvalue = 1\n",
    f"ietrel v1\nD = 0\nkind = scalar\nvalue = 1*sqrt({HUGE_D})\n",
], ids=["D-line", "root-term"])
def test_a_discriminant_above_the_cap_exits_4_promptly(files, capsys, text):
    f = files("f.txt", None, text=text)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "l1", "--map", f)
    assert time.perf_counter() - t0 < 2
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert f"MAX_DISC = {MAX_DISC}" in err


# Python's int() and str() refuse integers of more than 4300 digits.
LONG_DIGITS = "1" * 5000


@pytest.mark.parametrize("command, text", [
    (("l1",), f"ietrel v1\nD = {LONG_DIGITS}\nkind = scalar\nvalue = 1\n"),
    (("l1",), f"ietrel v1\nD = 0\nkind = scalar\nvalue = 1/8*sqrt({LONG_DIGITS})\n"),
    (("eval", "--x", f"1/8*sqrt({LONG_DIGITS})"), None),
], ids=["l1-D-line", "l1-root-term", "eval-root-term"])
def test_a_discriminant_too_long_for_int_exits_4(files, capsys, command, text):
    f = files("f.txt", Iet.identity(), text=text)
    name, *rest = command
    code, out, err = run(capsys, name, "--map", f, *rest)
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert f"MAX_DISC = {MAX_DISC}" in err


def test_verify_refuses_an_exponent_too_long_for_int(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (SQRT2M1,)))
    g = files("g.iet", Iet.identity())
    w = files("w.txt", None, text=f"ietrel v1\nD = 0\nkind = word\nword = a^{LONG_DIGITS}\n")
    code, out, err = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert f"MAX_EXPONENT_DIGITS = {MAX_EXPONENT_DIGITS}" in err


# 5000 leading zeros, more digits than int() reads, before a short value
PADDING = "0" * 5000
ROOT2_ROTATION = "ietrel v1\nD = {D}\nkind = rotation\nlengths = 1\nrates = -1+1*sqrt({root})\n"
DISC_PATHS = {
    "l1-D-line": (("l1",), ROOT2_ROTATION.format(D="{D}", root="2")),
    "l1-root-term": (("l1",), ROOT2_ROTATION.format(D="2", root="{D}")),
    "eval-root-term": (("eval", "--x", "1/8*sqrt({D})"), None),
}


def _run_disc_path(files, capsys, path, disc_text):
    command, text = DISC_PATHS[path]
    name, *rest = command
    f = files("f.txt", Iet.identity(), text=text and text.format(D=disc_text))
    return run(capsys, name, "--map", f, *[arg.format(D=disc_text) for arg in rest])


@pytest.mark.parametrize("path", DISC_PATHS)
def test_a_zero_padded_discriminant_reads_as_its_value(files, capsys, path):
    code, out, err = _run_disc_path(files, capsys, path, PADDING + "2")
    assert (code, err) == (EXIT_OK, "")
    assert "sqrt(2)" in out
    assert (code, out, err) == _run_disc_path(files, capsys, path, "2")


@pytest.mark.parametrize("path", DISC_PATHS)
def test_a_zero_padded_discriminant_of_12_digits_exits_4(files, capsys, path):
    code, out, err = _run_disc_path(files, capsys, path, PADDING + "1" * 12)
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert f"MAX_DISC = {MAX_DISC}" in err


def test_a_zero_padded_exponent_reads_as_its_value(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (q(F(1, 2)),)))
    g = files("g.iet", Iet.identity())
    w = files("w.txt", None, text=f"ietrel v1\nD = 0\nkind = word\nword = a^{PADDING}2\n")
    code, out, err = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert (code, err) == (EXIT_OK, "")
    assert out == "verified: 2 letters evaluate to the identity\n"


# Each integer of a document, with a (rotation, g, certificate) that verify
# accepts or a map for l1; {n} marks the integer.
ZERO_ROTATION = DisjointRotationSpec((q(1),), (q(0),))
CERT_TEXT = ("ietrel v1\nD = 0\nkind = certificate\nbranch = finite_order\n"
             "L = {L}\nd = {d}\nM = {M}\nverified = true\nword = a^2\n")
DOCUMENT_INTEGERS = {
    "pi": ("ietrel v1\nD = 0\nkind = perm-lambda\npi = {n}, 1\nlengths = 1/2, 1/2\n", "2"),
    "L": (CERT_TEXT.format(L="{n}", d=1, M=1), "1"),
    "d": (CERT_TEXT.format(L=1, d="{n}", M=1), "1"),
    "M": (CERT_TEXT.format(L=1, d=1, M="{n}"), "70"),
}


def _run_document_integer(files, capsys, key, n):
    text, _ = DOCUMENT_INTEGERS[key]
    f = files("f.txt", None, text=text.format(n=n))
    if key == "pi":
        return run(capsys, "l1", "--map", f)
    r = files("r.rot", ZERO_ROTATION)
    g = files("g.iet", Iet.identity())
    return run(capsys, "verify", "--word", f, "--r", r, "--g", g)


@pytest.mark.parametrize("key", DOCUMENT_INTEGERS)
def test_a_zero_padded_document_integer_reads_as_its_value(files, capsys, key):
    value = DOCUMENT_INTEGERS[key][1]
    code, out, err = _run_document_integer(files, capsys, key, PADDING + value)
    assert (code, err) == (EXIT_OK, "")
    assert (code, out, err) == _run_document_integer(files, capsys, key, value)


# one significant digit past MAX_PRINT_DIGITS, and the same length with separators
TOO_LONG = "7" * (MAX_PRINT_DIGITS + 1)


@pytest.mark.parametrize("key", DOCUMENT_INTEGERS)
def test_a_document_integer_past_the_print_cap_exits_4_with_a_short_message(files, capsys,
                                                                           key):
    code, out, err = _run_document_integer(files, capsys, key, PADDING + TOO_LONG)
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert f"MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS}" in err
    assert len(err) < 200


@pytest.mark.parametrize("key", DOCUMENT_INTEGERS)
def test_a_document_integer_with_separators_is_a_parse_error(files, capsys, key):
    code, out, err = _run_document_integer(files, capsys, key, "1_0")
    assert code == EXIT_PARSE
    assert out == ""
    assert "expected an integer, got '1_0'" in err


@pytest.mark.parametrize("x", [f"{TOO_LONG}/8", f"1/{TOO_LONG}", f"1/{TOO_LONG}*sqrt(2)",
                               f"{TOO_LONG}*sqrt(2)"],
                         ids=["numerator", "denominator", "root-denominator",
                              "root-numerator"])
def test_a_scalar_literal_past_the_print_cap_exits_4_with_a_short_message(files, capsys, x):
    f = files("f.iet", Iet.identity())
    code, out, err = run(capsys, "eval", "--map", f, "--x", x)
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert f"MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS}" in err
    assert len(err) < 200


def test_a_zero_padded_scalar_literal_reads_as_its_value(files, capsys):
    f = files("f.iet", Iet.identity())
    padded = run(capsys, "eval", "--map", f, "--x", f"{PADDING}1/{PADDING}8")
    assert padded == (EXIT_OK, emit_document(document(q(F(1, 8)))), "")


# Every site of an integer literal: the cap on its significant digits, the
# signs its grammar allows, the document that holds {lit}, and the command
# that reads it ({doc} is that document, {r} and {g} verify's maps).
VERIFY = ("verify", "--word", "{doc}", "--r", "{r}", "--g", "{g}")
LITERAL_SITES = {
    "D": (11, "+-", ("l1", "--map", "{doc}"),
          emit_document(document(Iet.identity())).replace("D = 0", "D = {lit}")),
    "numerator": (MAX_PRINT_DIGITS, "+-", ("l1", "--map", "{doc}"),
                  "ietrel v1\nD = 0\nkind = rotation\nlengths = 1\nrates = {lit}/3\n"),
    "denominator": (MAX_PRINT_DIGITS, "", ("l1", "--map", "{doc}"),
                    "ietrel v1\nD = 0\nkind = rotation\nlengths = 1\nrates = 1/{lit}\n"),
    "sqrt": (11, "", ("l1", "--map", "{doc}"), ROOT2_ROTATION.format(D="2", root="{lit}")),
    "pi": (MAX_PRINT_DIGITS, "+-", ("l1", "--map", "{doc}"),
           DOCUMENT_INTEGERS["pi"][0].format(n="{lit}")),
    **{key: (MAX_PRINT_DIGITS, "+-", VERIFY, DOCUMENT_INTEGERS[key][0].format(n="{lit}"))
       for key in ("L", "d", "M")},
    "exponent": (MAX_EXPONENT_DIGITS, "-", VERIFY,
                 "ietrel v1\nD = 0\nkind = word\nword = a^{lit}\n"),
    "eval --x": (MAX_PRINT_DIGITS, "+-", ("eval", "--map", "{g}", "--x={lit}/8"), ""),
}
NOT_DIGITS = ("x", "1_0", "1.5", "1e3", "0x1f", "1 2", "\u00b2", "\u0663")


@pytest.fixture(scope="module")
def literal_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("literals")
    (d / "r.rot").write_text(emit_document(document(ZERO_ROTATION)))
    (d / "g.iet").write_text(emit_document(document(Iet.identity())))
    return d


@settings(derandomize=True, max_examples=300, deadline=None)
@given(site=st.sampled_from(sorted(LITERAL_SITES)), sign=st.sampled_from(("", "+", "-")),
       zeros=st.sampled_from((0, 1, 5000)), size=st.integers(0, 5),
       digit=st.sampled_from("2379"), junk=st.none() | st.sampled_from(NOT_DIGITS))
@example(site="D", sign="", zeros=5000, size=1, digit="2", junk=None)
@example(site="numerator", sign="", zeros=0, size=5, digit="7", junk=None)
def test_integer_literals_exit_cleanly_and_past_their_cap_exit_4(literal_dir, site, sign,
                                                                 zeros, size, digit, junk):
    cap, signs, _, _ = LITERAL_SITES[site]
    significant = (0, 1, 2, cap - 1, cap, cap + 1)[size]
    lit = sign + "0" * zeros + (digit * significant if junk is None else junk)
    code, err = _run_literal(literal_dir, site, lit)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_SEARCH_CAP), err
    if junk is None and sign in signs and significant > cap:
        assert code == EXIT_SEARCH_CAP, err


def _run_literal(literal_dir, site, lit):
    """The exit code and stderr of the command of site with lit in its place."""
    _, _, argv, text = LITERAL_SITES[site]
    doc = literal_dir / "doc.txt"
    doc.write_text(text.replace("{lit}", lit))
    paths = {"doc": str(doc), "r": str(literal_dir / "r.rot"), "g": str(literal_dir / "g.iet")}
    argv = [arg.format(lit=lit, **paths) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


# Arabic-Indic digits: 3, 13, and 1 after 5000 zeros, which int() would read
@pytest.mark.parametrize("lit", ["\u0663", "1\u0663", "\u0660" * 5000 + "\u0661"],
                         ids=["digit", "after-ascii", "padded"])
@pytest.mark.parametrize("site", sorted(LITERAL_SITES))
def test_a_literal_with_a_non_ascii_digit_is_a_parse_error(literal_dir, site, lit):
    code, err = _run_literal(literal_dir, site, lit)
    assert code == EXIT_PARSE, err
    assert err.startswith("parse error:")


def test_verify_refuses_exponents_whose_letter_count_is_too_long_to_print(files, capsys):
    # a^X a^X reduces to a^(10^4300), the identity for rate 1/2, and its
    # letter count has 4301 digits
    r = files("r.rot", DisjointRotationSpec((q(1),), (q(F(1, 2)),)))
    g = files("g.iet", Iet.identity())
    x = "5" + "0" * 4299
    w = files("w.txt", None, text=f"ietrel v1\nD = 0\nkind = word\nword = a^{x} a^{x}\n")
    code, out, err = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert f"MAX_EXPONENT_DIGITS = {MAX_EXPONENT_DIGITS}" in err


@pytest.mark.parametrize("command", [("l1",), ("disc-growth", "--max-n", "2")],
                         ids=["l1", "disc-growth"])
def test_a_value_too_long_to_print_exits_4(files, capsys, command):
    # the rotation by 1/10^3000 loads, but its L1 distance has the
    # denominator 2 * 10^6000
    f = files("f.iet", Iet.rotation(q(F(1, 10**3000))))
    name, *rest = command
    code, out, err = run(capsys, name, "--map", f, *rest)
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert f"MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS}" in err


@pytest.mark.parametrize("command", [("l1",), ("disc-growth", "--max-n", "2")],
                         ids=["l1", "disc-growth"])
def test_a_value_of_integers_past_float_range_renders(files, capsys, command):
    r = files("r.rot", DisjointRotationSpec((q(1),), (QuadExt(0, F(1, 10**400), 2),)))
    name, *rest = command
    code, out, _ = run(capsys, name, "--map", r, *rest)
    assert code == EXIT_OK
    if name == "l1":
        assert out.endswith("\nfloat = 0.0\n")
    else:
        assert [row[3] for row in _growth_rows(out)] == [0.0, 0.0]


def _order_q_rotation(*dens):
    """Equal blocks rotated by 1/d each: the rotation has finite order, and
    synthesize answers with the word a^lcm(dens)."""
    return DisjointRotationSpec(tuple(q(F(1, len(dens))) for _ in dens),
                                tuple(q(F(1, d)) for d in dens))


@pytest.mark.parametrize("dens, code_wanted", [
    ((10**999 + 1,), EXIT_OK),
    ((10**1000 + 1,), EXIT_SEARCH_CAP),
    ((10**799 + 1, 10**799 + 3), EXIT_SEARCH_CAP),
    ((10**2999 + 1, 10**2999 + 3), EXIT_SEARCH_CAP),
], ids=["1000-digits", "1001-digits", "two-800-digit-rates", "two-3000-digit-rates"])
def test_synthesize_refuses_a_word_verify_would_refuse(files, capsys, dens, code_wanted):
    r = files("r.rot", _order_q_rotation(*dens))
    g = files("g.iet", Iet.identity())
    cert = str(files.dir / "out.cert")
    code, _, err = run(capsys, "synthesize", "--r", r, "--g", g, "-o", cert)
    assert code == code_wanted
    if code == EXIT_OK:
        assert run(capsys, "verify", "--word", cert, "--r", r, "--g", g)[0] == EXIT_OK
    else:
        assert f"MAX_EXPONENT_DIGITS = {MAX_EXPONENT_DIGITS}" in err


def test_verify_refuses_a_word_whose_pushes_may_walk_past_the_cap(files, capsys,
                                                                  monkeypatch):
    # 64 reversed intervals of 1/64, the first and last moved by sqrt(2)/409600:
    # every b letter can add 63 pieces, so b^1000 a may walk 31533502
    tilt = QuadExt(0, F(1, 409600), 2)
    lengths = [q(F(1, 64))] * 64
    lengths[0] += tilt
    lengths[-1] -= tilt
    g = files("g.pl", PermLambdaSpec(tuple(range(64, 0, -1)), tuple(lengths)))
    r = files("r.rot", DisjointRotationSpec((q(1),), (SQRT2M1,)))
    w = files("w.txt", Word.parse("b^1000 a"))

    def forbidden(*args):
        raise AssertionError("a piece was pushed")

    monkeypatch.setattr(words, "_push", forbidden)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--word", w, "--r", r, "--g", g)
    assert time.perf_counter() - t0 < 2
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert "up to 31533502 pieces" in err
    assert f"MAX_VERIFY_PIECES = {MAX_VERIFY_PIECES}" in err


@pytest.mark.parametrize("command, cap_name", [
    (("pow", "--n", str(MAX_POW_N + 1)), "MAX_POW_N"),
    (("pow", "--n", str(-MAX_POW_N - 1)), "MAX_POW_N"),
    (("orbit", "--x", "0", "--n", str(MAX_ORBIT_N + 1)), "MAX_ORBIT_N"),
    (("disc-growth", "--max-n", str(MAX_GROWTH_N + 1)), "MAX_GROWTH_N"),
], ids=["pow", "pow-negative", "orbit", "disc-growth"])
def test_a_count_above_its_cap_exits_4_before_any_work(files, capsys, monkeypatch,
                                                       command, cap_name):
    lengths = (QuadExt(0, F(1, 4), 2), q(F(1, 4)), QuadExt(F(3, 4), -F(1, 4), 2))
    f = files("f.iet", Iet.from_perm_lambda(PermLambdaSpec(pi=(3, 2, 1), lengths=lengths)))

    def forbidden(self, *args):
        raise AssertionError("map arithmetic ran past a cap")

    monkeypatch.setattr(Iet, "compose", forbidden)
    monkeypatch.setattr(Iet, "apply", forbidden)
    name, *rest = command
    t0 = time.perf_counter()
    code, out, err = run(capsys, name, "--map", f, *rest)
    assert time.perf_counter() - t0 < 2
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert cap_name in err


def perm_lambda_text(k: int, seed: int = 0) -> str:
    """A perm-lambda document with k intervals of random rational lengths."""
    rng = random.Random(seed)
    pi = list(range(1, k + 1))
    rng.shuffle(pi)
    weights = [rng.randrange(1, 100) for _ in range(k)]
    lengths = [F(w, sum(weights)) for w in weights]
    return emit_document(document(PermLambdaSpec(pi=tuple(pi), lengths=lengths)))


def test_the_piece_caps_are_what_the_count_caps_allow_a_4_interval_map():
    # f^n of a 4-interval map has up to 3n + 1 pieces
    assert MAX_POW_PIECES == 3 * MAX_POW_N + 1
    assert MAX_GROWTH_PIECES == sum(3 * n + 1 for n in range(1, MAX_GROWTH_N + 1))


@pytest.mark.parametrize("command, cap_name", [
    (("pow", "--n", "1000"), "MAX_POW_PIECES"),
    (("pow", "--n", "-1000"), "MAX_POW_PIECES"),
    (("disc-growth", "--max-n", "100"), "MAX_GROWTH_PIECES"),
], ids=["pow", "pow-negative", "disc-growth"])
def test_a_large_map_past_a_piece_cap_exits_4_before_any_compose(files, capsys, monkeypatch,
                                                                 command, cap_name):
    # the map keeps k > 100 of its 200 intervals, and with k - 1 > 100 both
    # (k - 1) * 1000 + 1 > MAX_POW_PIECES and (k - 1) * 5050 + 100 > MAX_GROWTH_PIECES
    text = perm_lambda_text(200)
    assert Iet.from_perm_lambda(parse_document(text).payload).num_intervals > 100
    f = files("f.txt", None, text=text)

    def forbidden(self, *args):
        raise AssertionError("map arithmetic ran past a cap")

    for name in ("compose", "apply", "inverse"):
        monkeypatch.setattr(Iet, name, forbidden)
    name, *rest = command
    t0 = time.perf_counter()
    code, out, err = run(capsys, name, "--map", f, *rest)
    assert time.perf_counter() - t0 < 2
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert cap_name in err


def test_a_large_perm_lambda_document_loads_promptly(files, capsys):
    f = files("f.txt", None, text=perm_lambda_text(4000))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "l1", "--map", f)
    assert time.perf_counter() - t0 < 2
    assert code == EXIT_OK
    assert out.startswith("exact = ")


def test_synthesize_with_conjugator(files, capsys):
    c_map = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(2, 1), lengths=(q(F(1, 4)), q(F(3, 4)))))
    r_spec = DisjointRotationSpec((q(1),), (SQRT2M1,))
    r = files("r.rot", r_spec)
    g = files("g.iet", Iet.rotation(q(F(3, 8))))
    c = files("c.iet", c_map)
    cert_path = str(files.dir / "cert.txt")
    code, _, _ = run(capsys, "synthesize", "--r", r, "--g", g,
                     "--conjugator", c, "-o", cert_path)
    assert code == EXIT_OK
    # the word must hold against the conjugated rotation; build it via the CLI
    cr_path = str(files.dir / "cr.iet")
    cinv = files("cinv.iet", c_map.inverse())
    mid_path = str(files.dir / "mid.iet")
    assert run(capsys, "compose", "--f", c, "--g", r, "-o", mid_path)[0] == EXIT_OK
    assert run(capsys, "compose", "--f", mid_path, "--g", cinv, "-o", cr_path)[0] == EXIT_OK
    r_conj = parse_document((files.dir / "cr.iet").read_text()).payload
    assert r_conj == r_spec.to_iet().conjugate(c_map)
    cert = parse_document((files.dir / "cert.txt").read_text(), KIND_CERTIFICATE).payload
    from ietrel.words import eval_word_naive

    assert eval_word_naive(cert.word, r_conj, Iet.rotation(q(F(3, 8)))).is_identity()


def test_synthesize_exits_1_when_the_checker_rejects_the_word(files, capsys, monkeypatch):
    r = files("r.rot", DisjointRotationSpec((q(1),), (SQRT2M1,)))
    g = files("g.iet", Iet.identity())
    monkeypatch.setattr(relations, "verify_word", lambda *args: False)
    code, out, err = run(capsys, "synthesize", "--r", r, "--g", g)
    assert code == EXIT_VERIFICATION
    assert out == ""
    assert "internal invariant violated" in err


def test_synthesize_search_cap(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (SQRT2M1,)))
    g = files("g.iet", Iet.identity())
    code, _, err = run(capsys, "synthesize", "--r", r, "--g", g, "--m-cap", "1")
    assert code == EXIT_SEARCH_CAP
    assert "search cap" in err


def test_synthesize_exits_4_when_epsilon_passes_max_halvings(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (SQRT2M1,)))
    g = files("g.pl", gallop_cap_g())
    code, out, err = run(capsys, "synthesize", "--r", r, "--g", g)
    assert (code, out) == (EXIT_SEARCH_CAP, "")
    assert "search cap exhausted: no admissible epsilon after MAX_HALVINGS = 200" in err


def test_synthesize_past_the_m_cap_exits_4_before_any_document_is_read(capsys,
                                                                      monkeypatch):
    def forbidden(*_):
        raise AssertionError("find_M ran past a cap")

    monkeypatch.setattr(relations, "find_M", forbidden)
    t0 = time.perf_counter()
    # the documents do not exist: reading either would exit 2
    code, out, err = run(capsys, "synthesize", "--r", "/nonexistent/r.rot",
                         "--g", "/nonexistent/g.iet", "--m-cap", str(DEFAULT_M_CAP + 1))
    assert time.perf_counter() - t0 < 2
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert "DEFAULT_M_CAP" in err


@pytest.mark.parametrize("m_cap", ["0", "-5"])
def test_synthesize_m_cap_below_one_exits_3_instead_of_a_search_result(files, capsys,
                                                                       m_cap):
    r = files("r.rot", DisjointRotationSpec((q(1),), (SQRT2M1,)))
    g = files("g.iet", Iet.identity())
    code, out, err = run(capsys, "synthesize", "--r", r, "--g", g, "--m-cap", m_cap)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "--m-cap must be at least 1" in err


def test_synthesize_requires_a_rotation_document(files, capsys):
    f = files("f.iet", Iet.rotation(q(F(1, 4))))
    code, _, err = run(capsys, "synthesize", "--r", f, "--g", f)
    assert code == EXIT_PARSE
    assert "expected a rotation document" in err


# -- prop-check -----------------------------------------------------------------------


def test_prop_check_exhaustive(capsys):
    code, out, _ = run(capsys, "prop-check", "--size", "4", "--exhaustive")
    assert code == EXIT_OK
    assert "96 instances" in out


def test_prop_check_random(capsys):
    code, out, _ = run(capsys, "prop-check", "--size", "12", "--trials", "50",
                       "--seed", "3")
    assert code == EXIT_OK
    assert "50 instances" in out


@pytest.mark.parametrize(
    "args, cap_name",
    [
        (("--size", str(MAX_EXHAUSTIVE_SIZE + 1), "--exhaustive"), "MAX_EXHAUSTIVE_SIZE"),
        (("--size", str(MAX_RANDOM_SIZE + 1), "--trials", "1"), "MAX_RANDOM_SIZE"),
        (("--size", "3", "--trials", str(MAX_TRIALS + 1)), "MAX_TRIALS"),
    ],
)
def test_prop_check_past_a_size_cap_exits_4_before_any_instance(capsys, monkeypatch,
                                                                args, cap_name):
    def forbidden(*_):
        raise AssertionError("an instance was built past a cap")

    monkeypatch.setattr(cli, "enumerate_instances", forbidden)
    monkeypatch.setattr(cli, "random_instance", forbidden)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "prop-check", *args)
    assert time.perf_counter() - t0 < 2
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert cap_name in err


def test_prop_check_exits_4_when_no_instance_is_drawn(capsys, monkeypatch):
    monkeypatch.setattr(finite_model, "MAX_TRIES", 0)
    code, out, err = run(capsys, "prop-check", "--size", "5", "--trials", "1")
    assert code == EXIT_SEARCH_CAP
    assert out == ""
    assert "no admissible instance in 0 tries" in err


def _a_into_c(inst):
    # T with the least point of A and of C swapped: an A to C transition
    t = list(range(inst.m))
    a, c = min(inst.A), min(inst.C)
    t[a], t[c] = c, a
    return tuple(t)


@pytest.mark.parametrize("patches, failure", [
    ({"check_hypotheses": lambda inst: False}, "hypothesis A disjoint from phi(A) violated"),
    ({"compute_T": lambda inst: (1, 2, 3, 0) + tuple(range(4, inst.m))},
     "T has a cycle of length outside {1,2,3}: (4, 1)"),
    ({"classify_point": lambda p, inst: ("I", -1)}, "case table disagrees at point 0 (case I)"),
    ({"compute_T": _a_into_c, "classify_point": lambda p, inst: ("I", _a_into_c(inst)[p])},
     "realizes the impossible A to C transition"),
], ids=["hypothesis", "cycle", "case-table", "A-to-C"])
def test_prop_check_reports_the_first_failing_instance(capsys, monkeypatch, patches, failure):
    for name, fake in patches.items():
        monkeypatch.setattr(cli, name, fake)
    code, out, err = run(capsys, "prop-check", "--size", "5", "--trials", "3", "--seed", "1")
    assert code == EXIT_VERIFICATION
    assert out == ""
    assert err.startswith("FAIL after 0 instances: ") and failure in err


@pytest.mark.parametrize("args", [
    ("--size", "2", "--exhaustive"),
    ("--size", "1", "--exhaustive"),
    ("--size", "0", "--exhaustive"),
    ("--size", "-2", "--exhaustive"),
    ("--size", "2", "--trials", "3"),
    ("--size", "5", "--trials", "-4"),
    ("--size", "5", "--trials", "0"),
], ids=["size-2", "size-1", "size-0", "size-negative", "random-size-2", "trials-negative",
        "trials-0"])
def test_prop_check_below_a_floor_exits_3_instead_of_checking_nothing(capsys, args):
    code, out, err = run(capsys, "prop-check", *args)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "must be at least" in err


@pytest.mark.parametrize("max_n", ["-3", "0"])
def test_disc_growth_below_one_exits_3_instead_of_a_bare_header(files, capsys, max_n):
    f = files("f.iet", Iet.rotation(SQRT2M1))
    code, out, err = run(capsys, "disc-growth", "--map", f, "--max-n", max_n)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "--max-n must be at least 1" in err


# -- error plumbing --------------------------------------------------------------------


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, "l1", "--map", "/nonexistent/f.iet")
    assert code == EXIT_PARSE
    assert "io error" in err


def test_malformed_document_is_a_parse_error(files, capsys):
    bad = files("bad.iet", None, text="not a document\n")
    code, _, err = run(capsys, "l1", "--map", bad)
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_context_mismatch_is_a_precondition_error(files, capsys):
    f = files("f.iet", Iet.rotation(SQRT2M1))
    code, _, err = run(capsys, "eval", "--map", f, "--x", "1/2+1/3*sqrt(3)")
    assert code == EXIT_PRECONDITION
    assert "context error" in err


LONG = 5000


def _doc(kind, *lines):
    return "\n".join(("ietrel v1", "D = 0", f"kind = {kind}") + lines) + "\n"


def _pi_with_1_twice(n):
    head, _, rest = perm_lambda_text(n).partition("pi = ")
    pi_line, _, tail = rest.partition("\n")
    pi = ["1" if p == "2" else p for p in pi_line.split(", ")]
    return f"{head}pi = {', '.join(pi)}\n{tail}"


_VERIFY_DOCS = {
    "word": _doc("word", "word = a"),
    "r": _doc("rotation", "lengths = 1", "rates = 1/2"),
    "g": _doc("rotation", "lengths = 1", "rates = 1/3"),
}
# (which verify document, or "x" for eval --x; its text; the exit code): each
# input's message quotes a value of LONG characters, or a 10000-entry pi
_LONG_INPUTS = {
    "D in Arabic-Indic digits": ("r", "ietrel v1\nD = " + "\u0660" * LONG + "\u0661\n",
                                 EXIT_PARSE),
    "header": ("r", "h" * LONG + "\n", EXIT_PARSE),
    "line without =": ("r", _VERIFY_DOCS["r"] + "k" * LONG + "\n", EXIT_PARSE),
    "duplicate key": ("r", _VERIFY_DOCS["r"] + ("k" * LONG + " = 1\n") * 2, EXIT_PARSE),
    "unknown kind": ("r", _doc("k" * LONG), EXIT_PARSE),
    "unexpected key": ("r", _VERIFY_DOCS["r"] + "k" * LONG + " = 1\n", EXIT_PARSE),
    "scalar": ("r", _doc("rotation", "lengths = 1", "rates = 1/2+" + "3" * LONG + "x"),
               EXIT_PARSE),
    "eval --x": ("x", "1/2+" + "3" * LONG + "x", EXIT_PARSE),
    "word token": ("word", _doc("word", "word = " + "c" * LONG), EXIT_PARSE),
    "zero exponent": ("word", _doc("word", "word = a^" + "0" * LONG), EXIT_PARSE),
    "branch": ("word", _doc("certificate", "branch = " + "z" * LONG, "verified = true",
                            "word = a"), EXIT_PARSE),
    "pi with 1 twice": ("g", _pi_with_1_twice(10000), EXIT_PRECONDITION),
}


@pytest.mark.parametrize("case", list(_LONG_INPUTS))
def test_a_message_quotes_a_long_input_in_short(files, capsys, case):
    role, text, code_wanted = _LONG_INPUTS[case]
    if role == "x":
        argv = ["eval", "--map", files("g.txt", None, text=_VERIFY_DOCS["g"]), "--x", text]
    else:
        docs = {**_VERIFY_DOCS, role: text}
        argv = ["verify"]
        for name, doc in docs.items():
            argv += [f"--{name}", files(f"{name}.txt", None, text=doc)]
    code, out, err = run(capsys, *argv)
    assert code == code_wanted
    assert out == ""
    assert "(length " in err
    assert len(err.encode()) < 400, err


def _first_primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


# lengths 1/p over the first primes: the sum's numerator and denominator have
# about 2200 digits at 700 primes, and more than MAX_PRINT_DIGITS at 1500
@pytest.mark.parametrize("count, got", [
    (2, "got 5/6"),
    (700, "got a value above 1 too long to show"),
    (1500, "got a value above 1 too long to show"),
])
def test_lengths_that_do_not_sum_to_1_exit_3_with_a_short_message(files, capsys, count, got):
    text = _doc("perm-lambda", "pi = " + ", ".join(map(str, range(count, 0, -1))),
                "lengths = " + ", ".join(f"1/{p}" for p in _first_primes(count)))
    code, out, err = run(capsys, "l1", "--map", files("f.pl", None, text=text))
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert f"lengths must sum to 1, {got}" in err
    assert len(err.encode()) < 400, err


# 1 and 4000 zeros: a value whose text alone would fill 4 kB of stderr
LONG_ONE = "1" + "0" * 4000


@pytest.mark.parametrize("argv, rates, got", [
    (("eval", "--x", LONG_ONE), None, "point a value above 1 too long to show outside"),
    (("eval", "--x", "-" + LONG_ONE), None, "point a value below 0 too long to show outside"),
    (("eval", "--x", "3/2"), None, "point 3/2 outside"),
    (("l1",), LONG_ONE, "got a value above 1 too long to show"),
    (("l1",), "-" + LONG_ONE, "got a value below 0 too long to show"),
    (("l1",), "-1/4", "got -1/4"),
], ids=["point-above", "point-below", "point-short", "rate-above", "rate-below",
        "rate-short"])
def test_values_outside_0_1_exit_3_with_a_short_message(files, capsys, argv, rates, got):
    if rates is None:
        path = files("f.iet", Iet.identity())
    else:
        path = files("r.rot", None, text=_doc("rotation", "lengths = 1", f"rates = {rates}"))
    code, out, err = run(capsys, *argv[:1], "--map", path, *argv[1:])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert got in err
    assert len(err.encode()) < 400, err


def test_console_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ietrel.cli", "prop-check", "--size", "3",
         "--exhaustive"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == EXIT_OK
    assert "6 instances" in proc.stdout


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # every value is a _Frozen class or a NamedTuple: dataclasses, and the
    # inspect it pulls in, would add milliseconds to each command's start
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ietrel.cli; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
