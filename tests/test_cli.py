"""Command-line interface: every subcommand, exit codes, document plumbing."""

from __future__ import annotations

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

from ietrel import cli, relations, words
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
    code, _, err = run(capsys, "eval", "--map", f, "--x", "3/2")
    assert code == EXIT_PRECONDITION
    assert "precondition" in err


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
