"""Command-line interface: every subcommand, exit codes, document plumbing."""

from __future__ import annotations

import csv
import io
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ietrel import relations, words
from ietrel.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_SEARCH_CAP,
    EXIT_VERIFICATION,
    MAX_GROWTH_N,
    MAX_ORBIT_N,
    MAX_POW_N,
    main,
)
from ietrel.documents import document, emit_document, parse_certificate, parse_document
from ietrel.iet import Iet, PermLambdaSpec
from ietrel.rotation import DisjointRotationSpec
from ietrel.sampling import demo_suite
from ietrel.scalars import MAX_DISC, QuadExt
from ietrel.words import MAX_B_LETTERS, Word

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


# -- synthesize and verify ------------------------------------------------------------


def test_synthesize_then_verify(files, capsys):
    r = files("r.rot", DisjointRotationSpec((q(1),), (SQRT2M1,)))
    g = files("g.iet", Iet.identity())
    cert_path = str(files.dir / "cert.txt")
    code, _, err = run(capsys, "synthesize", "--r", r, "--g", g, "-o", cert_path)
    assert code == EXIT_OK
    assert "branch h_trivial" in err
    cert = parse_certificate((files.dir / "cert.txt").read_text())
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
    cert = parse_certificate((files.dir / "cert.txt").read_text())
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
    proc = subprocess.run(
        [sys.executable, "-m", "ietrel.cli", "prop-check", "--size", "3",
         "--exhaustive"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "6 instances" in proc.stdout
