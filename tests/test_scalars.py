"""Exact quadratic scalars: arithmetic, order, floor, parsing."""

from __future__ import annotations

import decimal
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ietrel import scalars
from ietrel.errors import ContextMismatchError, ParseError, SearchCapError
from ietrel.scalars import MAX_PRINT_DIGITS, ONE, ZERO, QuadExt, as_scalar

from conftest import q, quads, rationals


# -- arithmetic anchors ------------------------------------------------------


def test_rational_addition():
    assert q(Fraction(1, 2)) + q(Fraction(1, 3)) == q(Fraction(5, 6))


def test_sqrt_squares_to_disc():
    s = QuadExt.sqrt(2)
    assert s * s == q(2)


def test_self_subtraction_vanishes():
    x = q(1, 1, 2)
    assert not (x - x)
    assert x - x == ZERO


def test_integer_and_fraction_coercion():
    assert q(Fraction(1, 2)) + 1 == q(Fraction(3, 2))
    assert 2 * q(Fraction(1, 4)) == q(Fraction(1, 2))
    assert 1 - q(Fraction(1, 4)) == q(Fraction(3, 4))
    assert as_scalar(Fraction(2, 6)) == q(Fraction(1, 3))


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        QuadExt(0.5)
    with pytest.raises(TypeError):
        as_scalar(0.5)


_BINARY = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__",
           "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


@pytest.mark.parametrize("name", _BINARY)
def test_binary_operators_take_exact_operands_on_either_side_and_refuse_the_rest(name):
    # the operator of name, as a function of (left, right): __rsub__ is -
    op = getattr(operator, name.strip("_").removeprefix("r"))
    reflected = name != f"__{op.__name__}__"
    arithmetic = op in (operator.add, operator.sub, operator.mul, operator.truediv)
    for x in (Fraction(3, 4), Fraction(2)):
        qx = q(x)
        for y in (2, -3, Fraction(3, 4), Fraction(-5, 7), q(Fraction(3, 4)), q(-1)):
            fy = Fraction(y.an, y.den) if isinstance(y, QuadExt) else Fraction(y)
            got = getattr(qx, name)(y)
            assert got == (op(fy, x) if reflected else op(x, fy))
            assert type(got) is (QuadExt if arithmetic else bool)
            # through Python's dispatch, the plain number on either side:
            # 2 - x runs x.__rsub__, and 2 < x runs x.__gt__
            assert op(qx, y) == op(x, fy) and op(y, qx) == op(fy, x)
        for bad in (0.5, "1", None):
            assert getattr(qx, name)(bad) is NotImplemented
            if name == "__eq__":
                assert not qx == bad and not bad == qx and qx != bad
                continue
            with pytest.raises(TypeError):
                op(qx, bad)
            with pytest.raises(TypeError):
                op(bad, qx)


def test_division():
    # 1/(1 + sqrt(2)) = sqrt(2) - 1
    assert ONE / q(1, 1, 2) == q(-1, 1, 2)
    assert q(3) / q(4) == q(Fraction(3, 4))
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


# -- sign and order ----------------------------------------------------------


def test_sign_anchors():
    assert (QuadExt.sqrt(2) - q(Fraction(7, 5))).sign() == 1
    assert ZERO.sign() == 0
    assert (ONE - QuadExt.sqrt(2)).sign() == -1


@given(quads(disc=5), quads(disc=5), quads(disc=5))
def test_total_order(x, y, z):
    assert (x < y) + (x == y) + (x > y) == 1
    if x < y and y < z:
        assert x < z
    assert (x <= y) == (x < y or x == y)


def test_sign_agrees_with_high_precision_floats():
    ctx = decimal.Context(prec=60)
    roots = {d: ctx.sqrt(decimal.Decimal(d)) for d in (2, 3, 5)}
    rng = random.Random(414213)
    for _ in range(10_000):
        d = rng.choice((2, 3, 5))
        x = QuadExt(
            Fraction(rng.randrange(-50, 51), rng.randrange(1, 40)),
            Fraction(rng.randrange(-50, 51), rng.randrange(1, 40)),
            d,
        )
        approx = ctx.add(
            decimal.Decimal(x.rat.numerator) / decimal.Decimal(x.rat.denominator),
            ctx.multiply(
                decimal.Decimal(x.coef.numerator) / decimal.Decimal(x.coef.denominator),
                roots[d],
            ),
        )
        expected = 0 if approx == 0 else (1 if approx > 0 else -1)
        assert x.sign() == expected


# -- field axioms ------------------------------------------------------------


@given(quads(disc=3), quads(disc=3), quads(disc=3))
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == ZERO
    if y:
        assert (x * y) / y == x


# -- floor and mod_one -------------------------------------------------------


def test_floor_anchors():
    assert QuadExt.sqrt(2).mod_one() == q(-1, 1, 2)
    assert q(Fraction(3, 2)).mod_one() == q(Fraction(1, 2))
    assert (29 * QuadExt.sqrt(2) - q(29)).floor() == 12
    assert q(-Fraction(1, 2)).floor() == -1
    assert (-QuadExt.sqrt(2)).floor() == -2


@given(quads())
def test_mod_one_contract(x):
    frac = x.mod_one()
    assert ZERO <= frac < ONE
    whole = x - frac
    assert whole.is_rational
    assert whole.rat.denominator == 1
    assert whole.rat == x.floor()


# -- floats (diagnostic only) ------------------------------------------------


def test_to_float_anchors():
    assert abs(float(q(-1, 1, 2)) - 0.41421356) < 1e-7
    assert float(q(Fraction(1, 2))) == 0.5
    assert float(ZERO) == 0.0
    assert float(q(Fraction(1, 4))) == 0.25
    assert float(q(Fraction(3, 7), Fraction(-5, 11), 3)) == (33 - 35 * math.sqrt(3)) / 77


def _sqrt2_convergent(digits):
    """A convergent p/q of sqrt(2) with q of at least the given digits."""
    p, q = 1, 1
    while len(str(q)) < digits:
        p, q = p + 2 * q, p + q
    return p, q


def test_to_float_past_float_range():
    assert float(q(0, Fraction(1, 10**400), 2)) == 0.0
    assert float(q(Fraction(1, 3), Fraction(1, 10**400), 2)) == 1 / 3
    # q(p - q sqrt(2)) tends to +-1/(2 sqrt(2)): integers of 1200 digits, and
    # all but the last few hundred of them cancel
    p, qq = _sqrt2_convergent(600)
    x = q(p * qq, -qq * qq, 2)
    with decimal.localcontext() as ctx:
        ctx.prec = 3000
        want = float(p * qq - qq * qq * decimal.Decimal(2).sqrt())
    assert abs(abs(want) - 1 / (2 * math.sqrt(2))) < 1e-15
    assert float(x) == want


def test_str_refuses_a_value_too_long_to_print():
    assert str(q(Fraction(1, 10**4299))).endswith("0" * 4299)
    for x in (q(Fraction(1, 10**4300)), q(10**4300), q(0, Fraction(1, 10**4300), 2)):
        with pytest.raises(SearchCapError, match=f"MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS}"):
            str(x)


# -- discriminant discipline -------------------------------------------------


def test_disc_must_be_square_free_and_at_least_two():
    for bad in (1, 4, 12, 0, -2):
        with pytest.raises(ValueError):
            QuadExt.sqrt(bad)
    QuadExt.sqrt(2)
    QuadExt.sqrt(10)


def test_arithmetic_does_not_recheck_the_disc(monkeypatch):
    x = QuadExt(1, 1, 2)
    y = QuadExt(Fraction(1, 3), -2, 2)
    want = [
        QuadExt(Fraction(4, 3), -1, 2),
        QuadExt(Fraction(2, 3), 3, 2),
        QuadExt(Fraction(-11, 3), Fraction(-5, 3), 2),
        QuadExt(Fraction(-39, 71), Fraction(-21, 71), 2),
    ]

    def forbidden(disc):
        raise AssertionError("the disc was checked again")

    monkeypatch.setattr(scalars, "_require_valid_disc", forbidden)
    with pytest.raises(AssertionError):
        QuadExt.sqrt(2)  # the public constructor still checks
    assert [x + y, x - y, x * y, x / y] == want


def test_mixed_discs_is_a_context_error():
    with pytest.raises(ContextMismatchError):
        QuadExt.sqrt(2) + QuadExt.sqrt(3)
    with pytest.raises(ContextMismatchError):
        QuadExt.sqrt(2) < QuadExt.sqrt(3)


def test_rationals_embed_in_any_context():
    assert q(Fraction(1, 2)) + QuadExt.sqrt(2) == q(Fraction(1, 2), 1, 2)
    assert (q(3) * QuadExt.sqrt(5)).disc == 5


def test_zero_coefficient_drops_the_disc():
    x = QuadExt(1, 0, 2)
    assert x.disc == 0
    assert x == ONE
    y = QuadExt.sqrt(2) - QuadExt.sqrt(2)
    assert y.disc == 0


# -- hashing -----------------------------------------------------------------


def test_rational_values_hash_like_fractions():
    assert hash(q(Fraction(1, 2))) == hash(Fraction(1, 2))
    table = {q(Fraction(1, 2)): "a"}
    assert table[q(Fraction(2, 4))] == "a"


@given(quads(), quads())
def test_equal_values_hash_equal(x, y):
    if x == y:
        assert hash(x) == hash(y)


# -- parsing -----------------------------------------------------------------


def test_parse_anchors():
    assert QuadExt.parse("1/2+1/3*sqrt(2)") == q(Fraction(1, 2), Fraction(1, 3), 2)
    assert QuadExt.parse("-1+1*sqrt(2)") == q(-1, 1, 2)
    assert QuadExt.parse("sqrt(3)") == QuadExt.sqrt(3)
    assert QuadExt.parse("-sqrt(3)") == -QuadExt.sqrt(3)
    assert QuadExt.parse("3/4") == q(Fraction(3, 4))
    assert QuadExt.parse(" 1/2 + 1/3 * sqrt(2) ") == q(Fraction(1, 2), Fraction(1, 3), 2)
    assert QuadExt.parse("1/2-1/3*sqrt(2)") == q(Fraction(1, 2), -Fraction(1, 3), 2)


def test_parse_validates_ambient_disc():
    QuadExt.parse("1/2+1*sqrt(2)", disc=2)
    with pytest.raises(ContextMismatchError):
        QuadExt.parse("1/2+1*sqrt(3)", disc=2)
    # purely rational text is fine under any context
    assert QuadExt.parse("1/2", disc=5) == q(Fraction(1, 2))
    # a vanishing root coefficient imposes no context
    assert QuadExt.parse("1/2+0*sqrt(3)", disc=2) == q(Fraction(1, 2))


def test_parse_rejects_malformed_input():
    for text in ("", "1/2+2/3", "sqrt(2)+sqrt(3)", "1/0", "x", "1..2", "sqrt(4)", "1+2+3"):
        with pytest.raises(ParseError):
            QuadExt.parse(text)


def test_read_int_counts_significant_digits_against_its_cap():
    read = scalars._read_int
    assert [read(t) for t in ("0", "-0", "+7", "-007", "0" * 5000 + "12")] == [0, 0, 7, -7, 12]
    assert read("-" + "0" * 9 + "9" * 3, 3, "CAP = 999") == -999
    with pytest.raises(SearchCapError,
                       match="^an integer of 4 significant digits exceeds CAP = 999$"):
        read("0" * 9 + "1000", 3, "CAP = 999")
    with pytest.raises(SearchCapError, match=f"MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS}"):
        read("1" * (MAX_PRINT_DIGITS + 1))
    assert read("1" * MAX_PRINT_DIGITS) == int("1" * MAX_PRINT_DIGITS)
    for text in ("", "-", "+-1", "--1", " 1", "1 ", "1_000", "1.0", "1e3", "0x1f", "\u00b2"):
        with pytest.raises(ParseError, match="expected an integer"):
            read(text)


@given(quads())
def test_str_parse_round_trip(x):
    assert QuadExt.parse(str(x)) == x


@given(rationals())
def test_rational_str_matches_fraction(r):
    assert str(q(r)) == str(r)


# -- the inline sign tests and the integer rendering against references ----------
#
# _locate decides each comparison inline and __str__ reduces its integers by
# gcd; the references below use _sign3 and Fraction.  Integers run past 10**40.

DIFF_DISCS = (0, 2, 3, 5)


def _near_zero(rng, disc, big):
    """c + d sqrt(disc) with |c|, |d| about big and the value tiny, of either sign."""
    d = rng.randrange(big, 10 * big) * rng.choice((-1, 1))
    c = -math.isqrt(d * d * disc) * (1 if d > 0 else -1)
    return c + rng.choice((-1, 0, 1)), d


def _ascending_pairs(rng, disc, big, count):
    pairs = set()
    while len(pairs) < count:
        if disc and rng.random() < 0.3:
            c, d = _near_zero(rng, disc, big)
            pairs.add((c + rng.randrange(-3, 4), d))
        else:
            pairs.add((rng.randrange(-big, big), rng.randrange(-big, big) if disc else 0))
    key = cmp_to_key(lambda s, t: scalars._sign3(s[0] - t[0], s[1] - t[1], disc))
    return sorted(pairs, key=key)


def test_locate_matches_a_linear_scan_with_sign3():
    rng = random.Random(24)
    checked = 0
    for disc in DIFF_DISCS:
        for _ in range(150):
            big = 10 ** rng.choice((2, 41, 60))
            bps = _ascending_pairs(rng, disc, big, rng.randrange(1, 40))
            scale = rng.choice((1, 1, rng.randrange(2, big)))
            pick = rng.randrange(3)
            if pick == 0:  # exactly on a breakpoint
                a, b = rng.choice(bps)
                xa, xb = a * scale, b * scale
            elif pick == 1 and disc:  # a breakpoint plus a tiny irrational offset
                a, b = rng.choice(bps)
                c, d = _near_zero(rng, disc, big)
                xa, xb = a * scale + c, b * scale + d
            else:
                xa = rng.randrange(-2 * big, 2 * big) * scale
                xb = rng.randrange(-2 * big, 2 * big) * scale if disc else 0
            at_or_below = [i for i, (a, b) in enumerate(bps)
                           if scalars._sign3(xa - a * scale, xb - b * scale, disc) >= 0]
            assert at_or_below == list(range(len(at_or_below)))  # a prefix, as bps ascend
            if not at_or_below:
                continue
            lo = rng.randrange(len(at_or_below))
            assert scalars._locate(bps, xa, xb, disc, lo=lo, scale=scale) == at_or_below[-1]
            checked += 1
    assert checked > 400


def _str_by_fractions(x):
    """The reference rendering, through two Fractions."""
    rat, coef = Fraction(x.an, x.den), Fraction(x.bn, x.den)
    for n in (rat.numerator, rat.denominator, coef.numerator, coef.denominator):
        if abs(n) >= 10**MAX_PRINT_DIGITS:
            return None
    if x.bn == 0:
        return str(rat)
    root = f"{abs(coef)}*sqrt({x.disc})"
    if x.an == 0:
        return root if x.bn > 0 else "-" + root
    return f"{rat}{'+' if x.bn > 0 else '-'}{root}"


def test_str_matches_a_rendering_through_fractions():
    rng = random.Random(2024)
    values = []
    for disc in DIFF_DISCS:
        for _ in range(400):
            big = 10 ** rng.choice((1, 3, 41, 70))
            rat = Fraction(rng.randrange(-big, big), rng.choice((1, rng.randrange(1, big))))
            coef = Fraction(rng.randrange(-big, big), rng.choice((1, rng.randrange(1, big))))
            if rng.random() < 0.2:
                rat = Fraction(0)
            values.append(QuadExt(rat, coef if disc else 0, disc))
    # each part printable, though their common denominator is not
    values.append(QuadExt(Fraction(1, 3**6000), Fraction(-1, 7**3400), 2))
    values += [q(Fraction(1, 10**4300)), q(0, Fraction(-10**4300, 3), 5)]
    shapes = Counter()
    for x in values:
        want = _str_by_fractions(x)
        if want is None:
            with pytest.raises(SearchCapError):
                str(x)
            continue
        assert str(x) == want
        shapes["den 1"] += x.den == 1
        shapes["no rational part"] += x.an == 0 and x.bn != 0
        shapes["negative root"] += x.bn < 0
    assert min(shapes.values()) >= 50, shapes
