"""Exact quadratic scalars: arithmetic, order, floor, parsing."""

from __future__ import annotations

import decimal
import math
import random
from fractions import Fraction

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


@given(quads())
def test_str_parse_round_trip(x):
    assert QuadExt.parse(str(x)) == x


@given(rationals())
def test_rational_str_matches_fraction(r):
    assert str(q(r)) == str(r)
