"""Exact arithmetic in a real quadratic extension Q(sqrt(D)).

A scalar is rat + coef*sqrt(disc) with rational rat, coef.  All scalars in
one computation share a single square-free discriminant 2 <= disc <= MAX_DISC,
checked once where a scalar enters (the constructor and parse); pure
rationals are the degenerate case coef = 0 and combine freely with any
context.  Every predicate (sign, ordering, floor) is decided exactly with
integer arithmetic; floats appear only in diagnostic renderings.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Tuple

from .errors import ContextMismatchError, ParseError, SearchCapError

__all__ = ["QuadExt", "as_scalar", "ZERO", "ONE", "MAX_DISC", "MAX_PRINT_DIGITS"]


# Largest accepted discriminant.  The square-free test is trial division,
# O(sqrt(D)): at the cap its worst case, a prime near 10**10, takes 10-20 ms
# on CPython 3.11 on one x86 core, while D = 10**30 + 1 would run for years.
MAX_DISC = 10**10
# Longest integer, in decimal digits, that a printed value may hold: str()
# refuses more than 4300 by default (sys.get_int_max_str_digits).
MAX_PRINT_DIGITS = 4300
_PRINT_BOUND = 10**MAX_PRINT_DIGITS
# float() keeps the float formula, whose renderings perfbench/digests.json
# freezes in disc-growth output, while every integer of the value has at most
# this many bits, so that bn * sqrt(disc) stays below 2^1024.
_FLOAT_BITS = 1000


@lru_cache(maxsize=None)
def _require_valid_disc(disc: int) -> None:
    if disc < 2:
        raise ValueError(f"discriminant must be >= 2, got {disc}")
    if disc > MAX_DISC:
        raise SearchCapError(f"discriminant {disc} exceeds MAX_DISC = {MAX_DISC}")
    p = 2
    while p * p <= disc:
        if disc % (p * p) == 0:
            raise ValueError(f"discriminant must be square-free, got {disc}")
        p += 1


def _disc_of(digits: str) -> int:
    """The discriminant spelled by a string of decimal digits.  One with more
    digits than MAX_DISC raises SearchCapError before int() reads it, which
    would refuse a string of more than 4300 digits with a ValueError."""
    if len(digits.lstrip("0")) > len(str(MAX_DISC)):
        raise SearchCapError(
            f"a discriminant of {len(digits)} digits exceeds MAX_DISC = {MAX_DISC}"
        )
    return int(digits)


def _merged_disc(d0: int, d1: int) -> int:
    # The one discriminant of two operands; 0 stands for a rational operand.
    if d0 and d1 and d0 != d1:
        raise ContextMismatchError(f"mixed discriminants {d0} and {d1}")
    return d0 or d1


def _lattice(values: Iterable[QuadExt], den: int = 1, disc: int = 0) -> Tuple[int, int]:
    """The lattice (1/N)(Z + Z sqrt(D)) of den, disc and the values: N the least
    common denominator, D their one discriminant (0 if all are rational)."""
    for v in values:
        den = math.lcm(den, v.den)
        disc = _merged_disc(disc, v.disc)
    return den, disc


def _pair(v: QuadExt, den: int) -> Tuple[int, int]:
    """v as the integer pair (a, b) with v = (a + b sqrt(D)) / den; den must be
    a multiple of v.den."""
    c = den // v.den
    return v.an * c, v.bn * c


def _sign3(an: int, bn: int, disc: int) -> int:
    # Sign of an + bn*sqrt(disc), exactly.  When the two terms have opposite
    # signs the comparison reduces to an^2 vs bn^2*disc; equality there would
    # force sqrt(disc) rational, impossible for square-free disc >= 2.
    if bn == 0:
        return (an > 0) - (an < 0)
    if an == 0:
        return (bn > 0) - (bn < 0)
    sa = 1 if an > 0 else -1
    sb = 1 if bn > 0 else -1
    if sa == sb:
        return sa
    lhs = an * an
    rhs = bn * bn * disc
    s = (lhs > rhs) - (lhs < rhs)
    return s if sa > 0 else -s


class QuadExt:
    """Immutable exact scalar (an + bn*sqrt(disc)) / den.

    The triple is kept with den >= 1, gcd(an, bn, den) = 1, and disc = 0
    exactly when bn = 0, so equality of values is equality of triples.
    Every scalar is built by _make, which normalizes, or by _raw, which
    trusts a triple that is already normal.
    """

    __slots__ = ("an", "bn", "den", "disc")

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __new__(cls, rat=0, coef=0, disc: int = 0):
        if isinstance(rat, float) or isinstance(coef, float):
            raise TypeError("QuadExt components must be exact (int or Fraction)")
        a = Fraction(rat)
        b = Fraction(coef)
        bn = b.numerator * a.denominator
        if bn:
            _require_valid_disc(disc)
        return _make(a.numerator * b.denominator, bn, a.denominator * b.denominator, disc)

    # -- constructors ---------------------------------------------------

    @classmethod
    def sqrt(cls, disc: int) -> "QuadExt":
        """The scalar sqrt(disc)."""
        return cls(0, 1, disc)

    @classmethod
    def parse(cls, text: str, disc: int | None = None) -> "QuadExt":
        """Parse 'p/q', 'p/q+r/s*sqrt(D)' or 'r/s*sqrt(D)' (signs optional,
        whitespace insignificant).  With an ambient disc given, a mismatched
        D in the text is a context error."""
        s = re.sub(r"\s+", "", text)
        if not s:
            raise ParseError("empty scalar")
        starts = [0] + [i for i in range(1, len(s)) if s[i] in "+-"]
        if len(starts) > 2:
            raise ParseError(f"malformed scalar {text!r}")
        rat = None
        coef = None
        found_disc = 0
        for a, b in zip(starts, starts[1:] + [len(s)]):
            term = s[a:b]
            sign = 1
            if term and term[0] in "+-":
                sign = -1 if term[0] == "-" else 1
                term = term[1:]
            m = _ROOT_TERM.match(term)
            if m:
                if coef is not None:
                    raise ParseError(f"two root terms in scalar {text!r}")
                coef = sign * _parse_fraction(m.group(1) or "1", text)
                found_disc = _disc_of(m.group(2))
            elif _RAT_TERM.match(term):
                if rat is not None:
                    raise ParseError(f"two rational terms in scalar {text!r}")
                rat = sign * _parse_fraction(term, text)
            else:
                raise ParseError(f"malformed scalar term {term!r} in {text!r}")
        if coef is not None and coef != 0:
            try:
                _require_valid_disc(found_disc)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
            if disc is not None and found_disc != disc:
                raise ContextMismatchError(
                    f"scalar {text!r} uses sqrt({found_disc}) under context D={disc}"
                )
        return cls(rat or 0, coef or 0, found_disc if coef else 0)

    # -- context --------------------------------------------------------

    @property
    def rat(self) -> Fraction:
        return Fraction(self.an, self.den)

    @property
    def coef(self) -> Fraction:
        return Fraction(self.bn, self.den)

    @property
    def is_rational(self) -> bool:
        return self.bn == 0

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = _merged_disc(self.disc, other.disc)
        return _make(
            self.an * other.den + other.an * self.den,
            self.bn * other.den + other.bn * self.den,
            self.den * other.den,
            d,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = _merged_disc(self.disc, other.disc)
        return _make(
            self.an * other.den - other.an * self.den,
            self.bn * other.den - other.bn * self.den,
            self.den * other.den,
            d,
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = _merged_disc(self.disc, other.disc)
        return _make(
            self.an * other.an + self.bn * other.bn * d,
            self.an * other.bn + self.bn * other.an,
            self.den * other.den,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        d = _merged_disc(self.disc, other.disc)
        # 1/x = den*(an - bn*sqrt(d)) / (an^2 - bn^2*d)
        norm = other.an * other.an - other.bn * other.bn * d
        inv = _make(other.den * other.an, -other.den * other.bn, norm, d)
        return self * inv

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        return _raw(-self.an, -self.bn, self.den, self.disc)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return self.an != 0 or self.bn != 0

    # -- order ----------------------------------------------------------

    def sign(self) -> int:
        return _sign3(self.an, self.bn, self.disc)

    def _cmp(self, other: "QuadExt") -> int:
        d = _merged_disc(self.disc, other.disc)
        return _sign3(
            self.an * other.den - other.an * self.den,
            self.bn * other.den - other.bn * self.den,
            d,
        )

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (
            self.an == other.an
            and self.bn == other.bn
            and self.den == other.den
            and self.disc == other.disc
        )

    def __lt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.bn == 0:
            return hash(Fraction(self.an, self.den))
        return hash((self.an, self.bn, self.den, self.disc))

    # -- integer part ---------------------------------------------------

    def floor(self) -> int:
        """Exact floor, via integer square-root brackets for the root term."""
        if self.bn == 0:
            return self.an // self.den
        s = math.isqrt(self.bn * self.bn * self.disc)
        if self.bn > 0:
            # bn*sqrt(disc) lies in [s, s+1), and the value is irrational,
            # so no integer sits strictly inside the bracket.
            return (self.an + s) // self.den
        return (self.an - s - 1) // self.den

    def mod_one(self) -> "QuadExt":
        """Fractional part, always in [0, 1)."""
        return self - self.floor()

    # -- renderings -----------------------------------------------------

    def __float__(self):
        an, bn, den = self.an, self.bn, self.den
        if not bn:
            return an / den
        if max(abs(an), abs(bn), den).bit_length() <= _FLOAT_BITS:
            return (an + bn * math.sqrt(self.disc)) / den
        # Past float range, from integers: bn sqrt(disc) to k binary places by
        # isqrt, then one correctly rounded division.  The truncation, below
        # 2^-k, sits 64 bits under the value, since |an + bn sqrt(disc)| >=
        # 1 / (|an| + |bn| sqrt(disc)) when an^2 - bn^2 disc is a nonzero integer.
        r2 = bn * bn * self.disc
        k = max(an.bit_length(), r2.bit_length()) + 64
        root = math.isqrt(r2 << 2 * k)
        return ((an << k) + (root if bn > 0 else -root)) / (den << k)

    def __str__(self):
        rat, coef = self.rat, self.coef
        for n in (rat.numerator, rat.denominator, coef.numerator, coef.denominator):
            if not -_PRINT_BOUND < n < _PRINT_BOUND:
                raise SearchCapError(
                    "an exact value with an integer of more than "
                    f"MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS} digits is too long to print"
                )
        if self.bn == 0:
            return str(rat)
        root = f"{abs(coef)}*sqrt({self.disc})"
        if self.an == 0:
            return root if self.bn > 0 else "-" + root
        sign = "+" if self.bn > 0 else "-"
        return f"{rat}{sign}{root}"

    def __repr__(self):
        return f"QuadExt({str(self)!r})"


# The slot setters, called directly: half the cost of object.__setattr__.
_SET_AN = QuadExt.an.__set__
_SET_BN = QuadExt.bn.__set__
_SET_DEN = QuadExt.den.__set__
_SET_DISC = QuadExt.disc.__set__


def _raw(an: int, bn: int, den: int, disc: int) -> QuadExt:
    # Internal: trusts that the triple is already normalized.
    obj = object.__new__(QuadExt)
    _SET_AN(obj, an)
    _SET_BN(obj, bn)
    _SET_DEN(obj, den)
    _SET_DISC(obj, disc)
    return obj


def _make(an: int, bn: int, den: int, disc: int) -> QuadExt:
    # Internal: normalizes but trusts disc, which comes from checked operands.
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        an, bn, den = -an, -bn, -den
    if bn == 0:
        disc = 0
    g = math.gcd(an, bn, den)
    return _raw(an // g, bn // g, den // g, disc)


def _coerce(x) -> QuadExt | None:
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, int):
        return _raw(x, 0, 1, 0)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator, 0)
    return None


def as_scalar(x) -> QuadExt:
    """Coerce an int, Fraction or QuadExt to QuadExt."""
    v = _coerce(x)
    if v is None:
        raise TypeError(f"cannot interpret {x!r} as an exact scalar")
    return v


def _parse_fraction(text: str, whole: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r} in {whole!r}: {exc}") from None


_RAT_TERM = re.compile(r"^\d+(?:/\d+)?$")
_ROOT_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?sqrt\((\d+)\)$")

ZERO = QuadExt(0)
ONE = QuadExt(1)
