"""Exact arithmetic in a real quadratic extension Q(sqrt(D)).

A scalar is rat + coef*sqrt(disc) with rational rat, coef.  All scalars in
one computation share a single square-free discriminant 2 <= disc <= MAX_DISC,
checked once where a scalar enters (the constructor and parse); pure
rationals are the degenerate case coef = 0 and combine freely with any
context.  Every predicate (sign, ordering, floor) is decided exactly with
integer arithmetic; floats appear only in diagnostic renderings.

Integer text has one reader, _read_int: the discriminant, the numerators and
denominators of scalars, word exponents and document integers all go
through it, each under a cap on its significant digits.  Literals are
ASCII: every digit is one of 0-9, as in everything the program writes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, List, Sequence, Tuple

from .errors import ContextMismatchError, ParseError, SearchCapError, shown

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


def _read_int(text: str, max_digits: int = MAX_PRINT_DIGITS,
              cap: str = f"MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS}") -> int:
    """The integer that text spells in decimal digits after an optional sign,
    the one reader of integer text.  Leading zeros are dropped, and more than
    max_digits significant digits raise SearchCapError naming cap before
    int() sees them: int() refuses more than 4300 digits with a ValueError.
    Anything but the ASCII digits 0-9 is a ParseError: int() would also read
    other Unicode decimal digits, whose zeros lstrip("0") keeps."""
    if len(text) <= max_digits and text.isascii() and text.isdecimal():
        return int(text)  # unsigned, ASCII, and short enough to be under the cap
    sign = text[:1] in ("+", "-")
    digits = text[sign:]
    if not (digits.isascii() and digits.isdecimal()):
        raise ParseError(f"expected an integer, got {shown(text)}")
    digits = digits.lstrip("0")
    if len(digits) > max_digits:
        raise SearchCapError(f"an integer of {len(digits)} significant digits exceeds {cap}")
    return int(text[:sign] + (digits or "0"))


_DISC_DIGITS = len(str(MAX_DISC))
_DISC_CAP = f"MAX_DISC = {MAX_DISC}"


def _read_disc(text: str) -> int:
    """The discriminant that text spells, with at most the digits of MAX_DISC."""
    return _read_int(text, _DISC_DIGITS, _DISC_CAP)


def _check_read_disc(disc: int) -> None:
    # _require_valid_disc for a discriminant read from text: ParseError, not ValueError
    try:
        _require_valid_disc(disc)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _merged_disc(d0: int, d1: int) -> int:
    # The one discriminant of two operands; 0 stands for a rational operand.
    if d0 and d1 and d0 != d1:
        raise ContextMismatchError(f"mixed discriminants {d0} and {d1}")
    return d0 or d1


Pair = Tuple[int, int]  # (a, b): the value (a + b sqrt(D)) / N on a lattice


def _lattice(values: Iterable[QuadExt], den: int = 1, disc: int = 0) -> Tuple[int, int]:
    """The lattice (1/N)(Z + Z sqrt(D)) of den, disc and the values: N the least
    common denominator, D their one discriminant (0 if all are rational)."""
    for v in values:
        den = math.lcm(den, v.den)
        disc = _merged_disc(disc, v.disc)
    return den, disc


def _pair(v: QuadExt, den: int) -> Pair:
    """v as the integer pair (a, b) with v = (a + b sqrt(D)) / den; den must be
    a multiple of v.den."""
    c = den // v.den
    return v.an * c, v.bn * c


def _sign3(an: int, bn: int, disc: int) -> int:
    # Sign of an + bn*sqrt(disc), exactly: it is the sign of
    # an*|an| + bn*|bn|*disc.  When the two terms share a sign, that is their
    # sign; otherwise an^2 against bn^2*disc decides, and equality there would
    # force sqrt(disc) rational, impossible for square-free disc >= 2.  The
    # hot loops (Iet.l1_distance_to_identity, _locate, _ranks, the walk of
    # intervals._merge_ends, words._push) test this inline in its branch
    # form, which measures faster than a call:
    # an + bn*sqrt(disc) > 0 exactly when
    #   (bn >= 0 or an*an > bn*bn*disc) if an > 0 else (bn > 0 and bn*bn*disc > an*an).
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


def _floor(an: int, bn: int, den: int, disc: int) -> int:
    """floor((an + bn sqrt(disc)) / den) for den >= 1, exactly."""
    if bn == 0:
        return an // den
    s = math.isqrt(bn * bn * disc)
    if bn > 0:
        # bn*sqrt(disc) lies in [s, s+1), and the value is irrational,
        # so no integer sits strictly inside the bracket.
        return (an + s) // den
    return (an - s - 1) // den


def _locate(
    bps: Sequence[Pair], xa: int, xb: int, disc: int, lo: int = 0, scale: int = 1
) -> int:
    """Index of the last pair (a, b) of the ascending bps, from lo on, with
    (a + b sqrt(disc)) * scale at or below xa + xb sqrt(disc); bps[lo] must
    qualify.  A plain bisection: about log2(len(bps) - lo) exact comparisons."""
    hi = len(bps)
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        a, b = bps[mid]
        p = xa - a * scale
        q = xb - b * scale
        # p + q sqrt(disc) < 0, the test of _sign3's comment negated
        if (q <= 0 or p * p > q * q * disc) if p < 0 else (q < 0 and q * q * disc > p * p):
            hi = mid
        else:
            lo = mid
    return lo


def _ranks(pts: Sequence[Pair], bps: Sequence[Pair], disc: int) -> List[int]:
    """For the ascending pairs pts, how many of the ascending pairs bps lie at
    or below each: the walk counterpart of _locate, one pass beside bps, so
    about len(pts) + len(bps) exact comparisons in all.  Against the ends of
    an interval set, an odd rank means the point lies in the set."""
    out = []
    i, n = 0, len(bps)
    for xa, xb in pts:
        while i < n:
            a, b = bps[i]
            p = xa - a
            q = xb - b
            # p + q sqrt(disc) < 0, as in _locate
            if (q <= 0 or p * p > q * q * disc) if p < 0 else (q < 0 and q * q * disc > p * p):
                break
            i += 1
        out.append(i)
    return out


_root = itemgetter(1)  # the b of a pair (a, b)


class _Frozen:
    """The immutable-value base: a subclass names its state in __slots__, and
    the state of an object is the values of the slots of its whole class
    chain, in order.  __init__ checks its arguments and ends with _set; an
    internal constructor that trusts its values calls _set on
    object.__new__(cls).  Every other write or delete is refused, and ==,
    hash, pickle and copy go through that one state tuple, _key."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = tuple(chain.from_iterable(
            vars(c).get("__slots__", ()) for c in reversed(cls.__mro__)))
        get = attrgetter(*names)
        # the state as a tuple, a 1-tuple too: attrgetter of one name returns
        # the bare value
        cls._key = get if len(names) > 1 else staticmethod(lambda obj: (get(obj),))
        # the slot setters, called directly: __setattr__ refuses every write
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        same = type(other) is type(self)
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        # pickle and copy rebuild through _set, since __setattr__ refuses
        # the default restore
        return _rebuilt, (type(self), *self._key(self))

    def _set(self, *values):
        """Store values into the slots, in the order of _key, and return self."""
        for put, value in zip(self._setters, values):
            put(self, value)
        return self


def _rebuilt(cls, *values) -> _Frozen:
    # the object of class cls that _Frozen.__reduce__ took apart
    return object.__new__(cls)._set(*values)


class _OnLattice(_Frozen):
    """An immutable exact object whose values all lie on one lattice
    (1/N)(Z + Z sqrt(D)): the breakpoints and translations of an Iet, the
    ends of an IntervalSet, the lengths, rates and bounds of a
    DisjointRotationSpec.

    Storage.  The object holds the denominator N in _den, the discriminant D
    in _disc (0 when every value is rational), and in each slot that a
    subclass names in its __slots__ a tuple of integer pairs (a, b), each
    meaning (a + b sqrt(D)) / N.  Operations run on these integers, and every
    order decision is exact: the sign of an integer difference, decided by
    _sign3 or, in the hot loops, by its rule inline.  Two operands with
    different denominators are rescaled once to their lcm by _over; operands
    from different discriminants raise ContextMismatchError.

    Canonical form: _store keeps the smallest N (gcd(N, all the integers) =
    1) and D = 0 when no pair has a root term, and each subclass keeps its
    own order and merging rules, so _Frozen's == and hash compare (N, D, the
    pair tuples).  QuadExt values are built from the pairs, by _scalars,
    only when they are read: _values, the one pairs-to-values step, which
    the integer searches of relations also call.
    """

    __slots__ = ("_den", "_disc")

    def _store(self, den: int, disc: int, *tuples: Sequence[Pair]):
        """Store pair sequences over den into self's pair slots, in the order
        of __slots__, and return self: den reduced as far as the integers
        allow, disc 0 when every pair is rational.  Nothing else is checked."""
        g = den
        for a, b in chain(*tuples):
            g = math.gcd(g, a, b)
            if g == 1:
                break
        if g > 1:
            den //= g
            tuples = [[(a // g, b // g) for a, b in pairs] for pairs in tuples]
        if disc and not any(map(_root, chain(*tuples))):
            disc = 0
        return self._set(den, disc, *map(tuple, tuples))

    def _over(self, den: int) -> Sequence[Sequence[Pair]]:
        """self's pair tuples over den, a multiple of self's N."""
        tuples = self._key(self)[2:]
        c = den // self._den
        if c == 1:
            return tuples
        return [[(a * c, b * c) for a, b in pairs] for pairs in tuples]

    def _scalars(self, pairs: Iterable[Pair]) -> Tuple[QuadExt, ...]:
        """The QuadExt values of pairs over self's N and D."""
        return _values(pairs, self._den, self._disc)


def _binary(body, reflected=False):
    """A QuadExt operator from body(x, y) on two QuadExt values, after the
    fractions.Fraction pattern: the other operand goes through _coerce, and
    an operand it refuses (a float, a str, None) gets NotImplemented, so
    Python tries the other side and then raises TypeError, or for == gives
    False.  reflected makes the operator for other OP self."""

    def op(self, other):
        if type(other) is not QuadExt:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return body(other, self) if reflected else body(self, other)

    return op


class QuadExt(_Frozen):
    """Immutable exact scalar (an + bn*sqrt(disc)) / den.

    The triple is kept with den >= 1, gcd(an, bn, den) = 1, and disc = 0
    exactly when bn = 0, so equality of values is equality of triples.
    Every scalar is built by _make, which normalizes, or by _raw, which
    trusts a triple that is already normal.
    """

    __slots__ = ("an", "bn", "den", "disc")

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
        whitespace insignificant).  _read_int reads every integer: p, q, r
        and s under MAX_PRINT_DIGITS, D under the digits of MAX_DISC.  With
        an ambient disc given, a mismatched D in the text is a context error.

        One pattern, _SCALAR, matches the text of one or two terms; text it
        does not match is split into terms only to say what is wrong."""
        compact = "".join(text.split())
        m = _SCALAR.fullmatch(compact)
        if m is not None:
            groups = m.groups()
            terms = [groups[:5]] if groups[5] is None else [groups[:5], groups[5:]]
        else:
            # split before each sign that does not start the text
            terms = re.split(r"(?<=.)(?=[+-])", compact)
            if terms == [""]:
                raise ParseError("empty scalar")
            if len(terms) > 2:
                raise ParseError(f"malformed scalar {shown(text)}")
            # a term that _SCALAR does not match as one term stays text, and
            # is reported when the loop reaches it, after the terms before it
            terms = [term if (t := _SCALAR.fullmatch(term)) is None else t.groups()[:5]
                     for term in terms]
        read = {}  # "rational" and "root": the term's numerator, denominator, D
        for term in terms:
            if isinstance(term, str):
                raise ParseError(f"malformed scalar term {shown(term)} in {shown(text)}")
            sign, p, q, d, bare_d = term
            d = d or bare_d
            kind = "rational" if d is None else "root"
            if kind in read:
                raise ParseError(f"two {kind} terms in scalar {shown(text)}")
            den = _read_int(q or "1")
            if not den:
                raise ParseError(f"zero denominator in scalar {shown(text)}")
            num = _read_int(p or "1")
            read[kind] = -num if sign == "-" else num, den, d and _read_disc(d)
        a, b, _ = read.get("rational", (0, 1, 0))
        c, e, root = read.get("root", (0, 1, 0))
        if c:
            _check_read_disc(root)
            if disc is not None and root != disc:
                raise ContextMismatchError(
                    f"scalar {shown(text)} uses sqrt({root}) under context D={disc}"
                )
        return _make(a * e, c * b, b * e, root)

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

    def _add(self, other):
        d = _merged_disc(self.disc, other.disc)
        return _make(
            self.an * other.den + other.an * self.den,
            self.bn * other.den + other.bn * self.den,
            self.den * other.den,
            d,
        )

    def _sub(self, other):
        d = _merged_disc(self.disc, other.disc)
        return _make(
            self.an * other.den - other.an * self.den,
            self.bn * other.den - other.bn * self.den,
            self.den * other.den,
            d,
        )

    def _mul(self, other):
        d = _merged_disc(self.disc, other.disc)
        return _make(
            self.an * other.an + self.bn * other.bn * d,
            self.an * other.bn + self.bn * other.an,
            self.den * other.den,
            d,
        )

    def _div(self, other):
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        d = _merged_disc(self.disc, other.disc)
        # 1/x = den*(an - bn*sqrt(d)) / (an^2 - bn^2*d)
        norm = other.an * other.an - other.bn * other.bn * d
        return self._mul(_make(other.den * other.an, -other.den * other.bn, norm, d))

    __add__ = __radd__ = _binary(_add)
    __sub__ = _binary(_sub)
    __rsub__ = _binary(_sub, reflected=True)
    __mul__ = __rmul__ = _binary(_mul)
    __truediv__ = _binary(_div)
    __rtruediv__ = _binary(_div, reflected=True)

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

    def _eq(self, other):
        return (
            self.an == other.an
            and self.bn == other.bn
            and self.den == other.den
            and self.disc == other.disc
        )

    __eq__ = _binary(_eq)
    __lt__ = _binary(lambda x, y: x._cmp(y) < 0)
    __le__ = _binary(lambda x, y: x._cmp(y) <= 0)
    __gt__ = _binary(lambda x, y: x._cmp(y) > 0)
    __ge__ = _binary(lambda x, y: x._cmp(y) >= 0)

    def __hash__(self):
        if self.bn == 0:
            return hash(Fraction(self.an, self.den))
        return hash((self.an, self.bn, self.den, self.disc))

    # -- integer part ---------------------------------------------------

    def floor(self) -> int:
        """Exact floor, via integer square-root brackets for the root term."""
        return _floor(self.an, self.bn, self.den, self.disc)

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
        # rat = an/den and |coef| = |bn|/den, each written in lowest terms
        an, bn, den = self.an, self.bn, self.den
        g = math.gcd(an, den)
        h = math.gcd(bn, den)
        p, q, r, s = an // g, den // g, abs(bn) // h, den // h
        if max(abs(p), q, r, s) >= _PRINT_BOUND:
            raise SearchCapError(
                "an exact value with an integer of more than "
                f"MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS} digits is too long to print"
            )
        rat = f"{p}" if q == 1 else f"{p}/{q}"
        if bn == 0:
            return rat
        root = f"{r}*sqrt({self.disc})" if s == 1 else f"{r}/{s}*sqrt({self.disc})"
        if an == 0:
            return root if bn > 0 else "-" + root
        return f"{rat}{'+' if bn > 0 else '-'}{root}"

    def __repr__(self):
        return f"QuadExt({str(self)!r})"


# The slot setters, called directly by _raw, the hottest constructor.
_SET_AN, _SET_BN, _SET_DEN, _SET_DISC = QuadExt._setters


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


def _values(pairs: Iterable[Pair], den: int, disc: int) -> Tuple[QuadExt, ...]:
    """The QuadExt values of integer pairs (a, b) over den and disc."""
    return tuple([_make(a, b, den, disc) for a, b in pairs])


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


# A scalar: one term, then maybe a second that starts with its sign.  A term
# is a sign, then p, p/q, sqrt(D), p*sqrt(D) or p/q*sqrt(D).  Text with no
# sign past its start can match only as one term.
_BODY = r"(?:([0-9]+)(?:/([0-9]+))?(?:\*sqrt\(([0-9]+)\))?|sqrt\(([0-9]+)\))"
_SCALAR = re.compile(r"([+-]?)" + _BODY + r"(?:([+-])" + _BODY + ")?")

ZERO = QuadExt(0)
ONE = QuadExt(1)
