"""Finite unions of half-open subintervals of [0, 1), with exact endpoints.

Storage.  A set keeps its ascending ends lo_0 < hi_0 < lo_1 < ... as integer
pairs in the form of scalars._OnLattice, as an Iet keeps its breakpoints.  A
point lies in the set exactly when an odd number of ends lie at or below it.
Canonical form adds that touching spans coalesce.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable, Iterator, List, Sequence, Tuple

from .scalars import (
    ONE, ZERO, Pair, QuadExt, _lattice, _locate, _make, _merged_disc, _OnLattice, _pair,
    _sign3, as_scalar,
)

__all__ = ["IntervalSet", "circular_ball", "neighborhood_union"]

Span = Tuple[QuadExt, QuadExt]


class IntervalSet(_OnLattice):
    """A finite union of disjoint [lo, hi) spans inside [0, 1)."""

    __slots__ = ("_ends",)

    def __init__(self, spans: Iterable[Span] = ()):
        """Check outside spans: raises ValueError for a span with lo > hi or
        one that leaves [0, 1); empty spans are dropped."""
        spans = [(as_scalar(lo), as_scalar(hi)) for lo, hi in spans]
        den, disc = _lattice(v for span in spans for v in span)
        pairs = []
        for lo, hi in spans:
            la, lb = _pair(lo, den)
            ha, hb = _pair(hi, den)
            width = _sign3(ha - la, hb - lb, disc)
            if width < 0:
                raise ValueError(f"inverted span [{lo}, {hi})")
            if width == 0:
                continue
            if _sign3(la, lb, disc) < 0 or _sign3(ha - den, hb, disc) > 0:
                raise ValueError(f"span [{lo}, {hi}) leaves [0, 1)")
            pairs.append(((la, lb), (ha, hb)))
        self._store(den, disc, _union_ends(disc, pairs))

    @classmethod
    def full(cls) -> "IntervalSet":
        return _from_ends(1, 0, [(0, 0), (1, 0)])

    # -- queries ----------------------------------------------------------

    @property
    def spans(self) -> Tuple[Span, ...]:
        ends = self._scalars(self._ends)
        return tuple(zip(ends[::2], ends[1::2]))

    def is_empty(self) -> bool:
        return not self._ends

    def __bool__(self):
        return bool(self._ends)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self):
        return len(self._ends) >> 1

    def measure(self) -> QuadExt:
        ends = self._ends
        a = b = 0
        for i in range(0, len(ends), 2):
            a += ends[i + 1][0] - ends[i][0]
            b += ends[i + 1][1] - ends[i][1]
        return _make(a, b, self._den, self._disc)

    def contains_point(self, x) -> bool:
        x = as_scalar(x)
        disc = _merged_disc(self._disc, x.disc)
        ends, den = self._ends, self._den
        # compare x * den against each end * x.den
        xa, xb = x.an * den, x.bn * den
        if not ends or _sign3(xa - ends[0][0] * x.den, xb - ends[0][1] * x.den, disc) < 0:
            return False
        # x lies in the set when the last end at or below it is a lo
        return not _locate(ends, xa, xb, disc, scale=x.den) & 1

    # -- algebra ----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return _merge(self, other, False)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return _merge(self, other, True)

    def is_disjoint(self, other: "IntervalSet") -> bool:
        return not _merge(self, other, True)

    def contains_set(self, other: "IntervalSet") -> bool:
        """True when every point of other lies in self."""
        # both sets are canonical, so equal sets have equal ends
        return _merge(self, other, True) == other

    def complement(self) -> "IntervalSet":
        # toggle membership at 0 and at 1: each end of self stays an end
        ends = list(self._ends)
        one = (self._den, 0)
        if ends and ends[-1] == one:
            ends.pop()
        else:
            ends.append(one)
        if ends and ends[0] == (0, 0):
            del ends[0]
        else:
            ends.insert(0, (0, 0))
        return _from_ends(self._den, self._disc, ends)

    def __repr__(self):
        body = " u ".join(f"[{lo}, {hi})" for lo, hi in self.spans)
        return f"IntervalSet({body or 'empty'})"


def neighborhood_union(points: Sequence[QuadExt], epsilon) -> IntervalSet:
    """Union of the circular epsilon-balls around the given points.

    Each ball is [p - epsilon, p + epsilon) taken mod 1: at most two spans,
    and all of [0, 1) once 2 * epsilon >= 1.  Points must lie in [0, 1) and
    epsilon must be positive.  The spans go to the checked constructor, which
    joins them."""
    points = [as_scalar(p) for p in points]
    radius = as_scalar(epsilon)
    _lattice(points, radius.den, radius.disc)  # two fields: ContextMismatchError first
    if radius.sign() <= 0:
        raise ValueError("radius must be positive")
    spans = []
    for p in points:
        if p.sign() < 0 or p >= 1:
            raise ValueError(f"center {p} outside [0, 1)")
        lo, hi = p - radius, p + radius
        if 2 * radius >= 1:
            spans.append((ZERO, ONE))
        elif lo.sign() < 0:
            spans += [(ZERO, hi), (lo + 1, ONE)]
        elif hi > 1:
            spans += [(lo, ONE), (ZERO, hi - 1)]
        else:
            spans.append((lo, hi))
    return IntervalSet(spans)


def circular_ball(center, radius) -> IntervalSet:
    """The radius-ball [center - r, center + r) mod 1 on the circle R/Z, as at
    most two left-closed spans."""
    return neighborhood_union((center,), radius)


# -- the integer walks -------------------------------------------------------------


def _merge(s: IntervalSet, t: IntervalSet, both: bool) -> IntervalSet:
    """s & t when both, else s | t, by _merge_ends on their joint lattice."""
    den, disc, (a,), (b,) = s._joint(t)
    return _from_ends(den, disc, _merge_ends(a, b, disc, both))


def _merge_ends(a: Sequence[Pair], b: Sequence[Pair], disc: int, both: bool) -> List[Pair]:
    """The ends of the intersection of the sets with ends a and b when both,
    else of their union, all over one N: one walk over the ends of both in
    ascending order.  After the walk passes a point, it lies in a exactly when
    an odd number of a's ends were passed; an end of the result is each point
    where the wanted membership changes."""
    na, nb = len(a), len(b)
    out: List[Pair] = []
    i = j = inside = 0
    while i < na and j < nb:
        x = a[i]
        y = b[j]
        if x == y:
            i += 1
            j += 1
        else:
            p = x[0] - y[0]
            q = x[1] - y[1]
            # p + q sqrt(disc) < 0, the test of scalars._sign3's comment negated
            if (q <= 0 or p * p > q * q * disc) if p < 0 else (q < 0 and q * q * disc > p * p):
                i += 1
            else:
                j += 1
                x = y
        now = (i & j if both else i | j) & 1
        if now != inside:
            out.append(x)
            inside = now
    if not both:
        # past the end of one set, the other's ends alone decide
        out += a[i:] if i < na else b[j:]
    return out


def _ball_ends(pts: Sequence[Pair], radius: Pair, den: int, disc: int) -> List[Pair]:
    """The ends of the union of the circular balls [p - r, p + r) mod 1
    around the ascending points pts, all over den, for a radius r at most half
    the least circular gap of the points: then balls can only touch, and only
    the first ball can reach below 0 or the last past 1, not both.  So one
    walk in point order gives the ends, with no sort and no comparison but
    the two at the ends."""
    ra, rb = radius
    ends: List[Pair] = []
    for a, b in pts:
        lo = (a - ra, b - rb)
        hi = (a + ra, b + rb)
        if ends and ends[-1] == lo:
            ends[-1] = hi
        else:
            ends += (lo, hi)
    if not ends:
        return ends
    (la, lb), (ha, hb) = ends[0], ends[-1]
    if _sign3(la, lb, disc) < 0:
        # the first ball's part below 0 wraps to end at 1
        ends[0] = (0, 0)
        if ends[-1] == (la + den, lb):
            ends[-1] = (den, 0)
        else:
            ends += ((la + den, lb), (den, 0))
    elif _sign3(ha - den, hb, disc) > 0:
        # the last ball's part past 1 wraps to start at 0
        ends[-1] = (den, 0)
        if ends[0] == (ha - den, hb):
            ends[0] = (0, 0)
        else:
            ends[:0] = ((0, 0), (ha - den, hb))
    return ends


def _union_ends(disc: int, spans: List[Tuple[Pair, Pair]]) -> List[Pair]:
    """The ends of the union of nonempty spans given in any order: sorted by
    lo, then each span that starts at or below the last hi extends it.
    Sorting spans that are nearly in order costs about one exact comparison
    per span."""
    spans.sort(key=cmp_to_key(lambda s, t: _sign3(s[0][0] - t[0][0], s[0][1] - t[0][1], disc)))
    ends: List[Pair] = []
    for lo, hi in spans:
        if ends and _sign3(lo[0] - ends[-1][0], lo[1] - ends[-1][1], disc) <= 0:
            if _sign3(hi[0] - ends[-1][0], hi[1] - ends[-1][1], disc) > 0:
                ends[-1] = hi
        else:
            ends += (lo, hi)
    return ends


def _from_ends(den: int, disc: int, ends: Sequence[Pair]) -> IntervalSet:
    """The set whose ends over den are ends: ascending, strictly, with no two
    spans touching."""
    return object.__new__(IntervalSet)._store(den, disc, ends)
