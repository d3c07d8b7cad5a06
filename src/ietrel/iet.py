"""Interval exchange transformations of [0, 1) with exact scalar data.

Every Iet is a bijection of [0, 1): the constructor rejects pieces whose
images do not tile [0, 1), and compose, inverse and power build their
results without re-checking, since the bijections of [0, 1) form a group.
Composition follows (f.compose(g))(x) = f(g(x)): the right-hand factor acts
first.

Storage.  The group operations only add and subtract translations, so all
the breakpoints and translations of a map lie in one lattice
(1/N)(Z + Z sqrt(D)).  An Iet stores the denominator N, the discriminant D
(0 when every value is rational) and each breakpoint and translation as an
integer pair (a, b) meaning (a + b sqrt(D)) / N.  Every operation runs on
these integers, and every order decision is exact: the sign of an integer
difference, decided by scalars._sign3.  Two operands with different
denominators are rescaled once to their lcm; operands from different
discriminants raise ContextMismatchError.

Canonical form: ascending breakpoints starting at 0, one translation per
interval, adjacent intervals with equal translations merged, and the
smallest N (gcd(N, all the integers) = 1).  So == and hash compare integer
tuples.

QuadExt is the only scalar of the API: breakpoints, translations, pieces(),
apply, discontinuities, support, image_of and l1_distance_to_identity build
QuadExt values from the integers when they are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterator, List, Sequence, Tuple

from .errors import InvariantError, PreconditionError
from .intervals import IntervalSet
from .scalars import (
    ONE, ZERO, QuadExt, _lattice, _make, _merged_disc, _pair, _sign3, as_scalar,
)

__all__ = ["Iet", "PermLambdaSpec"]

Pair = Tuple[int, int]  # (a, b): the value (a + b sqrt(D)) / N of one Iet


def check_lengths(lengths: Sequence[QuadExt]) -> None:
    """Raise PreconditionError unless the lengths are positive and sum to 1."""
    total = ZERO
    for v in lengths:
        if v.sign() <= 0:
            raise PreconditionError(f"lengths must be positive, got {v}")
        total = total + v
    if total != ONE:
        raise PreconditionError(f"lengths must sum to 1, got {total}")


@dataclass(frozen=True)
class PermLambdaSpec:
    """Combinatorial IET data: a permutation pi of {1..n} and lengths summing to 1."""

    pi: Tuple[int, ...]
    lengths: Tuple[QuadExt, ...]

    def __post_init__(self):
        object.__setattr__(self, "pi", tuple(int(p) for p in self.pi))
        object.__setattr__(self, "lengths", tuple(as_scalar(v) for v in self.lengths))
        n = len(self.pi)
        if n == 0 or len(self.lengths) != n:
            raise PreconditionError("pi and lengths must be nonempty and parallel")
        if sorted(self.pi) != list(range(1, n + 1)):
            raise PreconditionError(f"pi must permute 1..{n}, got {self.pi}")
        check_lengths(self.lengths)

    @property
    def n(self) -> int:
        return len(self.pi)


class Iet:
    """An invertible piecewise translation of [0, 1), in canonical form."""

    __slots__ = ("_den", "_disc", "_bps", "_trs")

    def __init__(self, breakpoints: Sequence, translations: Sequence):
        """Check outside data once: raises PreconditionError unless the pieces
        form a bijection of [0, 1), then stores them in canonical form."""
        bps = [as_scalar(b) for b in breakpoints]
        trs = [as_scalar(t) for t in translations]
        if not bps or len(bps) != len(trs):
            raise PreconditionError("need equally many breakpoints and translations")
        den, disc = _lattice(bps + trs)
        ibps = [_pair(v, den) for v in bps]
        if ibps[0] != (0, 0):
            raise PreconditionError("first breakpoint must be 0")
        for (a0, b0), (a1, b1) in zip(ibps, ibps[1:]):
            if _sign3(a1 - a0, b1 - b0, disc) <= 0:
                raise PreconditionError("breakpoints must be strictly ascending")
        if _sign3(ibps[-1][0] - den, ibps[-1][1], disc) >= 0:
            raise PreconditionError("breakpoints must stay below 1")
        itrs = [_pair(v, den) for v in trs]
        # merge equal neighbours: keep each piece whose translation differs
        # from its left neighbour's
        keep = [j for j in range(len(itrs)) if not j or itrs[j] != itrs[j - 1]]
        _store(self, den, disc, [ibps[j] for j in keep], [itrs[j] for j in keep])
        if len(_image_order(self._bps, self._trs, self._den)[0]) < self.num_intervals:
            raise PreconditionError(
                "the iet is not a bijection: its image intervals do not tile [0, 1)"
            )

    def __setattr__(self, name, value):
        raise AttributeError("Iet is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls) -> "Iet":
        return cls([ZERO], [ZERO])

    @classmethod
    def rotation(cls, amount) -> "Iet":
        """The rotation x -> x + amount (mod 1)."""
        w = as_scalar(amount).mod_one()
        if not w:
            return cls.identity()
        return cls([ZERO, ONE - w], [w, w - ONE])

    @classmethod
    def from_perm_lambda(cls, spec: PermLambdaSpec) -> "Iet":
        """Exchange the intervals of lengths lambda_j into the order given by pi.

        The j-th interval is translated by the total length that precedes its
        image position minus the total length that precedes it.  One pass in
        pi order keeps the first total as a running sum.
        """
        n = spec.n
        beta = [ZERO]
        for v in spec.lengths:
            beta.append(beta[-1] + v)
        omegas = [ZERO] * n
        before_image = ZERO
        for j in sorted(range(n), key=spec.pi.__getitem__):
            omegas[j] = before_image - beta[j]
            before_image = before_image + spec.lengths[j]
        return cls(beta[:n], omegas)

    # -- basic queries ------------------------------------------------------

    @property
    def breakpoints(self) -> Tuple[QuadExt, ...]:
        return self._scalars(self._bps)

    @property
    def translations(self) -> Tuple[QuadExt, ...]:
        return self._scalars(self._trs)

    def _scalars(self, pairs: Sequence[Pair]) -> Tuple[QuadExt, ...]:
        den, disc = self._den, self._disc
        return tuple([_make(a, b, den, disc) for a, b in pairs])

    @property
    def num_intervals(self) -> int:
        return len(self._bps)

    def pieces(self) -> Iterator[Tuple[QuadExt, QuadExt, QuadExt]]:
        """Yield (lo, hi, translation) triples in domain order."""
        bps = self.breakpoints
        return zip(bps, bps[1:] + (ONE,), self.translations)

    def apply(self, x) -> QuadExt:
        x = as_scalar(x)
        disc = _merged_disc(self._disc, x.disc)
        xa, xb, xden = x.an, x.bn, x.den
        if _sign3(xa, xb, disc) < 0 or _sign3(xa - xden, xb, disc) >= 0:
            raise PreconditionError(f"point {x} outside [0, 1)")
        den = self._den
        # compare x * den against each breakpoint * xden
        ta, tb = self._trs[_locate(self._bps, xa * den, xb * den, disc, scale=xden)]
        return _make(xa * den + ta * xden, xb * den + tb * xden, xden * den, disc)

    def is_identity(self) -> bool:
        return self._trs == ((0, 0),)

    def discontinuities(self) -> Tuple[QuadExt, ...]:
        """Interior breakpoints; 0 is never a discontinuity."""
        return self._scalars(self._bps[1:])

    def support(self) -> IntervalSet:
        den, disc = self._den, self._disc
        return IntervalSet(
            (_make(*lo, den, disc), _make(*hi, den, disc))
            for lo, hi, t in _pieces(self) if t != (0, 0)
        )

    def l1_distance_to_identity(self) -> QuadExt:
        # An Iet preserves length, so the integral of f(x) - x, the sum of
        # t*(hi - lo), is 0: right-moving pieces carry half of sum |t|*(hi - lo).
        # Each product (ta + tb sqrt(D)) (wa + wb sqrt(D)) lies over den^2.
        disc = self._disc
        rat = root = 0
        for (la, lb), (ha, hb), (ta, tb) in _pieces(self):
            if _sign3(ta, tb, disc) > 0:
                wa = ha - la
                wb = hb - lb
                rat += ta * wa + tb * wb * disc
                root += ta * wb + tb * wa
        return _make(2 * rat, 2 * root, self._den * self._den, disc)

    # -- group structure ----------------------------------------------------

    def compose(self, other: "Iet") -> "Iet":
        """self after other: (self.compose(other))(x) = self(other(x)).

        Other's pieces [lo, hi) + t are first walked in _image_order: their
        images tile [0, 1) and so meet self's breakpoints in ascending
        order.  Each image starts in the piece of self where the one before
        it ended, and a bisection from there finds the last breakpoint of
        self at or below its hi; an image that ends exactly on a breakpoint
        meets only the pieces before it.
        Then, in domain order, each piece of other is cut at b - t wherever
        its image crosses a breakpoint b of self, and the fragment that
        lands in self's piece j moves by t + self's j-th translation.
        Nothing is sorted: the cost is one bisection per piece of other
        plus a few integer additions per output piece.  Equal
        translations can meet only where the fragments of two pieces of
        other meet, since self has no two equal neighbours."""
        den = self._den
        disc = _merged_disc(self._disc, other._disc)
        sbps = self._bps
        strs = self._trs
        obps = other._bps
        otrs = other._trs
        if other._den != den:
            den = math.lcm(den, other._den)
            sbps, strs = _rescaled(self, den)
            obps, otrs = _rescaled(other, den)
        k = len(obps)
        # firsts[p], lasts[p]: the first and the last piece of self that the
        # image of other's piece p meets
        firsts = [0] * k
        lasts = [0] * k
        order, ohis = _image_order(obps, otrs, den)
        j = 0
        for p in order:
            ea, eb = e = ohis[p]
            firsts[p] = j
            j = _locate(sbps, ea, eb, disc, lo=j)
            lasts[p] = j - (sbps[j] == e)
        bps: List[Pair] = []
        trs: List[Pair] = []
        prev = None
        for lo, (ta, tb), first, last in zip(obps, otrs, firsts, lasts):
            ua, ub = strs[first]
            t = (ta + ua, tb + ub)
            if t != prev:
                bps.append(lo)
                trs.append(t)
            while first < last:
                first += 1
                sa, sb = sbps[first]
                ua, ub = strs[first]
                bps.append((sa - ta, sb - tb))
                t = (ta + ua, tb + ub)
                trs.append(t)
            prev = t
        return _store(object.__new__(Iet), den, disc, bps, trs)

    def inverse(self) -> "Iet":
        # in image order, each image starts where the one before it ended
        order, his = _image_order(self._bps, self._trs, self._den)
        trs = self._trs
        return _store(
            object.__new__(Iet),
            self._den,
            self._disc,
            [(0, 0)] + [his[p] for p in order[:-1]],
            [(-ta, -tb) for ta, tb in (trs[p] for p in order)],
        )

    def power(self, m: int) -> "Iet":
        """m-th compositional power, by repeated squaring; negative m allowed."""
        if m == 0:
            return Iet.identity()
        if m < 0:
            return self.inverse().power(-m)
        base = self
        result = None
        while True:
            if m & 1:
                result = base if result is None else result.compose(base)
            m >>= 1
            if not m:
                return result
            base = base.compose(base)

    def conjugate(self, c: "Iet") -> "Iet":
        """c o self o c^{-1}."""
        return c.compose(self).compose(c.inverse())

    def orbit(self, x, m: int) -> list:
        """The first m orbit points [x, f(x), ..., f^(m-1)(x)]."""
        if m < 1:
            raise PreconditionError("orbit needs at least one point")
        x = as_scalar(x)
        out = [x]
        for _ in range(m - 1):
            x = self.apply(x)
            out.append(x)
        return out

    def image_of(self, s: IntervalSet) -> IntervalSet:
        """Exact image of an interval set under this map."""
        ends = [v for span in s for v in span]
        den, disc = _lattice(ends, self._den, self._disc)
        bps, trs = _rescaled(self, den)
        m = len(bps)
        out = []
        j = 0  # the spans ascend, so each search starts where the last one ended
        for lo, hi in s:
            la, lb = _pair(lo, den)
            ha, hb = _pair(hi, den)
            j = _locate(bps, la, lb, disc, lo=j)
            while True:
                ta, tb = trs[j]
                ca, cb = bps[j + 1] if j + 1 < m else (den, 0)
                if _sign3(ca - ha, cb - hb, disc) >= 0:
                    ca, cb = ha, hb
                out.append((_make(la + ta, lb + tb, den, disc),
                            _make(ca + ta, cb + tb, den, disc)))
                if (ca, cb) == (ha, hb):
                    break
                la, lb = ca, cb
                j += 1
        return IntervalSet(out)

    # -- validation -----------------------------------------------------------

    def validate(self) -> "Iet":
        """Re-run the constructor's checks on the stored pieces; raises
        InvariantError unless they form a bijection of [0, 1) in canonical form.

        Maps built by the group operations are never re-checked, so this is
        how a test confirms that the algebra kept the invariants."""
        try:
            rebuilt = Iet(self.breakpoints, self.translations)
        except PreconditionError as exc:
            raise InvariantError(str(exc)) from None
        if rebuilt != self:
            raise InvariantError(
                "canonical form violated: equal neighbours or a reducible denominator"
            )
        return self

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Iet):
            return NotImplemented
        return (
            self._den == other._den
            and self._disc == other._disc
            and self._bps == other._bps
            and self._trs == other._trs
        )

    def __hash__(self):
        return hash((self._den, self._disc, self._bps, self._trs))

    def __repr__(self):
        body = ", ".join(
            f"[{lo},{hi})+{t}" for lo, hi, t in self.pieces()
        )
        return f"Iet({body})"


# -- the integer kernel ----------------------------------------------------------


def _rescaled(f: Iet, den: int) -> Tuple[Sequence[Pair], Sequence[Pair]]:
    """f's breakpoints and translations over den, a multiple of f's denominator."""
    c = den // f._den
    if c == 1:
        return f._bps, f._trs
    return [(a * c, b * c) for a, b in f._bps], [(a * c, b * c) for a, b in f._trs]


def _pieces(f: Iet) -> Iterator[Tuple[Pair, Pair, Pair]]:
    """(lo, hi, translation) integer triples of f in domain order."""
    bps = f._bps
    return zip(bps, bps[1:] + ((f._den, 0),), f._trs)


def _locate(
    bps: Sequence[Pair], xa: int, xb: int, disc: int, lo: int = 0, scale: int = 1
) -> int:
    """Index of the last breakpoint (a, b) from lo on with (a + b sqrt(disc)) * scale
    at or below xa + xb sqrt(disc); bps[lo] must qualify.  A plain bisection:
    about log2(len(bps) - lo) exact comparisons."""
    hi = len(bps)
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        a, b = bps[mid]
        if _sign3(xa - a * scale, xb - b * scale, disc) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def _image_order(
    bps: Sequence[Pair], trs: Sequence[Pair], den: int
) -> Tuple[List[int], List[Pair]]:
    """The indices of a map's pieces in the order of their images, and the
    image hi of each piece, for pieces over den.

    No comparison is needed: the first image starts at 0, and each next one
    starts where the last one ended, found by its exact integer pair.  The
    order is shorter than bps exactly when the images do not tile [0, 1),
    since each step moves strictly up."""
    piece_at = dict(zip([(a + ta, b + tb) for (a, b), (ta, tb) in zip(bps, trs)],
                        range(len(bps))))
    his = [(ha + ta, hb + tb) for (ha, hb), (ta, tb) in zip([*bps[1:], (den, 0)], trs)]
    order = []
    p = piece_at.get((0, 0))
    while p is not None:
        order.append(p)
        p = piece_at.get(his[p])
    return order, his


_root = itemgetter(1)  # the b of a pair (a, b)
# The slot setters, called directly: Iet.__setattr__ refuses every write.
_SET_DEN = Iet._den.__set__
_SET_DISC = Iet._disc.__set__
_SET_BPS = Iet._bps.__set__
_SET_TRS = Iet._trs.__set__


def _store(f: Iet, den: int, disc: int, bps: Sequence[Pair], trs: Sequence[Pair]) -> Iet:
    """Store pieces over den into f, and return f: den reduced as far as the
    integers allow, disc 0 when every value is rational.

    The pieces must already have no two neighbours with equal translations;
    the constructor merges them, compose never emits them, and the inverse of
    a canonical map has none.  Nothing is checked: the constructor checks
    outside data first, and the group operations build their results here,
    since products and inverses of bijections of [0, 1) are bijections."""
    g = den
    for a, b in chain(trs, bps):
        g = math.gcd(g, a, b)
        if g == 1:
            break
    if g > 1:
        den //= g
        bps = [(a // g, b // g) for a, b in bps]
        trs = [(a // g, b // g) for a, b in trs]
    if disc and not any(map(_root, bps)) and not any(map(_root, trs)):
        disc = 0
    _SET_DEN(f, den)
    _SET_DISC(f, disc)
    _SET_BPS(f, tuple(bps))
    _SET_TRS(f, tuple(trs))
    return f
