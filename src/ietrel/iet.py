"""Interval exchange transformations of [0, 1) with exact scalar data.

Every Iet is a bijection of [0, 1): the constructor rejects pieces whose
images do not tile [0, 1), and compose, inverse and power build their
results without re-checking, since the bijections of [0, 1) form a group.
Composition follows (f.compose(g))(x) = f(g(x)): the right-hand factor acts
first.

Storage.  The group operations only add and subtract translations, so all
the breakpoints and translations of a map lie in one lattice; an Iet keeps
them as integer pairs in the form of scalars._OnLattice.  Canonical form adds
ascending breakpoints starting at 0, one translation per interval, and
adjacent intervals with equal translations merged.

QuadExt is the only scalar of the API: breakpoints, translations, pieces(),
apply, discontinuities and l1_distance_to_identity build QuadExt values from
the integers when they are asked for.  support and image_of hand out
IntervalSets, which keep their ends on a lattice in the same way.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

from .errors import SHOWN_CHARS, PreconditionError, shown
from .intervals import IntervalSet, _from_ends
from .scalars import (
    ONE, ZERO, Pair, QuadExt, _Frozen, _lattice, _locate, _make, _merged_disc, _OnLattice,
    _pair, _ranks, _sign3, as_scalar,
)

__all__ = ["Iet", "PermLambdaSpec"]


def check_lengths(lengths: Sequence[QuadExt]) -> Tuple[QuadExt, ...]:
    """The bounds beta_0 = 0 < beta_1 < ... < beta_n = 1 that the lengths sum
    to; raises PreconditionError unless they are positive and sum to 1."""
    beta = [ZERO]
    for v in lengths:
        if v.sign() <= 0:
            raise PreconditionError(f"lengths must be positive, got {_quoted(v, 0)}")
        beta.append(beta[-1] + v)
    if beta[-1] != ONE:
        raise PreconditionError(f"lengths must sum to 1, got {_quoted(beta[-1], 1)}")
    return tuple(beta)


def _quoted(v: QuadExt, ref: int) -> str:
    """v's text for a message, or only the side of ref that v lies on when an
    integer of v has more than SHOWN_CHARS digits: the sum of many lengths can
    have thousands of digits, or more than str() will print."""
    if max(abs(v.an), abs(v.bn), v.den) < 10**SHOWN_CHARS:
        return str(v)
    return f"a value {'above' if v > ref else 'below'} {ref} too long to show"


def _check_point(x: QuadExt, disc: int) -> None:
    """Refuse a point x outside [0, 1); disc is x's or one it merges with."""
    below = _sign3(x.an, x.bn, disc) < 0
    if below or _sign3(x.an - x.den, x.bn, disc) >= 0:
        raise PreconditionError(f"point {_quoted(x, 0 if below else 1)} outside [0, 1)")


class PermLambdaSpec(_Frozen):
    """Combinatorial IET data: a permutation pi of {1..n} and lengths summing to 1."""

    __slots__ = ("pi", "lengths", "_bounds")

    def __init__(self, pi: Sequence[int], lengths: Sequence):
        pi = tuple(pi)
        lengths = tuple(as_scalar(v) for v in lengths)
        n = len(pi)
        if n == 0 or len(lengths) != n:
            raise PreconditionError("pi and lengths must be nonempty and parallel")
        for p in pi:
            if type(p) is not int:
                raise PreconditionError(f"pi entries must be integers, got {shown(p)}")
        if sorted(pi) != list(range(1, n + 1)):
            raise PreconditionError(f"pi must permute 1..{n}, got {shown(pi)}")
        self._set(pi, lengths, check_lengths(lengths))

    def __repr__(self):
        return f"PermLambdaSpec(pi={self.pi!r}, lengths={self.lengths!r})"

    @property
    def n(self) -> int:
        return len(self.pi)


class Iet(_OnLattice):
    """An invertible piecewise translation of [0, 1), in canonical form."""

    __slots__ = ("_bps", "_trs")

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
        beta = spec._bounds
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

    @property
    def num_intervals(self) -> int:
        return len(self._bps)

    def pieces(self) -> Iterator[Tuple[QuadExt, QuadExt, QuadExt]]:
        """Yield (lo, hi, translation) triples in domain order."""
        bps = self.breakpoints
        return zip(bps, bps[1:] + (ONE,), self.translations)

    def lattice_pieces(self) -> Tuple[int, int, List[Tuple[int, ...]]]:
        """The pieces as verify_word takes g and r^k: (den, disc, pieces in
        domain order), each piece the pairs of lo, hi and translation laid
        flat, (la, lb, ha, hb, ta, tb), every value (a + b sqrt(disc)) / den,
        read from the stored integers."""
        return self._den, self._disc, [(*lo, *hi, *t) for lo, hi, t in _pieces(self)]

    def apply(self, x) -> QuadExt:
        x = as_scalar(x)
        disc = _merged_disc(self._disc, x.disc)
        _check_point(x, disc)
        xa, xb, xden = x.an, x.bn, x.den
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
        """The set of moved points: the pieces with a nonzero translation,
        joined where they touch."""
        ends: List[Pair] = []
        for lo, hi, t in _pieces(self):
            if t != (0, 0):
                if ends and ends[-1] == lo:
                    ends[-1] = hi
                else:
                    ends += (lo, hi)
        return _from_ends(self._den, self._disc, ends)

    def l1_distance_to_identity(self) -> QuadExt:
        # An Iet preserves length, so the integral of f(x) - x, the sum of
        # t*(hi - lo), is 0: right-moving pieces carry half of sum |t|*(hi - lo).
        # Each product (ta + tb sqrt(D)) (wa + wb sqrt(D)) lies over den^2.
        disc = self._disc
        rat = root = 0
        for (la, lb), (ha, hb), (ta, tb) in _pieces(self):
            # ta + tb sqrt(disc) > 0, the test of scalars._sign3's comment
            if ((tb >= 0 or ta * ta > tb * tb * disc) if ta > 0
                    else (tb > 0 and tb * tb * disc > ta * ta)):
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
            sbps, strs = self._over(den)
            obps, otrs = other._over(den)
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
        _check_point(x, x.disc)
        out = [x]
        for _ in range(m - 1):
            x = self.apply(x)
            out.append(x)
        return out

    def image_of(self, s: IntervalSet) -> IntervalSet:
        """Exact image of an interval set under this map, by _image_ends over
        the lcm of their N."""
        den = math.lcm(self._den, s._den)
        disc = _merged_disc(self._disc, s._disc)
        bps, trs = self._over(den)
        (ends,) = s._over(den)
        order = _image_order(bps, trs, den)[0]
        return _from_ends(den, disc, _image_ends(bps, trs, order, ends, disc))

    def __repr__(self):
        body = ", ".join(
            f"[{lo},{hi})+{t}" for lo, hi, t in self.pieces()
        )
        return f"Iet({body})"


# -- the integer kernel ----------------------------------------------------------


def _pieces(f: Iet) -> Iterator[Tuple[Pair, Pair, Pair]]:
    """(lo, hi, translation) integer triples of f in domain order."""
    bps = f._bps
    return zip(bps, bps[1:] + ((f._den, 0),), f._trs)


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


def _image_ends(
    bps: Sequence[Pair], trs: Sequence[Pair], order: Sequence[int], ends: Sequence[Pair],
    disc: int,
) -> List[Pair]:
    """The ends of the image of the set with ends ends under the pieces
    (bps, trs), whose _image_order is order, all over one N.

    One walk (scalars._ranks) finds the piece of every end, each span is cut
    at the breakpoints between its ends' pieces, and each fragment moves with
    its piece.  A piece's fragments keep their order, and the pieces' images
    tile [0, 1) in image order, so taking the fragments piece by piece in that
    order gives the image ascending, with no comparison; fragments that touch
    are joined."""
    moved: List[List[Pair]] = [[] for _ in bps]
    ranks = _ranks(ends, bps, disc)
    for i in range(0, len(ends), 2):
        lo, hi = ends[i], ends[i + 1]
        last = ranks[i + 1] - 1
        last -= bps[last] == hi  # the span stops short of a piece starting at hi
        for j in range(ranks[i] - 1, last + 1):
            cut = hi if j == last else bps[j + 1]
            ta, tb = trs[j]
            moved[j] += ((lo[0] + ta, lo[1] + tb), (cut[0] + ta, cut[1] + tb))
            lo = cut
    out: List[Pair] = []
    for p in order:
        piece = moved[p]
        if piece and out and out[-1] == piece[0]:
            out.pop()
            out += piece[1:]
        else:
            out += piece
    return out


def _image_points(
    bps: Sequence[Pair], trs: Sequence[Pair], order: Sequence[int], pts: Sequence[Pair],
    disc: int,
) -> List[Pair]:
    """The images of the ascending points pts under the pieces (bps, trs),
    whose _image_order is order, ascending: as in _image_ends, one walk
    (scalars._ranks) finds each point's piece, and the pieces' images are
    taken in image order."""
    moved: List[List[Pair]] = [[] for _ in bps]
    for rank, (a, b) in zip(_ranks(pts, bps, disc), pts):
        ta, tb = trs[rank - 1]
        moved[rank - 1].append((a + ta, b + tb))
    return [q for p in order for q in moved[p]]


# Stores the pieces (bps, trs) over den into a bare Iet: _store(f, den, disc,
# bps, trs).  The pieces must already have no two neighbours with equal
# translations; the constructor merges them, compose never emits them, and
# the inverse of a canonical map has none.  The constructor checks outside
# data first, and the group operations build their results here unchecked,
# since products and inverses of bijections of [0, 1) are bijections.
_store = _OnLattice._store
