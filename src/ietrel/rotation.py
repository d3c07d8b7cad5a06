"""Disjoint rotation maps: IETs that rotate each block of a fixed partition.

A spec lists block lengths lambda_j (summing to 1) and per-block rotation
rates alpha_j in [0, 1).  Block j = [beta_{j-1}, beta_j) is rotated in place
by the fraction alpha_j; the blocks themselves never move.  Powers act
blockwise on the rates, which keeps every power's discontinuity count at
most twice the number of blocks.

So r^k has a closed form.  A spec keeps its lengths, rates and bounds as
integer pairs (a, b), meaning (a + b sqrt(D)) / N, on one lattice, and
`lattice_pieces(k)` emits r^k from them with one exact floor per block;
`pieces`, `power`, `to_iet`, `block_rates` and `power_spec` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from .errors import PreconditionError
from .iet import Iet, _store, check_lengths
from .scalars import ONE, ZERO, Pair, QuadExt, _floor, _lattice, _make, _pair, as_scalar

__all__ = [
    "DisjointRotationSpec",
    "OrderClass",
    "FINITE_ORDER",
    "INFINITE_NO_FIXED",
    "INFINITE_WITH_FIXED",
]

FINITE_ORDER = "finite_order"
INFINITE_NO_FIXED = "infinite_no_fixed"
INFINITE_WITH_FIXED = "infinite_with_fixed"


@dataclass(frozen=True)
class OrderClass:
    kind: str
    order: int | None = None


@dataclass(frozen=True)
class DisjointRotationSpec:
    lengths: Tuple[QuadExt, ...]
    rates: Tuple[QuadExt, ...]
    # the lattice (N, D) of the lengths and rates, and over it the pairs of
    # the lengths, the rates and the bounds beta_0 = 0, ..., beta_n = 1
    _den: int = field(init=False, repr=False, compare=False)
    _disc: int = field(init=False, repr=False, compare=False)
    _lams: Tuple[Pair, ...] = field(init=False, repr=False, compare=False)
    _alphas: Tuple[Pair, ...] = field(init=False, repr=False, compare=False)
    _betas: Tuple[Pair, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        put = object.__setattr__
        put(self, "lengths", tuple(as_scalar(v) for v in self.lengths))
        put(self, "rates", tuple(as_scalar(a) for a in self.rates))
        if not self.lengths or len(self.lengths) != len(self.rates):
            raise PreconditionError("need equally many block lengths and rates")
        den, disc = _lattice(self.lengths + self.rates)  # ContextMismatchError if D is mixed
        bounds = check_lengths(self.lengths)
        for a in self.rates:
            if not (ZERO <= a < ONE):
                raise PreconditionError(f"rates must lie in [0, 1), got {a}")
        put(self, "_den", den)
        put(self, "_disc", disc)
        # the bounds are sums of lengths, so they lie on the same lattice
        for name, values in (("_lams", self.lengths), ("_alphas", self.rates),
                             ("_betas", bounds)):
            put(self, name, tuple(_pair(v, den) for v in values))

    @property
    def n(self) -> int:
        return len(self.lengths)

    def block_bounds(self) -> Tuple[QuadExt, ...]:
        """beta_0 = 0 < beta_1 < ... < beta_n = 1."""
        return self._scalars(self._betas)

    def lattice_pieces(self, k: int) -> Tuple[int, int, List[Tuple[int, ...]]]:
        """The pieces of r^k in domain order, as (den, disc, pieces), each
        piece the pairs of lo, hi and shift laid flat, (la, lb, ha, hb, sa,
        sb), each pair meaning (a + b sqrt(disc)) / den; den is as small as
        the integers allow, and disc is 0 when no piece has a root term.

        Block j is rotated in place by s = lambda_j * frac(k * alpha_j), so
        [beta_{j-1}, beta_j - s) moves up by s and, when s > 0, the rest
        moves down by lambda_j - s.  s is a product of two values over N, so
        the pieces are built over N^2 and then reduced."""
        den, disc = self._den, self._disc
        betas = [(a * den, b * den) for a, b in self._betas]
        out = []
        for (la, lb), (ra, rb), (wa, wb), (fa, fb) in zip(
            betas, betas[1:], self._lams, self._fractions(k)
        ):
            sa = wa * fa + wb * fb * disc
            sb = wa * fb + wb * fa
            ca = ra - sa
            cb = rb - sb
            out.append((la, lb, ca, cb, sa, sb))
            if sa or sb:
                out.append((ca, cb, ra, rb, sa - wa * den, sb - wb * den))
        return _lowest(den * den, disc, out)

    def pieces(self, k: int) -> List[Tuple[QuadExt, QuadExt, QuadExt]]:
        """The (lo, hi, shift) pieces of r^k in domain order, one for each
        block that r^k fixes and two for each it moves (see lattice_pieces)."""
        den, disc, pieces = self.lattice_pieces(k)
        return [
            (_make(la, lb, den, disc), _make(ha, hb, den, disc), _make(sa, sb, den, disc))
            for la, lb, ha, hb, sa, sb in pieces
        ]

    def power(self, m: int) -> Iet:
        """r^m from its closed form, for any integer m: as Iet.power(m) of
        to_iet(), with no composition."""
        den, disc, pieces = self.lattice_pieces(m)
        bps: List[Pair] = []
        trs: List[Pair] = []
        for la, lb, _, _, sa, sb in pieces:
            # only fixed blocks, shift 0, can meet an equal neighbour
            if not trs or trs[-1] != (sa, sb):
                bps.append((la, lb))
                trs.append((sa, sb))
        return _store(object.__new__(Iet), den, disc, bps, trs)

    def to_iet(self) -> Iet:
        """The map itself: each block rotated by its rate."""
        return self.power(1)

    def classify(self) -> OrderClass:
        """Finite order (with the exact order), or infinite with/without
        fixed blocks surviving every fixing power."""
        if all(a.is_rational for a in self.rates):
            order = math.lcm(*(a.rat.denominator for a in self.rates))
            return OrderClass(FINITE_ORDER, order)
        if any(a.is_rational for a in self.rates):
            return OrderClass(INFINITE_WITH_FIXED)
        return OrderClass(INFINITE_NO_FIXED)

    def fixing_power(self) -> int:
        """Smallest L >= 1 making every rational rate vanish in r^L.

        Only meaningful for infinite-order maps; finite order is an error.
        """
        if self.classify().kind == FINITE_ORDER:
            raise PreconditionError("fixing power undefined for finite-order maps")
        dens = [a.rat.denominator for a in self.rates if a.is_rational]
        return math.lcm(*dens) if dens else 1

    def block_rates(self, m: int) -> Tuple[QuadExt, ...]:
        """Rates of the m-th power: m * alpha_j mod 1."""
        return self._scalars(self._fractions(m))

    def power_spec(self, m: int) -> "DisjointRotationSpec":
        """Spec of the m-th power; to_iet of the result equals to_iet(self)^m."""
        return DisjointRotationSpec(self.lengths, self.block_rates(m))

    def min_block_length(self) -> QuadExt:
        return min(self.lengths)

    def _fractions(self, k: int) -> List[Pair]:
        """frac(k * alpha_j) for each block j, as pairs over N: k * alpha_j
        less its exact floor (scalars._floor)."""
        den, disc = self._den, self._disc
        out = []
        for a, b in self._alphas:
            a *= k
            b *= k
            out.append((a - den * _floor(a, b, den, disc), b))
        return out

    def _scalars(self, pairs) -> Tuple[QuadExt, ...]:
        den, disc = self._den, self._disc
        return tuple([_make(a, b, den, disc) for a, b in pairs])


def _lowest(den: int, disc: int, pieces: List[Tuple[int, ...]]) -> Tuple[int, int, list]:
    """(den, disc, pieces) with den divided by the gcd of den and every
    integer of the pieces, and disc 0 when no piece has a root term: the
    lattice of the values themselves, as scalars._lattice finds it."""
    g = den
    for piece in pieces:
        g = math.gcd(g, *piece)
        if g == 1:
            break
    if g > 1:
        den //= g
        pieces = [tuple(v // g for v in piece) for piece in pieces]
    if not any(piece[1] or piece[3] or piece[5] for piece in pieces):
        disc = 0
    return den, disc, pieces
