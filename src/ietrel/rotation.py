"""Disjoint rotation maps: IETs that rotate each block of a fixed partition.

A spec lists block lengths lambda_j (summing to 1) and per-block rotation
rates alpha_j in [0, 1).  Block j = [beta_{j-1}, beta_j) is rotated in place
by the fraction alpha_j; the blocks themselves never move.  Powers act
blockwise on the rates, which keeps every power's discontinuity count at
most twice the number of blocks.

So r^k has a closed form.  A spec keeps its lengths, rates and bounds as
integer pairs (a, b), meaning (a + b sqrt(D)) / N, on one lattice, in the
form of scalars._OnLattice, and `power(k)` builds r^k from them with one
exact floor per block.  It is the one place r^k is computed: synthesis
takes r^M and r^d from it, `to_iet` reads it, and verify_word takes a^k
from `power(k).lattice_pieces()`.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence, Tuple

from .errors import PreconditionError
from .iet import Iet, _quoted, check_lengths
from .scalars import (
    ONE, ZERO, Pair, QuadExt, _floor, _lattice, _merged_disc, _OnLattice, _pair, as_scalar,
)

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


class OrderClass(NamedTuple):
    kind: str
    order: int | None = None


class DisjointRotationSpec(_OnLattice):
    """Block lengths and rates over one lattice (N, D): the pairs of the
    lengths, the rates and the bounds beta_0 = 0, ..., beta_n = 1."""

    __slots__ = ("_lams", "_alphas", "_betas")

    def __init__(self, lengths: Sequence, rates: Sequence):
        """Check outside data once: raises PreconditionError unless the
        lengths are positive and sum to 1 and the rates lie in [0, 1)."""
        lengths = tuple(as_scalar(v) for v in lengths)
        rates = tuple(as_scalar(a) for a in rates)
        if not lengths or len(lengths) != len(rates):
            raise PreconditionError("need equally many block lengths and rates")
        den, disc = _lattice(lengths + rates)  # ContextMismatchError if D is mixed
        bounds = check_lengths(lengths)
        for a in rates:
            if not (ZERO <= a < ONE):
                side = 0 if a < ZERO else 1
                raise PreconditionError(f"rates must lie in [0, 1), got {_quoted(a, side)}")
        # the bounds are sums of lengths, so they lie on the same lattice
        self._store(den, disc, *([_pair(v, den) for v in values]
                                 for values in (lengths, rates, bounds)))

    @property
    def lengths(self) -> Tuple[QuadExt, ...]:
        return self._scalars(self._lams)

    @property
    def rates(self) -> Tuple[QuadExt, ...]:
        return self._scalars(self._alphas)

    @property
    def n(self) -> int:
        return len(self._lams)

    def block_bounds(self) -> Tuple[QuadExt, ...]:
        """beta_0 = 0 < beta_1 < ... < beta_n = 1."""
        return self._scalars(self._betas)

    def power(self, m: int) -> Iet:
        """r^m from its closed form, for any integer m: as Iet.power(m) of
        to_iet(), with no composition.

        Block j is rotated in place by s = lambda_j * frac(m * alpha_j), so
        [beta_{j-1}, beta_j - s) moves up by s and, when s > 0, the rest
        moves down by lambda_j - s.  s is a product of two values over N, so
        the pieces are built over N^2, and _store reduces them.  Only fixed
        blocks, shift 0, can meet an equal neighbour; they are merged."""
        den, disc = self._den, self._disc
        bps: List[Pair] = []
        trs: List[Pair] = []
        for (la, lb), (wa, wb), (fa, fb) in zip(self._betas, self._lams, self._fractions(m)):
            sa = wa * fa + wb * fb * disc
            sb = wa * fb + wb * fa
            if sa or sb:
                bps += ((la * den, lb * den), ((la + wa) * den - sa, (lb + wb) * den - sb))
                trs += ((sa, sb), (sa - wa * den, sb - wb * den))
            elif not trs or trs[-1] != (0, 0):
                bps.append((la * den, lb * den))
                trs.append((0, 0))
        return object.__new__(Iet)._store(den * den, disc, bps, trs)

    def to_iet(self) -> Iet:
        """The map itself: each block rotated by its rate."""
        return self.power(1)

    def classify(self) -> OrderClass:
        """Finite order (with the exact order), or infinite with/without
        fixed blocks surviving every fixing power."""
        rates = self.rates
        if all(a.is_rational for a in rates):
            order = math.lcm(*(a.rat.denominator for a in rates))
            return OrderClass(FINITE_ORDER, order)
        if any(a.is_rational for a in rates):
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
        """Spec of the m-th power; to_iet of the result equals to_iet(self)^m.
        Its rates lie in [0, 1) over self's lattice, so they are stored
        unchecked, as the Iet group operations store their results."""
        return object.__new__(DisjointRotationSpec)._store(
            self._den, self._disc, self._lams, self._fractions(m), self._betas
        )

    def _lattice_with(self, g: Iet) -> Tuple[int, int]:
        """N and D of g and of every power of self, which power builds over N^2."""
        return math.lcm(self._den ** 2, g._den), _merged_disc(self._disc, g._disc)

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

    def __repr__(self):
        return f"DisjointRotationSpec(lengths={self.lengths!r}, rates={self.rates!r})"
