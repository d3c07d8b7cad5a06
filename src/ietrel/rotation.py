"""Disjoint rotation maps: IETs that rotate each block of a fixed partition.

A spec lists block lengths lambda_j (summing to 1) and per-block rotation
rates alpha_j in [0, 1).  Block j = [beta_{j-1}, beta_j) is rotated in place
by the fraction alpha_j; the blocks themselves never move.  Powers act
blockwise on the rates, which keeps every power's discontinuity count at
most twice the number of blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from .errors import PreconditionError
from .iet import Iet, check_lengths
from .scalars import ONE, ZERO, QuadExt, _lattice, as_scalar

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
    _bounds: Tuple[QuadExt, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(as_scalar(v) for v in self.lengths))
        object.__setattr__(self, "rates", tuple(as_scalar(a) for a in self.rates))
        if not self.lengths or len(self.lengths) != len(self.rates):
            raise PreconditionError("need equally many block lengths and rates")
        _lattice(self.lengths + self.rates)  # ContextMismatchError if D is mixed
        object.__setattr__(self, "_bounds", check_lengths(self.lengths))
        for a in self.rates:
            if not (ZERO <= a < ONE):
                raise PreconditionError(f"rates must lie in [0, 1), got {a}")

    @property
    def n(self) -> int:
        return len(self.lengths)

    def block_bounds(self) -> Tuple[QuadExt, ...]:
        """beta_0 = 0 < beta_1 < ... < beta_n = 1."""
        return self._bounds

    def pieces(self, k: int) -> List[Tuple[QuadExt, QuadExt, QuadExt]]:
        """The (lo, hi, shift) pieces of r^k in domain order: block j is rotated
        in place by s = lambda_j * (k * alpha_j mod 1), so [beta_{j-1}, beta_j - s)
        moves up by s and, when s > 0, the rest moves down by lambda_j - s."""
        out = []
        beta = self.block_bounds()
        rates = self.block_rates(k)
        for left, right, lam, rate in zip(beta, beta[1:], self.lengths, rates):
            shift = lam * rate
            cut = right - shift
            out.append((left, cut, shift))
            if shift:
                out.append((cut, right, shift - lam))
        return out

    def to_iet(self) -> Iet:
        """The map itself: each block rotated by its rate."""
        pieces = self.pieces(1)
        return Iet([lo for lo, _, _ in pieces], [t for _, _, t in pieces])

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
        return tuple((a * m).mod_one() for a in self.rates)

    def power_spec(self, m: int) -> "DisjointRotationSpec":
        """Spec of the m-th power; to_iet of the result equals to_iet(self)^m."""
        return DisjointRotationSpec(self.lengths, self.block_rates(m))

    def min_block_length(self) -> QuadExt:
        return min(self.lengths)
