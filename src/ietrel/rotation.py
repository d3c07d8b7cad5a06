"""Disjoint rotation maps: IETs that rotate each block of a fixed partition.

A spec lists block lengths lambda_j (summing to 1) and per-block rotation
rates alpha_j in [0, 1).  Block j = [beta_{j-1}, beta_j) is rotated in place
by the fraction alpha_j; the blocks themselves never move.  Powers act
blockwise on the rates, which keeps every power's discontinuity count at
most twice the number of blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import ContextMismatchError, PreconditionError
from .iet import Iet, check_lengths
from .scalars import ONE, ZERO, QuadExt, as_scalar

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

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(as_scalar(v) for v in self.lengths))
        object.__setattr__(self, "rates", tuple(as_scalar(a) for a in self.rates))
        if not self.lengths or len(self.lengths) != len(self.rates):
            raise PreconditionError("need equally many block lengths and rates")
        discs = sorted({x.disc for x in self.lengths + self.rates if x.disc})
        if len(discs) > 1:
            raise ContextMismatchError(f"mixed discriminants {discs[0]} and {discs[1]}")
        check_lengths(self.lengths)
        for a in self.rates:
            if not (ZERO <= a < ONE):
                raise PreconditionError(f"rates must lie in [0, 1), got {a}")

    @property
    def n(self) -> int:
        return len(self.lengths)

    def block_bounds(self) -> Tuple[QuadExt, ...]:
        """beta_0 = 0 < beta_1 < ... < beta_n = 1."""
        beta = [ZERO]
        for v in self.lengths:
            beta.append(beta[-1] + v)
        return tuple(beta)

    def to_iet(self) -> Iet:
        """The map itself: each block rotated by its rate."""
        bps = []
        trs = []
        beta = self.block_bounds()
        for j, (lam, alpha) in enumerate(zip(self.lengths, self.rates)):
            left, right = beta[j], beta[j + 1]
            if not alpha:
                bps.append(left)
                trs.append(ZERO)
                continue
            shift = lam * alpha
            bps.append(left)
            trs.append(shift)
            bps.append(right - shift)
            trs.append(shift - lam)
        return Iet(bps, trs)

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
        smallest = self.lengths[0]
        for v in self.lengths[1:]:
            if v < smallest:
                smallest = v
        return smallest
