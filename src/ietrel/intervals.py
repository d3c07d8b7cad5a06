"""Finite unions of half-open subintervals of [0, 1), with exact endpoints."""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from .scalars import ONE, ZERO, QuadExt, as_scalar

__all__ = ["IntervalSet", "circular_ball"]

Span = Tuple[QuadExt, QuadExt]


class IntervalSet:
    """A finite union of disjoint [lo, hi) spans inside [0, 1).

    Spans are kept sorted and merged (touching spans coalesce), so two sets
    are equal exactly when their span tuples are equal.
    """

    __slots__ = ("spans",)

    def __init__(self, spans: Iterable[Span] = ()):
        cleaned = []
        for lo, hi in spans:
            lo = as_scalar(lo)
            hi = as_scalar(hi)
            if lo > hi:
                raise ValueError(f"inverted span [{lo}, {hi})")
            if lo == hi:
                continue
            if lo < ZERO or hi > ONE:
                raise ValueError(f"span [{lo}, {hi}) leaves [0, 1)")
            cleaned.append((lo, hi))
        cleaned.sort(key=lambda s: s[0])
        merged: list[Span] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "spans", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("IntervalSet is immutable")

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls([(ZERO, ONE)])

    # -- queries ----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.spans

    def __bool__(self):
        return bool(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self):
        return len(self.spans)

    def measure(self) -> QuadExt:
        total = ZERO
        for lo, hi in self.spans:
            total = total + (hi - lo)
        return total

    def contains_point(self, x) -> bool:
        x = as_scalar(x)
        for lo, hi in self.spans:
            if x < lo:
                return False
            if x < hi:
                return True
        return False

    # -- algebra ----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.spans + other.spans)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        i = j = 0
        a, b = self.spans, other.spans
        while i < len(a) and j < len(b):
            lo = a[i][0] if a[i][0] > b[j][0] else b[j][0]
            hi = a[i][1] if a[i][1] < b[j][1] else b[j][1]
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def is_disjoint(self, other: "IntervalSet") -> bool:
        return not self.intersect(other)

    def contains_set(self, other: "IntervalSet") -> bool:
        """True when every point of other lies in self."""
        # both sets are canonical, so equal sets have equal spans
        return self.intersect(other) == other

    def complement(self) -> "IntervalSet":
        out = []
        cursor = ZERO
        for lo, hi in self.spans:
            if cursor < lo:
                out.append((cursor, lo))
            cursor = hi
        if cursor < ONE:
            out.append((cursor, ONE))
        return IntervalSet(out)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.spans == other.spans

    def __hash__(self):
        return hash(self.spans)

    def __repr__(self):
        body = " u ".join(f"[{lo}, {hi})" for lo, hi in self.spans)
        return f"IntervalSet({body or 'empty'})"


def circular_ball(center, radius) -> IntervalSet:
    """The radius-ball around center on the circle R/Z, as at most two spans.

    The ball is represented left-closed: [center - r, center + r) taken mod 1.
    """
    center = as_scalar(center)
    radius = as_scalar(radius)
    if not (ZERO <= center < ONE):
        raise ValueError(f"center {center} outside [0, 1)")
    if radius.sign() <= 0:
        raise ValueError("radius must be positive")
    if radius + radius >= ONE:
        return IntervalSet.full()
    lo = center - radius
    hi = center + radius
    if lo < ZERO:
        return IntervalSet([(ZERO, hi), (lo + ONE, ONE)])
    if hi > ONE:
        return IntervalSet([(lo, ONE), (ZERO, hi - ONE)])
    return IntervalSet([(lo, hi)])
