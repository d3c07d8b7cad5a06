"""Interval exchange transformations of [0, 1) with exact scalar data.

An Iet is stored in canonical form: ascending breakpoints starting at 0,
one translation per interval, adjacent intervals with equal translations
merged.  Composition follows (f.compose(g))(x) = f(g(x)): the right-hand
factor acts first.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .errors import InvariantError, PreconditionError
from .intervals import IntervalSet
from .scalars import ONE, ZERO, QuadExt, as_scalar

__all__ = ["Iet", "PermLambdaSpec"]


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
        total = ZERO
        for v in self.lengths:
            if v.sign() <= 0:
                raise PreconditionError(f"lengths must be positive, got {v}")
            total = total + v
        if total != ONE:
            raise PreconditionError(f"lengths must sum to 1, got {total}")

    @property
    def n(self) -> int:
        return len(self.pi)


class Iet:
    """An invertible piecewise translation of [0, 1), in canonical form."""

    __slots__ = ("breakpoints", "translations", "_inv")

    def __init__(self, breakpoints: Sequence, translations: Sequence):
        bps = [as_scalar(b) for b in breakpoints]
        trs = [as_scalar(t) for t in translations]
        if not bps or len(bps) != len(trs):
            raise PreconditionError("need equally many breakpoints and translations")
        if bps[0] != ZERO:
            raise PreconditionError("first breakpoint must be 0")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise PreconditionError("breakpoints must be strictly ascending")
        if not bps[-1] < ONE:
            raise PreconditionError("breakpoints must stay below 1")
        # canonical form: merge adjacent intervals translated by the same amount
        cbps = [bps[0]]
        ctrs = [trs[0]]
        for b, t in zip(bps[1:], trs[1:]):
            if t == ctrs[-1]:
                continue
            cbps.append(b)
            ctrs.append(t)
        ends = cbps[1:] + [ONE]
        for lo, hi, t in zip(cbps, ends, ctrs):
            if (lo + t) < ZERO or (hi + t) > ONE:
                raise PreconditionError(
                    f"interval [{lo}, {hi}) translated by {t} leaves [0, 1)"
                )
        object.__setattr__(self, "breakpoints", tuple(cbps))
        object.__setattr__(self, "translations", tuple(ctrs))
        object.__setattr__(self, "_inv", None)

    def __setattr__(self, name, value):
        if name == "_inv":
            object.__setattr__(self, name, value)
            return
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
        image position minus the total length that precedes it.
        """
        n = spec.n
        beta = [ZERO]
        for v in spec.lengths:
            beta.append(beta[-1] + v)
        omegas = []
        for j in range(n):
            before_image = ZERO
            for i in range(n):
                if spec.pi[i] < spec.pi[j]:
                    before_image = before_image + spec.lengths[i]
            omegas.append(before_image - beta[j])
        return cls(beta[:n], omegas)

    # -- basic queries ------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        return len(self.breakpoints)

    def pieces(self) -> Iterator[Tuple[QuadExt, QuadExt, QuadExt]]:
        """Yield (lo, hi, translation) triples in domain order."""
        for j, (lo, t) in enumerate(zip(self.breakpoints, self.translations)):
            hi = self.breakpoints[j + 1] if j + 1 < len(self.breakpoints) else ONE
            yield lo, hi, t

    def apply(self, x) -> QuadExt:
        x = as_scalar(x)
        if not (ZERO <= x < ONE):
            raise PreconditionError(f"point {x} outside [0, 1)")
        j = bisect_right(self.breakpoints, x) - 1
        return x + self.translations[j]

    def is_identity(self) -> bool:
        return len(self.breakpoints) == 1 and not self.translations[0]

    def discontinuities(self) -> Tuple[QuadExt, ...]:
        """Interior breakpoints; 0 is never a discontinuity."""
        return self.breakpoints[1:]

    def support(self) -> IntervalSet:
        return IntervalSet(
            (lo, hi) for lo, hi, t in self.pieces() if t
        )

    def l1_distance_to_identity(self) -> QuadExt:
        total = ZERO
        for lo, hi, t in self.pieces():
            total = total + abs(t) * (hi - lo)
        return total

    # -- group structure ----------------------------------------------------

    def compose(self, other: "Iet") -> "Iet":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        inv = other.inverse()
        cuts = list(other.breakpoints)
        cuts.extend(inv.apply(b) for b in self.breakpoints)
        cuts.sort()
        bps = []
        trs = []
        prev = None
        for c in cuts:
            if prev is not None and c == prev:
                continue
            prev = c
            bps.append(c)
            trs.append(self.apply(other.apply(c)) - c)
        return Iet(bps, trs)

    def _tiling_images(self):
        """(image lo, image hi, translation) sorted by image, or None when the
        images do not tile [0, 1)."""
        images = sorted(
            ((lo + t, hi + t, t) for lo, hi, t in self.pieces()),
            key=lambda p: p[0],
        )
        cursor = ZERO
        for lo, hi, _ in images:
            if lo != cursor:
                return None
            cursor = hi
        return images if cursor == ONE else None

    def is_bijection(self) -> bool:
        """Do the image intervals tile [0, 1)?  The constructor does not check
        this; every map the group operations build is one."""
        return self._tiling_images() is not None

    def inverse(self) -> "Iet":
        if self._inv is None:
            images = self._tiling_images()
            if images is None:
                raise InvariantError("image intervals do not tile [0, 1)")
            inv = Iet([lo for lo, _, _ in images], [-t for _, _, t in images])
            inv._inv = self
            self._inv = inv
        return self._inv

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
        out = []
        m = len(self.breakpoints)
        for lo, hi in s:
            j = bisect_right(self.breakpoints, lo) - 1
            while lo < hi:
                seg_hi = self.breakpoints[j + 1] if j + 1 < m else ONE
                cut = seg_hi if seg_hi < hi else hi
                t = self.translations[j]
                out.append((lo + t, cut + t))
                lo = cut
                j += 1
        return IntervalSet(out)

    # -- validation -----------------------------------------------------------

    def validate(self) -> "Iet":
        """Re-check every structural invariant; raises InvariantError on failure."""
        if self.breakpoints[0] != ZERO:
            raise InvariantError("first breakpoint is not 0")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise InvariantError("breakpoints not ascending")
        if not self.breakpoints[-1] < ONE:
            raise InvariantError("breakpoint at or above 1")
        for a, b in zip(self.translations, self.translations[1:]):
            if a == b:
                raise InvariantError("canonical form violated: equal neighbours")
        for lo, hi, t in self.pieces():
            if (lo + t) < ZERO or (hi + t) > ONE:
                raise InvariantError("image leaves [0, 1)")
        self.inverse()  # tiles [0, 1) or raises
        return self

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Iet):
            return NotImplemented
        return (
            self.breakpoints == other.breakpoints
            and self.translations == other.translations
        )

    def __hash__(self):
        return hash((self.breakpoints, self.translations))

    def __repr__(self):
        body = ", ".join(
            f"[{lo},{hi})+{t}" for lo, hi, t in self.pieces()
        )
        return f"Iet({body})"
