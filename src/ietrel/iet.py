"""Interval exchange transformations of [0, 1) with exact scalar data.

Every Iet is a bijection of [0, 1): the constructor rejects pieces whose
images do not tile [0, 1), and compose, inverse and power build their
results without re-checking, since the bijections of [0, 1) form a group.
compose is one linear walk over the right-hand factor's pieces in domain
order, and never calls apply or inverse.
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
        """Check outside data once: raises PreconditionError unless the pieces
        form a bijection of [0, 1), then stores them in canonical form."""
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
        _store(self, bps, trs)
        # the pieces' lengths sum to 1, so abutting images from 0 end at 1
        cursor = ZERO
        for lo, hi, _ in self._images():
            if lo != cursor:
                raise PreconditionError(
                    "the iet is not a bijection: its image intervals do not tile [0, 1)"
                )
            cursor = hi

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
        # An Iet preserves length, so the integral of f(x) - x, the sum of
        # t*(hi - lo), is 0: right-moving pieces carry half of sum |t|*(hi - lo).
        total = ZERO
        for lo, hi, t in self.pieces():
            if t.sign() > 0:
                total = total + t * (hi - lo)
        return total + total

    # -- group structure ----------------------------------------------------

    def compose(self, other: "Iet") -> "Iet":
        """self after other: (self.compose(other))(x) = self(other(x)).

        One linear walk over other's pieces [lo, hi) + t in domain order:
        each is cut at b - t wherever its image [lo + t, hi + t) crosses a
        breakpoint b of self, and the fragment that lands in self's piece j
        moves by t + self.translations[j].  The fragments come out in domain
        order, so nothing is sorted: per output piece the walk costs one
        comparison, one subtraction and one addition, plus one bisection of
        self's breakpoints per piece of other."""
        sbps = self.breakpoints
        strs = self.translations
        m = len(sbps)
        bps = []
        trs = []
        for lo, hi, t in other.pieces():
            j = bisect_right(sbps, lo + t) - 1
            bps.append(lo)
            trs.append(t + strs[j])
            end = hi + t
            j += 1
            while j < m and sbps[j] < end:
                bps.append(sbps[j] - t)
                trs.append(t + strs[j])
                j += 1
        return _store(object.__new__(Iet), bps, trs)

    def _images(self):
        """(image lo, image hi, translation) triples sorted by image lo."""
        return sorted(
            ((lo + t, hi + t, t) for lo, hi, t in self.pieces()),
            key=lambda p: p[0],
        )

    def inverse(self) -> "Iet":
        if self._inv is None:
            images = self._images()
            inv = _store(
                object.__new__(Iet), [lo for lo, _, _ in images], [-t for _, _, t in images]
            )
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
        """Re-run the constructor's checks on the stored pieces; raises
        InvariantError unless they form a bijection of [0, 1) in canonical form.

        Maps built by the group operations are never re-checked, so this is
        how a test confirms that the algebra kept the invariants."""
        try:
            rebuilt = Iet(self.breakpoints, self.translations)
        except PreconditionError as exc:
            raise InvariantError(str(exc)) from None
        if rebuilt != self:
            raise InvariantError("canonical form violated: equal neighbours")
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


def _store(f: Iet, bps: Sequence[QuadExt], trs: Sequence[QuadExt]) -> Iet:
    """Store pieces into f with equal neighbours merged, and return f.

    Nothing is checked: the constructor checks outside data first, and the
    group operations build their results here, since products and inverses
    of bijections of [0, 1) are bijections."""
    cbps = [bps[0]]
    ctrs = [trs[0]]
    for b, t in zip(bps[1:], trs[1:]):
        if t != ctrs[-1]:
            cbps.append(b)
            ctrs.append(t)
    object.__setattr__(f, "breakpoints", tuple(cbps))
    object.__setattr__(f, "translations", tuple(ctrs))
    object.__setattr__(f, "_inv", None)
    return f
