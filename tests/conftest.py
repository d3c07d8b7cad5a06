"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from ietrel.iet import Iet
from ietrel.intervals import IntervalSet
from ietrel.rotation import DisjointRotationSpec
from ietrel.sampling import IRRATIONAL_RATES, random_iet, random_partition
from ietrel.scalars import ONE, ZERO, QuadExt

DISCS = (2, 3, 5)


def q(rat, coef=0, disc=0) -> QuadExt:
    return QuadExt(Fraction(rat), Fraction(coef), disc)


@st.composite
def rationals(draw, max_num=60, max_den=12) -> Fraction:
    num = draw(st.integers(-max_num, max_num))
    den = draw(st.integers(1, max_den))
    return Fraction(num, den)


@st.composite
def quads(draw, disc=None) -> QuadExt:
    d = disc if disc is not None else draw(st.sampled_from(DISCS))
    rat = draw(rationals())
    coef = draw(rationals(max_num=12, max_den=8))
    return QuadExt(rat, coef if coef else 0, d if coef else 0)


def random_rotation_spec(
    rng: random.Random,
    discs=DISCS,
    max_blocks: int = 4,
    units: int = 24,
) -> DisjointRotationSpec:
    """Random disjoint rotation spec with rational block lengths and a mix
    of zero, rational and irrational rates over a single discriminant."""
    disc = rng.choice(discs)
    n = rng.randrange(1, max_blocks + 1)
    lengths = tuple(q(Fraction(u, units)) for u in random_partition(rng, units, n))
    rates = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            rates.append(q(0))
        elif kind == 1:
            den = rng.randrange(2, 7)
            rates.append(q(Fraction(rng.randrange(1, den), den)))
        else:
            rates.append(rng.choice(IRRATIONAL_RATES[disc]))
    return DisjointRotationSpec(lengths=lengths, rates=tuple(rates))


def seeded_iets(max_intervals=6, denominator=8):
    """Deterministic random IETs, one per seed."""
    return st.integers(0, 2**20).map(
        lambda s: random_iet(random.Random(s), max_intervals, denominator)
    )


def seeded_specs() -> st.SearchStrategy[DisjointRotationSpec]:
    return st.integers(0, 2**20).map(
        lambda s: random_rotation_spec(random.Random(s))
    )


@st.composite
def interval_sets(draw, grid=16) -> IntervalSet:
    cuts = draw(st.sets(st.integers(0, grid), min_size=0, max_size=6))
    spans = []
    points = sorted(cuts)
    for a, b in zip(points, points[1:]):
        if draw(st.booleans()):
            spans.append((q(Fraction(a, grid)), q(Fraction(b, grid))))
    return IntervalSet(spans)


def grid_points(grid=64):
    """Sample points of [0, 1) on a rational grid."""
    return st.integers(0, grid - 1).map(lambda k: q(Fraction(k, grid)))


def quadext_pieces(spec, k):
    """The pieces of r^k computed in QuadExt, one for each block that r^k
    fixes and two for each it moves: each block's rate k * alpha mod 1, its
    shift lambda * rate, and the cut right - shift."""
    beta = [ZERO]
    for lam in spec.lengths:
        beta.append(beta[-1] + lam)
    out = []
    for left, right, lam, alpha in zip(beta, beta[1:], spec.lengths, spec.rates):
        shift = lam * (alpha * k).mod_one()
        cut = right - shift
        out.append((left, cut, shift))
        if shift:
            out.append((cut, right, shift - lam))
    return out


def assert_tiles_unit_interval(f: Iet) -> None:
    """The image intervals of f, sorted, must partition [0, 1)."""
    images = sorted((lo + t, hi + t) for lo, hi, t in f.pieces())
    cursor = ZERO
    for lo, hi in images:
        assert lo == cursor
        assert lo < hi
        cursor = hi
    assert cursor == ONE
