"""Interval sets: construction, algebra, circular balls."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ietrel.errors import ContextMismatchError
from ietrel.intervals import IntervalSet, _ball_ends, _from_ends, circular_ball, neighborhood_union
from ietrel.scalars import ONE, ZERO, QuadExt, _lattice, _pair

from conftest import interval_sets, q


F = Fraction


def test_touching_spans_merge():
    s = IntervalSet([(q(0), q(F(1, 4))), (q(F(1, 4)), q(F(1, 2)))])
    assert s.spans == ((ZERO, q(F(1, 2))),)
    assert len(s) == 1


def test_overlapping_spans_merge():
    s = IntervalSet([(q(0), q(F(1, 2))), (q(F(1, 4)), q(F(3, 4)))])
    assert s.spans == ((ZERO, q(F(3, 4))),)


def test_empty_spans_are_dropped():
    assert IntervalSet([(q(F(1, 3)), q(F(1, 3)))]).is_empty()
    assert not IntervalSet()


def test_invalid_spans_are_rejected():
    with pytest.raises(ValueError):
        IntervalSet([(q(F(1, 2)), q(F(1, 4)))])
    with pytest.raises(ValueError):
        IntervalSet([(q(F(1, 2)), q(F(3, 2)))])


def _sweep_union(spans):
    """The union's spans by a QuadExt sort and sweep: the reference the
    constructor's fold of one-span end lists is checked against."""
    out = []
    for lo, hi in sorted(span for span in spans if span[0] < span[1]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def _span_list(rng, pool, count):
    """count spans over pool's points, unsorted, each overlapping, nested,
    touching, repeated or empty by chance or by construction."""
    spans = []
    for _ in range(count):
        kind = rng.randrange(5)
        if spans and kind == 0:
            spans.append(rng.choice(spans))  # repeated
        elif spans and kind == 1:
            hi = rng.choice(spans)[1]  # touching an earlier span from above
            spans.append((hi, max(hi, rng.choice(pool))))
        elif spans and kind == 2:
            lo, hi = rng.choice(spans)  # nested in an earlier span
            spans.append(tuple(sorted(rng.choices([x for x in pool if lo <= x <= hi], k=2))))
        elif kind == 3:
            x = rng.choice(pool)
            spans.append((x, x))  # empty
        else:
            spans.append(tuple(sorted(rng.sample(pool, 2))))
    return spans


RATIONAL_POOL = [q(F(k, 12)) for k in range(13)]
ROOT_POOL = RATIONAL_POOL + [
    q(F(k, 12), F(sign, 8), 2) for sign, ks in ((1, range(8)), (-1, range(3, 13))) for k in ks
]


@pytest.mark.parametrize("pool", [RATIONAL_POOL, ROOT_POOL], ids=["D0", "D2"])
def test_the_constructor_unions_like_a_sort_and_sweep(pool):
    rng = random.Random(20261022)
    for count in list(range(10)) * 30:
        spans = _span_list(rng, pool, count)
        rng.shuffle(spans)
        s = IntervalSet(spans)
        assert s.spans == _sweep_union(spans), spans
        for lo, hi in spans:
            for x in (lo, (lo + hi) / 2, hi):
                assert s.contains_point(x) == any(a <= x < b for a, b in spans), (spans, x)


@pytest.mark.parametrize("spans, want", [
    ([], []),
    ([(3, 6)], [(3, 6)]),
    ([(6, 9), (0, 3)], [(0, 3), (6, 9)]),  # unsorted
    ([(2, 5), (0, 3)], [(0, 5)]),  # overlapping
    ([(0, 9), (2, 3)], [(0, 9)]),  # nested
    ([(3, 6), (0, 3)], [(0, 6)]),  # touching
    ([(3, 6), (3, 6)], [(3, 6)]),  # repeated
    ([(4, 4), (1, 2), (7, 7)], [(1, 2)]),  # empty
    ([(10, 12), (6, 7), (0, 1), (3, 4), (8, 9)], [(0, 1), (3, 4), (6, 7), (8, 9), (10, 12)]),
    ([(10, 12), (6, 7), (0, 1), (3, 4), (1, 3)], [(0, 4), (6, 7), (10, 12)]),
])
def test_the_constructor_unions_each_shape(spans, want):
    def twelfths(pairs):
        return [(q(F(a, 12)), q(F(b, 12))) for a, b in pairs]

    assert IntervalSet(twelfths(spans)).spans == tuple(twelfths(want))


def test_intersection_anchor():
    a = IntervalSet([(q(0), q(F(1, 2)))])
    b = IntervalSet([(q(F(1, 4)), q(F(3, 4)))])
    assert a.intersect(b) == IntervalSet([(q(F(1, 4)), q(F(1, 2)))])


def test_contains_point_is_half_open():
    s = IntervalSet([(q(F(1, 4)), q(F(1, 2)))])
    assert s.contains_point(q(F(1, 4)))
    assert not s.contains_point(q(F(1, 2)))
    assert s.contains_point(q(F(3, 8)))
    assert not s.contains_point(q(0))


def test_rational_and_root_spans_over_different_denominators():
    r2 = QuadExt(0, F(1, 4), 2)  # sqrt(2)/4, about 0.354
    a = IntervalSet([(q(F(5, 7)), ONE), (q(F(1, 3)), r2 + F(1, 5))])
    b = IntervalSet([(r2, q(F(3, 4)))])
    assert a.spans == ((q(F(1, 3)), r2 + F(1, 5)), (q(F(5, 7)), ONE))
    assert a.intersect(b) == IntervalSet([(r2, r2 + F(1, 5)), (q(F(5, 7)), q(F(3, 4)))])
    assert a.intersect(b).measure() == F(1, 5) + F(1, 28)
    assert a.contains_point(r2) and not a.contains_point(r2 + F(1, 5))
    assert not b.contains_point(q(F(1, 3))) and b.contains_point(q(F(1, 2)))
    # the union is rational again: its root terms cancel and it is stored over 3
    u = a.union(b)
    assert u == IntervalSet([(q(F(1, 3)), ONE)]) and hash(u) == hash(IntervalSet([(q(F(1, 3)), ONE)]))
    assert u.complement().spans == ((ZERO, q(F(1, 3))),)
    assert not u.is_disjoint(b) and u.contains_set(b) and not b.contains_set(u)
    # spans over 6 and over 10 meet over 30; what is left of them reduces
    sixths = IntervalSet([(q(F(1, 6)), q(F(1, 2)))])
    tenths = IntervalSet([(q(F(3, 10)), q(F(9, 10)))])
    assert sixths.intersect(tenths).spans == ((q(F(3, 10)), q(F(1, 2))),)
    assert sixths.union(tenths) == IntervalSet([(q(F(1, 6)), q(F(9, 10)))])
    assert sixths.is_disjoint(IntervalSet([(q(F(1, 2)), q(F(7, 10)))]))


def test_spans_over_a_reducible_denominator_store_the_reduced_form():
    # spans over 6 whose union has its ends over 3, rational and quadratic
    r2 = QuadExt(0, F(1, 3), 2)  # sqrt(2)/3, about 0.471
    for lo, hi in ((q(F(1, 3)), q(F(2, 3))), (r2, r2 + F(1, 3))):
        sixths = IntervalSet([(lo, q(F(1, 2))), (q(F(1, 2)), hi)])
        thirds = IntervalSet([(lo, hi)])
        assert sixths == thirds and hash(sixths) == hash(thirds)


def test_an_intersection_with_only_rational_ends_is_stored_rational():
    a = IntervalSet([(QuadExt(0, F(1, 4), 2), q(F(3, 4)))])
    b = IntervalSet([(q(F(1, 2)), ONE)])
    both = a.intersect(b)
    want = IntervalSet([(q(F(1, 2)), q(F(3, 4)))])
    assert both == want and hash(both) == hash(want)
    assert both._disc == 0


def test_mixed_discriminants_are_a_context_error():
    r2 = QuadExt(0, F(1, 4), 2)
    r3 = QuadExt(0, F(1, 4), 3)
    a = IntervalSet([(q(0), r2)])
    b = IntervalSet([(q(0), r3)])
    with pytest.raises(ContextMismatchError):
        IntervalSet([(q(0), r2), (q(F(1, 2)), r3 + F(1, 2))])
    for op in (a.intersect, a.union, a.is_disjoint, a.contains_set):
        with pytest.raises(ContextMismatchError):
            op(b)
    with pytest.raises(ContextMismatchError):
        a.contains_point(r3)
    with pytest.raises(ContextMismatchError):
        circular_ball(r2, r3 / 8)
    # a rational set meets either field
    tail = IntervalSet([(q(F(1, 8)), ONE)])
    assert a.intersect(tail) == IntervalSet([(q(F(1, 8)), r2)])
    assert tail.union(b) == IntervalSet.full()


@given(interval_sets(), interval_sets())
def test_disjointness_matches_intersection(a, b):
    assert a.is_disjoint(b) == a.intersect(b).is_empty()


# The sets drawn lie on the 1/16 grid, so each 1/32 cell lies wholly inside
# or outside a set, and the cell midpoints decide every operation.
MIDPOINTS = [q(F(2 * k + 1, 64)) for k in range(32)]


def _members(s: IntervalSet) -> list:
    return [s.contains_point(x) for x in MIDPOINTS]


def _spans(*pairs) -> IntervalSet:
    return IntervalSet((q(lo), q(hi)) for lo, hi in pairs)


@given(interval_sets(), interval_sets())
@example(_spans((0, F(1, 2))), _spans((F(1, 2), 1)))
@example(_spans((0, F(1, 2))), _spans((F(1, 4), F(1, 2))))
@example(_spans((0, F(1, 4)), (F(1, 2), F(3, 4))), _spans((F(1, 4), F(1, 2))))
def test_operations_agree_with_pointwise_membership(a, b):
    in_a, in_b = _members(a), _members(b)
    in_both = [x and y for x, y in zip(in_a, in_b)]
    assert _members(a.intersect(b)) == in_both
    assert _members(a.union(b)) == [x or y for x, y in zip(in_a, in_b)]
    assert _members(a.complement()) == [not x for x in in_a]
    assert a.is_disjoint(b) == (not any(in_both))
    assert a.contains_set(b) == (in_both == in_b)


@given(interval_sets(), interval_sets())
def test_union_contains_both_parts(a, b):
    u = a.union(b)
    assert u.contains_set(a)
    assert u.contains_set(b)
    assert a.contains_set(a.intersect(b))
    assert u.measure() <= a.measure() + b.measure()
    # inclusion-exclusion, exact
    assert u.measure() + a.intersect(b).measure() == a.measure() + b.measure()


@given(interval_sets())
def test_complement_partitions_the_interval(a):
    c = a.complement()
    assert a.is_disjoint(c)
    assert a.union(c) == IntervalSet.full()
    assert a.measure() + c.measure() == ONE


@given(interval_sets(), interval_sets())
def test_containment_agrees_with_union(a, b):
    assert a.contains_set(b) == (a.union(b) == a)


def test_circular_ball_interior():
    assert circular_ball(q(F(1, 2)), q(F(1, 8))) == IntervalSet(
        [(q(F(3, 8)), q(F(5, 8)))]
    )


def test_circular_ball_wraps():
    b = circular_ball(q(0), q(F(1, 8)))
    assert b == IntervalSet([(q(0), q(F(1, 8))), (q(F(7, 8)), ONE)])
    b = circular_ball(q(F(15, 16)), q(F(1, 8)))
    assert b == IntervalSet([(q(F(13, 16)), ONE), (q(0), q(F(1, 16)))])


def test_circular_ball_measure():
    r = q(F(1, 16))
    for center in (q(0), q(F(1, 3)), q(F(31, 32))):
        assert circular_ball(center, r).measure() == 2 * r


def test_large_ball_is_everything():
    assert circular_ball(q(F(1, 3)), q(F(1, 2))) == IntervalSet.full()


def test_circular_ball_rejects_bad_arguments():
    with pytest.raises(ValueError):
        circular_ball(q(0), ZERO)
    with pytest.raises(ValueError):
        circular_ball(ONE, q(F(1, 8)))


def _ball_set(points, radius):
    """intervals._ball_ends on QuadExt points and radius, as an IntervalSet."""
    den, disc = _lattice(points, radius.den, radius.disc)
    pts = [_pair(p, den) for p in points]
    return _from_ends(den, disc, _ball_ends(pts, _pair(radius, den), den, disc))


@given(st.sets(st.integers(0, 63), min_size=1, max_size=8), st.integers(0, 3))
@example({0, 32}, 0)  # two balls of radius 1/4 cover the circle, touching twice
@example({5}, 0)  # a lone point's ball of radius 1/2 is the whole circle
@example({63}, 2)  # the last ball wraps past 1
def test_separated_balls_match_neighborhood_union(ks, t):
    points = [q(F(k, 64)) for k in sorted(ks)]
    gaps = [b - a for a, b in zip(points, points[1:] + [points[0] + ONE])]
    radius = min(gaps) / 2**(t + 1)
    assert _ball_set(points, radius) == neighborhood_union(points, radius)
    # each point moved up by k sqrt(2) / 2^14, less than a 64th: still ascending, below 1
    moved = [p + q(0, F(k, 2**14), 2) for p, k in zip(points, sorted(ks))]
    gaps = [b - a for a, b in zip(moved, moved[1:] + [moved[0] + ONE])]
    radius = min(gaps) / 2**(t + 1)
    assert _ball_set(moved, radius) == neighborhood_union(moved, radius)
