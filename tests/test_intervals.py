"""Interval sets: construction, algebra, circular balls."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given

from ietrel.intervals import IntervalSet, circular_ball
from ietrel.scalars import ONE, ZERO, QuadExt

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
