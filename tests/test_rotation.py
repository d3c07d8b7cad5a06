"""Blockwise rotation specs: construction, powers, order classification."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietrel.errors import ContextMismatchError, PreconditionError
from ietrel.iet import Iet
from ietrel.intervals import IntervalSet
from ietrel.rotation import (
    FINITE_ORDER,
    INFINITE_NO_FIXED,
    INFINITE_WITH_FIXED,
    DisjointRotationSpec,
)
from ietrel.scalars import QuadExt

from conftest import q, seeded_specs

F = Fraction

SQRT2M1 = QuadExt(-1, 1, 2)  # sqrt(2) - 1


def test_block_bounds():
    spec = DisjointRotationSpec((q(F(1, 4)), q(F(1, 4)), q(F(1, 2))),
                                (q(0), q(0), q(0)))
    assert spec.block_bounds() == (q(0), q(F(1, 4)), q(F(1, 2)), q(1))
    assert spec.min_block_length() == q(F(1, 4))


def test_to_iet_single_block_is_a_rotation():
    spec = DisjointRotationSpec((q(1),), (q(F(1, 4)),))
    assert spec.to_iet() == Iet.rotation(q(F(1, 4)))
    assert DisjointRotationSpec((q(1),), (q(0),)).to_iet().is_identity()


def test_to_iet_rotates_each_block_in_place():
    spec = DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))), (q(F(1, 2)), q(0)))
    r = spec.to_iet()
    assert r.apply(q(0)) == q(F(1, 4))
    assert r.apply(q(F(3, 8))) == q(F(1, 8))
    assert r.apply(q(F(3, 4))) == q(F(3, 4))
    assert r.support() == IntervalSet([(q(0), q(F(1, 2)))])


def test_support_is_the_union_of_moving_blocks():
    spec = DisjointRotationSpec(
        (q(F(1, 4)), q(F(1, 4)), q(F(1, 2))),
        (q(F(1, 2)), q(0), SQRT2M1 / 2),
    )
    assert spec.to_iet().support() == IntervalSet(
        [(q(0), q(F(1, 4))), (q(F(1, 2)), q(1))]
    )


def test_rejected_specs():
    with pytest.raises(PreconditionError):
        DisjointRotationSpec((q(F(1, 2)),), (q(0),))  # lengths sum below 1
    with pytest.raises(PreconditionError):
        DisjointRotationSpec((q(F(3, 2)), q(-F(1, 2))), (q(0), q(0)))
    with pytest.raises(PreconditionError):
        DisjointRotationSpec((q(1),), (q(1),))  # rate outside [0, 1)
    with pytest.raises(PreconditionError):
        DisjointRotationSpec((q(1),), (q(-F(1, 4)),))
    with pytest.raises(PreconditionError):
        DisjointRotationSpec((q(1),), (q(0), q(0)))
    with pytest.raises(PreconditionError):
        DisjointRotationSpec((), ())


def test_mixed_discriminants_are_rejected_at_construction():
    third = q(F(1, 3))
    rates = (SQRT2M1, QuadExt(-1, 1, 3), QuadExt(-2, 1, 5))
    with pytest.raises(ContextMismatchError, match="mixed discriminants 2 and 3"):
        DisjointRotationSpec((third,) * 3, rates)
    with pytest.raises(ContextMismatchError):
        DisjointRotationSpec((QuadExt(0, F(1, 2), 2), 1 - QuadExt(0, F(1, 2), 2)),
                             (QuadExt(-1, 1, 3), q(0)))
    # one discriminant plus rationals is one context
    DisjointRotationSpec((third,) * 3, (SQRT2M1, q(F(1, 2)), QuadExt(2, -1, 2)))


def test_classify():
    fin = DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))), (q(F(1, 4)), q(F(1, 6))))
    assert fin.classify().kind == FINITE_ORDER
    assert fin.classify().order == 12

    mixed = DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))), (SQRT2M1, q(F(1, 2))))
    assert mixed.classify().kind == INFINITE_WITH_FIXED
    assert mixed.classify().order is None

    pure = DisjointRotationSpec((q(1),), (SQRT2M1,))
    assert pure.classify().kind == INFINITE_NO_FIXED


def test_finite_order_is_exact():
    spec = DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))), (q(F(1, 4)), q(F(1, 6))))
    order = spec.classify().order
    r = spec.to_iet()
    assert r.power(order).is_identity()
    for d in (1, 2, 3, 4, 6):
        assert not r.power(d).is_identity()


def test_fixing_power():
    mixed = DisjointRotationSpec(
        (q(F(1, 2)), q(F(1, 4)), q(F(1, 4))),
        (SQRT2M1, q(F(1, 4)), q(F(1, 6))),
    )
    L = mixed.fixing_power()
    assert L == 12
    powered = mixed.power_spec(L)
    assert powered.rates[1] == q(0)
    assert powered.rates[2] == q(0)
    assert not powered.rates[0].is_rational

    pure = DisjointRotationSpec((q(1),), (SQRT2M1,))
    assert pure.fixing_power() == 1

    fin = DisjointRotationSpec((q(1),), (q(F(1, 4)),))
    with pytest.raises(PreconditionError):
        fin.fixing_power()


def test_block_rates_anchor():
    spec = DisjointRotationSpec((q(1),), (SQRT2M1,))
    assert spec.block_rates(70) == (QuadExt(-98, 70, 2),)
    assert spec.block_rates(0) == (q(0),)
    assert spec.block_rates(-1) == (QuadExt(2, -1, 2),)


@given(seeded_specs(), st.integers(-20, 20))
@settings(max_examples=30, deadline=None)
def test_power_spec_matches_iet_power(spec, m):
    power = spec.to_iet().power(m)
    assert spec.power_spec(m).to_iet() == power
    # spec.pieces(m) is r^m itself, its pieces in domain order tiling [0, 1)
    pieces = spec.pieces(m)
    assert [lo for lo, _, _ in pieces[1:]] + [q(1)] == [hi for _, hi, _ in pieces]
    assert Iet([lo for lo, _, _ in pieces], [t for _, _, t in pieces]) == power


@given(seeded_specs())
@settings(max_examples=30, deadline=None)
def test_power_spec_keeps_the_blocks(spec):
    sq = spec.power_spec(2)
    assert sq.lengths == spec.lengths
    assert spec.power_spec(0).to_iet().is_identity()
