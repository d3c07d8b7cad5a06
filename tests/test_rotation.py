"""Blockwise rotation specs: construction, powers, order classification."""

from __future__ import annotations

import random
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
from ietrel.sampling import random_partition
from ietrel.scalars import QuadExt

from conftest import q, quadext_pieces, seeded_specs

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
    # spec.power(m) is r^m itself, its pieces in domain order tiling [0, 1)
    pieces = list(spec.power(m).pieces())
    assert [lo for lo, _, _ in pieces[1:]] + [q(1)] == [hi for _, hi, _ in pieces]
    assert Iet([lo for lo, _, _ in pieces], [t for _, _, t in pieces]) == power


@given(seeded_specs(), st.integers(-20, 20) | st.just(10**6))
@settings(max_examples=60, deadline=None)
def test_power_spec_keeps_the_blocks(spec, m):
    powered = spec.power_spec(m)
    assert powered.lengths == spec.lengths
    assert spec.power_spec(0).to_iet().is_identity()
    # stored unchecked, yet canonical: the spec the constructor builds
    rebuilt = DisjointRotationSpec(spec.lengths, spec.block_rates(m))
    assert powered == rebuilt and hash(powered) == hash(rebuilt)


def test_the_spec_is_a_lattice_object():
    spec = DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))), (SQRT2M1, q(0)))
    for same in (DisjointRotationSpec((QuadExt.parse("2/4"), F(1, 2)), (SQRT2M1, 0)),
                 DisjointRotationSpec((F(1, 2), F(2, 4)), (QuadExt(-1, 1, 2), F(0)))):
        assert same == spec and hash(same) == hash(spec)
    assert DisjointRotationSpec((1,), (0,)) == DisjointRotationSpec((q(1),), (q(0),))
    assert spec != DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))), (q(0), SQRT2M1))
    for name in ("lengths", "rates", "_lams", "_den", "order"):
        with pytest.raises(AttributeError):
            setattr(spec, name, ())
    assert repr(spec) == ("DisjointRotationSpec(lengths=(QuadExt('1/2'), QuadExt('1/2')), "
                          "rates=(QuadExt('-1+1*sqrt(2)'), QuadExt('0')))")


# -- the closed form against repeated squaring -----------------------------------


def _closed_form_specs(rng, count):
    """count seeded specs of 1 to 4 blocks over D in {2, 3, 5}: zero,
    rational and irrational rates, every rate rational in a third of them,
    and lengths with a root term in another third."""
    for i in range(count):
        disc = rng.choice((2, 3, 5))
        n = rng.randrange(1, 5)
        lengths = [q(F(u, 24)) for u in random_partition(rng, 24, n)]
        if i % 3 == 1 and n > 1:
            # move t sqrt(D) of length between two blocks, t small enough
            # to keep both positive
            t = QuadExt(0, F(1, rng.randrange(120, 200)), disc)
            lengths[0], lengths[-1] = lengths[0] + t, lengths[-1] - t
        rates = []
        for _ in range(n):
            den = rng.randrange(2, 9)
            kind = rng.randrange(3) if i % 3 else 1
            if kind == 0:
                rates.append(q(0))
            elif kind == 1:
                rates.append(q(F(rng.randrange(den), den)))
            else:
                rates.append(QuadExt(0, F(rng.randrange(1, 9), den), disc).mod_one())
        yield DisjointRotationSpec(tuple(lengths), tuple(rates))


def test_closed_form_powers_match_quadext_pieces_and_repeated_squaring():
    rng = random.Random(20261022)
    seen = {"all rational": 0, "root lengths": 0, "merged": 0}
    for spec in _closed_form_specs(rng, 60):
        r = spec.to_iet()
        seen["all rational"] += all(a.is_rational for a in spec.rates)
        seen["root lengths"] += not all(v.is_rational for v in spec.lengths)
        big = [rng.randrange(2, 10**e) for e in (2, 4, 6)] + [10**6]
        for k in [0, 1, -1] + big + [-m for m in big]:
            old = quadext_pieces(spec, k)
            # == compares the lattice (N, D) too, so r^k is in lowest terms
            assert spec.power(k) == Iet([lo for lo, _, _ in old], [s for _, _, s in old]), (spec, k)
            assert spec.power(k) == r.power(k), (spec, k)
            seen["merged"] += spec.power(k).num_intervals < len(old)
    assert seen["all rational"] >= 20 and seen["root lengths"] >= 10 and seen["merged"], seen
