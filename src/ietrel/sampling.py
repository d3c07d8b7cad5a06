"""Seeded random generators and the fixed demonstration suite.

Everything here is deterministic given the seed.  The demo suite is the
fixed collection of (rotation spec, g) pairs exercised by the end-to-end
tests: rotations with 1 to 4 blocks over D in {2, 3, 5}, with purely
irrational, mixed rational/irrational and purely rational rate vectors,
with and without fixed blocks, against random rational IETs.

Rates are chosen so the minimal M stays small enough for the test suite's
letter-at-a-time cross-check (`eval_word_naive`, whose cost grows with M)
to run in seconds; `ietrel verify` (`verify_word`) costs the same for any
M.  A few pairs deliberately use badly approximable rates (sqrt(2)-1, the
golden ratio conjugate), whose minimal M is a continued-fraction convergent
denominator (70, 89, 169, 209) rather than a power of two, paired with a g
that commutes with r so the certificate stays short.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .iet import Iet, PermLambdaSpec
from .rotation import DisjointRotationSpec
from .scalars import QuadExt

__all__ = [
    "random_partition",
    "random_perm_lambda",
    "random_iet",
    "demo_suite",
    "SuitePair",
    "IRRATIONAL_RATES",
]


def _q(rat, coef=0, disc=0) -> QuadExt:
    return QuadExt(Fraction(rat), Fraction(coef), disc)


# Curated irrational rates in (0, 1), keyed by discriminant.  The first
# two of each family are badly approximable: their minimal M is a
# convergent denominator of the rate's continued fraction, not a power of
# two (pair those with a g that commutes so the certificate stays short).
# The rest have the form (odd k)/2^a + sqrt(D)/2^24 with a = 5 or 6: the
# image of the rational point set P then sits a guaranteed 1/2^a-ish away
# from P, keeping epsilon coarse, while M lands at 2^a exactly because the
# residue 2^a * sqrt(D)/2^24 is far below any epsilon/10 threshold.
_TINY = Fraction(1, 2**24)

IRRATIONAL_RATES: Dict[int, Tuple[QuadExt, ...]] = {
    2: (
        _q(-1, 1, 2),  # sqrt(2) - 1
        _q(2, -1, 2),  # 2 - sqrt(2)
        _q(Fraction(1, 64), _TINY, 2),
        _q(Fraction(3, 64), _TINY, 2),
        _q(Fraction(33, 64), _TINY, 2),
        _q(Fraction(63, 64), -_TINY, 2),
    ),
    3: (
        _q(-1, 1, 3),  # sqrt(3) - 1
        _q(2, -1, 3),  # 2 - sqrt(3)
        _q(Fraction(1, 32), _TINY, 3),
        _q(Fraction(3, 32), _TINY, 3),
        _q(Fraction(1, 48), _TINY, 3),
    ),
    5: (
        _q(Fraction(-1, 2), Fraction(1, 2), 5),  # (sqrt(5) - 1)/2
        _q(-2, 1, 5),  # sqrt(5) - 2
        _q(Fraction(1, 64), _TINY, 5),
        _q(Fraction(5, 64), _TINY, 5),
        _q(Fraction(31, 64), _TINY, 5),
    ),
}


def random_partition(rng: random.Random, units: int, parts: int) -> List[int]:
    """Composition of `units` into `parts` positive integers."""
    if not 1 <= parts <= units:
        raise ValueError(f"cannot split {units} units into {parts} positive parts")
    cuts = sorted(rng.sample(range(1, units), parts - 1))
    edges = [0] + cuts + [units]
    return [b - a for a, b in zip(edges, edges[1:])]


def random_perm_lambda(
    rng: random.Random,
    max_intervals: int = 6,
    denominator: int = 8,
) -> PermLambdaSpec:
    n = rng.randrange(2, max_intervals + 1)
    units = random_partition(rng, denominator, n)
    lengths = tuple(_q(Fraction(u, denominator)) for u in units)
    pi = list(range(1, n + 1))
    while True:
        rng.shuffle(pi)
        if pi != sorted(pi):
            break
    return PermLambdaSpec(pi=tuple(pi), lengths=lengths)


def random_iet(
    rng: random.Random, max_intervals: int = 6, denominator: int = 8
) -> Iet:
    """Random rational IET in canonical form."""
    return Iet.from_perm_lambda(random_perm_lambda(rng, max_intervals, denominator))


class SuitePair(NamedTuple):
    name: str
    r: DisjointRotationSpec
    g: Iet


def _spec(lengths, rates) -> DisjointRotationSpec:
    return DisjointRotationSpec(lengths=tuple(lengths), rates=tuple(rates))


def _g(seed: int, max_intervals: int = 6, denominator: int = 8) -> Iet:
    return random_iet(random.Random(seed), max_intervals, denominator)


def demo_suite() -> Tuple[SuitePair, ...]:
    """The fixed end-to-end suite; see the module docstring for coverage."""
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    r2 = IRRATIONAL_RATES[2]
    r3 = IRRATIONAL_RATES[3]
    r5 = IRRATIONAL_RATES[5]
    pairs = [
        # badly approximable rates, g chosen to keep the word short
        SuitePair(
            "d2-one-block-sqrt2m1-identity",
            _spec([_q(1)], [r2[0]]),
            Iet.identity(),
        ),
        SuitePair(
            "d3-one-block-sqrt3m1-rot13",
            _spec([_q(1)], [r3[0]]),
            Iet.rotation(_q(Fraction(1, 3))),
        ),
        SuitePair(
            "d5-one-block-golden-identity",
            _spec([_q(1)], [r5[0]]),
            Iet.identity(),
        ),
        SuitePair(
            "d2-one-block-moderate-rot",
            _spec([_q(1)], [r2[1]]),
            Iet.rotation(_q(half)),
        ),
        # one block, random g
        SuitePair("d2-one-block", _spec([_q(1)], [r2[2]]), _g(201)),
        SuitePair("d3-one-block", _spec([_q(1)], [r3[2]]), _g(301)),
        SuitePair("d5-one-block", _spec([_q(1)], [r5[3]]), _g(401)),
        # two blocks, fixed block present
        SuitePair(
            "d2-two-blocks-fixed",
            _spec([_q(half), _q(half)], [r2[3], _q(0)]),
            _g(202),
        ),
        SuitePair(
            "d3-two-blocks-fixed",
            _spec([_q(Fraction(1, 3)), _q(Fraction(2, 3))], [_q(0), r3[2]]),
            _g(302),
        ),
        # two blocks, mixed rational/irrational (fixing power > 1)
        SuitePair(
            "d2-two-blocks-mixed",
            _spec([_q(half), _q(half)], [_q(half), r2[3]]),
            _g(203),
        ),
        SuitePair(
            "d5-two-blocks-mixed",
            _spec([_q(Fraction(2, 5)), _q(Fraction(3, 5))], [r5[3], _q(half)]),
            _g(402),
        ),
        # two blocks, both irrational
        SuitePair(
            "d2-two-blocks-irrational",
            _spec([_q(half), _q(half)], [r2[2], r2[5]]),
            _g(204),
        ),
        SuitePair(
            "d5-two-blocks-irrational",
            _spec([_q(half), _q(half)], [r5[2], r5[3]]),
            _g(403),
        ),
        # three blocks
        SuitePair(
            "d2-three-blocks",
            _spec([_q(quarter), _q(quarter), _q(half)], [r2[3], r2[4], _q(0)]),
            _g(205),
        ),
        SuitePair(
            "d3-three-blocks",
            _spec(
                [_q(Fraction(1, 6)), _q(Fraction(1, 3)), _q(half)],
                [r3[3], r3[4], _q(0)],
            ),
            _g(303),
        ),
        SuitePair(
            "d5-three-blocks-mixed",
            _spec([_q(quarter), _q(half), _q(quarter)], [_q(0), r5[4], _q(Fraction(3, 4))]),
            _g(404),
        ),
        # four blocks
        SuitePair(
            "d2-four-blocks",
            _spec(
                [_q(Fraction(1, 8)), _q(Fraction(3, 8)), _q(quarter), _q(quarter)],
                [r2[2], _q(0), r2[5], _q(0)],
            ),
            _g(206),
        ),
        SuitePair(
            "d3-four-blocks-mixed",
            _spec(
                [_q(quarter), _q(quarter), _q(quarter), _q(quarter)],
                [r3[2], _q(0), r3[3], _q(half)],
            ),
            _g(304),
        ),
        SuitePair(
            "d5-four-blocks-mixed",
            _spec(
                [_q(Fraction(1, 8)), _q(Fraction(1, 8)), _q(quarter), _q(half)],
                [r5[2], _q(half), _q(0), r5[4]],
            ),
            _g(405),
        ),
        SuitePair(
            "d3-two-blocks-thirds",
            _spec([_q(half), _q(half)], [r3[4], _q(0)]),
            _g(305),
        ),
        # purely rational rates: finite order branch
        SuitePair(
            "rational-finite-order",
            _spec([_q(half), _q(half)], [_q(quarter), _q(Fraction(3, 4))]),
            _g(501),
        ),
        SuitePair(
            "rational-single-rot",
            _spec([_q(1)], [_q(half)]),
            _g(502),
        ),
    ]
    return tuple(pairs)
