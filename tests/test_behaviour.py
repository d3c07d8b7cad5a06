"""The behaviour digest's slice: the 22 suite pairs, 500 seeded random pairs and four
fixed pairs."""

from __future__ import annotations

import behaviour


def test_the_slice_keeps_its_committed_digest():
    pair_set = behaviour.SETS["slice"]
    counts, hexdigest = behaviour.digest(pair_set)
    assert sum(counts.values()) == 22 + pair_set.random_pairs + len(pair_set.fixed_pairs)
    assert hexdigest == pair_set.digest
