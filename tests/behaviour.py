"""The behaviour digest: one sha256 over what synthesis decides on many pairs.

For each pair (r, g), and the conjugator c when there is one, it records the
branch, word, L, d, epsilon and M, or the error class and message, and the
stored den, D and pairs of h.  A change that keeps every search result and
every word keeps the digest; a change that moves it says which pairs moved
and why, and commits the new digest below.

The pairs: the 22 demo_suite() pairs, then seeded random pairs with r from
conftest.random_rotation_spec and g from random_iet (2-6 intervals over 8,
12 or 24), every fifth with a random_iet conjugator, then for the slice four
pairs of the full set written out as documents, and for the full set the
deep-m pairs of perfbench/workloads.deep_m_pairs.

Run from the repository root, with the set's name:

    PYTHONPATH=src python tests/behaviour.py slice    # about 1 s; tier-1 runs it
    PYTHONPATH=src python tests/behaviour.py full     # about 30 s; CI runs it

It prints the count per branch and the sha256, and exits 1 when the sha256
is not the set's committed digest.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Tuple

from conftest import random_rotation_spec
from ietrel.documents import parse_document
from ietrel.errors import IetError
from ietrel.iet import Iet
from ietrel.relations import synthesize_with_context
from ietrel.rotation import DisjointRotationSpec
from ietrel.sampling import demo_suite, random_iet

SEED = 20261021


# (label, r document, g document) of four h_trivial pairs of the full set,
# none with a conjugator.  With _separate's t0 taken from 9 eps0 in place of
# 10 eps0, each reads epsilon = 5/48 in place of 5/96, and no random pair of
# the slice moves; drawing them from the seeded stream takes about 2.8 s.
T0_PAIRS = (
    ("random6706",
     "ietrel v1\nD = 5\nkind = rotation\nlengths = 1\nrates = 31/64+1/16777216*sqrt(5)\n",
     "ietrel v1\nD = 0\nkind = iet\nbreakpoints = 0, 19/24\ntranslations = 5/24, -19/24\n"),
    ("random13645",
     "ietrel v1\nD = 5\nkind = rotation\nlengths = 1\nrates = 31/64+1/16777216*sqrt(5)\n",
     "ietrel v1\nD = 0\nkind = iet\nbreakpoints = 0, 5/24\ntranslations = 19/24, -5/24\n"),
    ("random15707",
     "ietrel v1\nD = 5\nkind = rotation\nlengths = 1\nrates = 31/64+1/16777216*sqrt(5)\n",
     "ietrel v1\nD = 0\nkind = iet\nbreakpoints = 0, 5/24\ntranslations = 19/24, -5/24\n"),
    ("random18907",
     "ietrel v1\nD = 2\nkind = rotation\nlengths = 1\nrates = 33/64+1/16777216*sqrt(2)\n",
     "ietrel v1\nD = 0\nkind = iet\nbreakpoints = 0, 19/24\ntranslations = 5/24, -19/24\n"),
)


class PairSet(NamedTuple):
    random_pairs: int
    fixed_pairs: Tuple[Tuple[str, str, str], ...]
    deep_m_seeds: Tuple[int, ...]
    digest: str


SETS = {
    "slice": PairSet(
        500, T0_PAIRS, (), "4403038e8054c3874a9e66079abb310ae9876378c20ced895cde9cf3ccfd2b13"),
    "full": PairSet(
        20000, (), (0, 5), "7b8ab318b920e98828d7d5ba110c72db90f33d11b167d649206d2e7993efee09"),
}

Pair = Tuple[str, DisjointRotationSpec, Iet, Optional[Iet]]


def pairs(pair_set: PairSet) -> Iterator[Pair]:
    """(label, r, g, conjugator or None) of every pair of a set, in order."""
    for pair in demo_suite():
        yield pair.name, pair.r, pair.g, None
    rng = random.Random(SEED)
    for i in range(pair_set.random_pairs):
        r = random_rotation_spec(rng)
        g = random_iet(rng, 6, rng.choice((8, 12, 24)))
        c = random_iet(rng, 6, rng.choice((8, 12, 24))) if i % 5 == 4 else None
        yield f"random{i}", r, g, c
    for label, r_text, g_text in pair_set.fixed_pairs:
        yield label, parse_document(r_text).payload, parse_document(g_text).payload, None
    if pair_set.deep_m_seeds:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import deep_m_pairs

        for seed in pair_set.deep_m_seeds:
            for i, (r, g_spec, _) in enumerate(deep_m_pairs(seed)):
                yield f"deep-m{seed}/{i}", r, Iet.from_perm_lambda(g_spec), None


def outcome(r: DisjointRotationSpec, g: Iet, c: Optional[Iet]) -> Tuple[str, str]:
    """(branch or error class, the line that goes into the digest)."""
    try:
        cert, ctx = synthesize_with_context(r, g, c)
    except IetError as exc:
        return type(exc).__name__, f"{type(exc).__name__}: {exc}"
    h = None if ctx is None else (ctx.h._den, ctx.h._disc, ctx.h._bps, ctx.h._trs)
    return cert.branch, f"{cert.branch} {cert.word} {cert.L} {cert.d} {cert.epsilon} {cert.M} {h}"


def digest(pair_set: PairSet) -> Tuple[Counter, str]:
    """The count per branch and the sha256 of every pair's line."""
    counts: Counter = Counter()
    sha = hashlib.sha256()
    for label, r, g, c in pairs(pair_set):
        branch, line = outcome(r, g, c)
        counts[branch] += 1
        sha.update(f"{label} {line}\n".encode())
    return counts, sha.hexdigest()


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1 or args[0] not in SETS:
        print(f"usage: behaviour.py {{{'|'.join(SETS)}}}", file=sys.stderr)
        return 2
    pair_set = SETS[args[0]]
    counts, hexdigest = digest(pair_set)
    for branch, n in sorted(counts.items()):
        print(f"{branch} {n}")
    print(f"sha256 {hexdigest}")
    if hexdigest != pair_set.digest:
        print(f"differs from the committed {args[0]} digest {pair_set.digest}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
