"""Frozen outputs: `ietrel synthesize` on the 22 demo pairs and the README's
`disc-growth` example are byte-stable.

Each tests/golden/<pair>.cert was written by `ietrel synthesize` on the
pair's r and g documents.  Minimality of d, epsilon and M is part of the
contract, so any change to a word, branch or parameter shows up here.
tests/golden/disc-growth-generic.csv was written by `ietrel disc-growth
--map generic.pl --max-n 50` on the README's generic.pl: it pins the exact
and float L1 renderings of f^1 to f^50 and the discontinuity counts.
tests/golden/disc-growth-4-interval.csv was written by `ietrel disc-growth
--map disc-growth-4-interval.pl --max-n 64` before Iet.growth replaced the
compose chain: the shape of the benchmark's growth workload, a generic
4-interval map with irrational lengths whose f^n has 3n + 1 pieces.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ietrel.cli import EXIT_OK, main
from ietrel.documents import document, emit_document
from ietrel.sampling import demo_suite

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("pair", demo_suite(), ids=lambda pair: pair.name)
def test_synthesize_matches_the_golden_certificate(tmp_path, capsys, pair):
    r = tmp_path / "r.rot"
    g = tmp_path / "g.iet"
    cert = tmp_path / "cert"
    r.write_text(emit_document(document(pair.r)), encoding="utf-8")
    g.write_text(emit_document(document(pair.g)), encoding="utf-8")
    code = main(["synthesize", "--r", str(r), "--g", str(g), "-o", str(cert)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert cert.read_bytes() == (GOLDEN / f"{pair.name}.cert").read_bytes()


# the README's generic.pl
GENERIC_PL = """ietrel v1
D = 2
kind = perm-lambda
pi = 3, 2, 1
lengths = 1/4*sqrt(2), 1/4, 3/4-1/4*sqrt(2)
"""


def test_disc_growth_matches_the_golden_csv(tmp_path, capsys):
    f = tmp_path / "generic.pl"
    f.write_text(GENERIC_PL, encoding="utf-8")
    assert GENERIC_PL in (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = main(["disc-growth", "--map", str(f), "--max-n", "50"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / "disc-growth-generic.csv").read_bytes()


def test_disc_growth_of_a_4_interval_map_matches_the_golden_csv(capsys):
    doc = GOLDEN / "disc-growth-4-interval.pl"
    code = main(["disc-growth", "--map", str(doc), "--max-n", "64"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / "disc-growth-4-interval.csv").read_bytes()
