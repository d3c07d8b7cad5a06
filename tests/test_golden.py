"""Frozen certificates: `ietrel synthesize` on the 22 demo pairs is byte-stable.

Each tests/golden/<pair>.cert was written by `ietrel synthesize` on the
pair's r and g documents.  Minimality of d, epsilon and M is part of the
contract, so any change to a word, branch or parameter shows up here.
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
