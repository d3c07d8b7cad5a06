"""The benchmark's uses of `src/` still hold.

`perfbench/tracing.py` wraps module and class attributes by name
(`owner.__dict__[attr]`), so renaming or removing one of them in `src/`
breaks `perfbench/run.py --trace 1`.  `perfbench/workloads.py` calls the
synthesis stages one by one to pick the suite's maps, so a change to their
signatures or their order breaks it.  The benchmark's own tests live under
`perfbench/` and are not part of this suite; this guard reads those modules
and changes nothing in them.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from ietrel.relations import BRANCH_T_SIXTH, synthesize_with_context  # noqa: E402
from ietrel.sampling import demo_suite  # noqa: E402
from ietrel.scalars import QuadExt  # noqa: E402


def test_every_traced_target_is_an_attribute_of_its_owner():
    missing = [
        (owner.__name__, attr)
        for owner, attr, _ in tracing.traced_targets()
        if attr not in owner.__dict__
    ]
    assert not missing


def test_every_counted_operator_is_defined_on_quadext():
    ops = tracing._CMP_OPS + tracing._ARITH_OPS
    assert [op for op in ops if op not in QuadExt.__dict__] == []


def test_the_benchmark_synthesis_plan_matches_synthesis():
    # workloads.synthesis_plan replays the stage functions of
    # synthesize_with_context in their order and with their signatures
    for pair in demo_suite():
        cert, _ = synthesize_with_context(pair.r, pair.g)
        branch, word = workloads.synthesis_plan(pair.r, pair.g)
        assert branch == cert.branch, pair.name
        assert (word**6 if branch == BRANCH_T_SIXTH else word) == cert.word, pair.name
