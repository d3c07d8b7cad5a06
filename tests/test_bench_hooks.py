"""The names the benchmark's tracer patches still exist where it looks them up.

`perfbench/tracing.py` wraps module and class attributes by name
(`owner.__dict__[attr]`), so renaming or removing one of them in `src/`
breaks `perfbench/run.py --trace 1`.  The benchmark's own tests live under
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
import workloads  # noqa: E402,F401 -- its imports from ietrel must resolve
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
