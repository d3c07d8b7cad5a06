"""In-memory spans and counts around the public calls of each ietrel layer.

`Tracer.install` replaces each traced callable with a wrapper at the place
its caller looks the name up: a module attribute such as
`ietrel.relations.find_M` (called by `synthesize_with_context` as a global),
or a class attribute such as `Iet.compose` (called as a method).  A span is
(name, start ns, end ns, parent span index, job); spans stay in memory until
the run writes them out.  A layer is the first component of a span name and
matches the module the call lives in.

QuadExt operators are not spanned, only counted: they run millions of times
per job.  A sample of their operands is kept for the micro-timings.
"""

from __future__ import annotations

import operator
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from ietrel import cli, relations
from ietrel.iet import Iet
from ietrel.intervals import IntervalSet
from ietrel.rotation import DisjointRotationSpec
from ietrel.scalars import QuadExt

Span = Tuple[str, int, int, int, Optional[str]]

_RELATIONS_STAGES = (
    "compute_P", "find_d", "find_epsilon", "find_M", "build_h", "build_k", "build_T",
    "neighborhood_union", "check_small_support",
)
_IET_METHODS = (
    "compose", "inverse", "power", "conjugate", "image_of", "support", "l1_distance_to_identity",
)
_INTERVAL_METHODS = (
    "contains_point", "union", "intersect", "is_disjoint", "contains_set", "complement", "measure",
)
_ROTATION_METHODS = (
    "block_bounds", "to_iet", "classify", "fixing_power", "block_rates", "power_spec",
    "min_block_length",
)
_CMP_OPS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")
_ARITH_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__neg__", "__abs__",
)
# every SAMPLE_EVERY-th call of < and + keeps its operands, up to SAMPLE_CAP pairs
SAMPLE_EVERY = 1009
SAMPLE_CAP = 512


def traced_targets():
    """(owner, attribute, span name) for every spanned call."""
    targets = [
        (cli, "main", "cli.main"),
        (cli, "parse_document", "documents.parse_document"),
        (cli, "emit_document", "documents.emit_document"),
        (cli, "emit_certificate", "documents.emit_certificate"),
        (cli, "synthesize_with_context", "relations.synthesize_with_context"),
        (cli, "eval_word_naive", "words.eval_word_naive"),
        (relations, "eval_word", "words.eval_word"),
        (relations, "circular_ball", "intervals.circular_ball"),
    ]
    targets += [(relations, n, f"relations.{n}") for n in _RELATIONS_STAGES]
    targets += [(Iet, n, f"iet.{n}") for n in _IET_METHODS]
    targets += [(IntervalSet, n, f"intervals.{n}") for n in _INTERVAL_METHODS]
    targets += [(DisjointRotationSpec, n, f"rotation.{n}") for n in _ROTATION_METHODS]
    return targets


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.job: Optional[str] = None
        self.counts: Counter = Counter()
        self.compose_pieces_max = 0
        # (P, epsilon) of every synthesis; epsilon halvings are derived after
        # the run so the scalar counts hold only the program's own operations
        self.searched: List[Tuple[tuple, QuadExt]] = []
        self.samples: Dict[str, List[Tuple[QuadExt, QuadExt]]] = {"lt": [], "add": []}
        self._stack: List[int] = []
        self._op_calls = {"cmp": [0], "arith": [0]}
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "iet.compose": self._on_compose,
            "words.eval_word_naive": self._on_eval_word_naive,
            "relations.find_M": self._on_find_M,
            "relations.synthesize_with_context": self._on_synthesis,
        }
        for owner, attr, name in traced_targets():
            self._patch(owner, attr, self._span(name, owner.__dict__[attr], hooks.get(name)))
        for kind, ops in (("cmp", _CMP_OPS), ("arith", _ARITH_OPS)):
            for op in ops:
                sample = {"__lt__": "lt", "__add__": "add"}.get(op)
                self._patch(QuadExt, op, self._counted(QuadExt.__dict__[op], kind, sample))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counted(self, fn: Callable, kind: str, sample: Optional[str]) -> Callable:
        calls = self._op_calls[kind]
        if sample is None:
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)
            return wrapper
        kept = self.samples[sample]

        def sampling_wrapper(a, b):
            calls[0] += 1
            if calls[0] % SAMPLE_EVERY == 0 and len(kept) < SAMPLE_CAP and type(b) is QuadExt:
                kept.append((a, b))
            return fn(a, b)

        return sampling_wrapper

    # -- counts taken where the work happens --------------------------------

    def _on_compose(self, args, result: Iet) -> None:
        self.counts["iet.compose_pieces_sum"] += result.num_intervals
        self.compose_pieces_max = max(self.compose_pieces_max, result.num_intervals)

    def _on_eval_word_naive(self, args, result) -> None:
        word = args[0]
        self.counts["words.letters"] += word.letter_count()
        self.counts["words.syllables"] += word.syllable_count()

    def _on_find_M(self, args, result: int) -> None:
        self.counts["relations.m_scan_steps"] += result * args[0].n

    def _on_synthesis(self, args, result) -> None:
        cert, ctx = result
        self.counts[f"relations.branch.{cert.branch}"] += 1
        if ctx is None:
            return
        self.counts["relations.points_P"] += len(ctx.P)
        self.counts["relations.points_P_prime"] += len(ctx.P_prime)
        self.counts["relations.fallbacks"] += int(ctx.fallback_used)
        self.searched.append((ctx.P, ctx.epsilon))

    @property
    def cmp_calls(self) -> int:
        return self._op_calls["cmp"][0]

    @property
    def arith_calls(self) -> int:
        return self._op_calls["arith"][0]


def eps_halvings(points, epsilon: QuadExt) -> int:
    """t with epsilon = eps0 / 2^t, eps0 as find_epsilon starts from it."""
    pts = sorted(set(points))
    if len(pts) >= 2:
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        gaps.append(pts[0] + 1 - pts[-1])
        eps0 = min(gaps) / 2
    else:
        eps0 = QuadExt(1) / 4
    ratio = (eps0 / epsilon).rat
    return ratio.numerator.bit_length() - 1


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the part its child spans cover, in ns."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(tracer: Tracer, wall_ns: int, passes: int) -> Dict[str, float]:
    """Per-layer metrics for one pass (totals over `passes` passes, divided).

    Call it with the tracer uninstalled."""
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter = Counter()
    inclusive: Dict[str, int] = defaultdict(int)
    self_by_name: Dict[str, int] = defaultdict(int)
    self_by_layer: Dict[str, int] = defaultdict(int)
    roots = 0
    for (name, start, end, parent, _), s in zip(spans, own):
        calls[name] += 1
        inclusive[name] += end - start
        self_by_name[name] += s
        self_by_layer[name.split(".", 1)[0]] += s
        if parent < 0:
            roots += end - start
    per = 1.0 / passes
    sec = 1e-9 * per

    def layer_calls(layer):
        return sum(n for name, n in calls.items() if name.startswith(layer + "."))

    c = tracer.counts
    m = {
        "scalars.cmp_calls": tracer.cmp_calls * per,
        "scalars.arith_calls": tracer.arith_calls * per,
        "iet.compose_calls": calls["iet.compose"] * per,
        "iet.compose_self_s": self_by_name["iet.compose"] * sec,
        "iet.compose_pieces_max": tracer.compose_pieces_max,
        "iet.compose_pieces_mean": c["iet.compose_pieces_sum"] / max(calls["iet.compose"], 1),
        "iet.inverse_calls": calls["iet.inverse"] * per,
        "iet.inverse_self_s": self_by_name["iet.inverse"] * sec,
        "iet.power_calls": calls["iet.power"] * per,
        "iet.power_self_s": self_by_name["iet.power"] * sec,
        "words.eval_word_naive_s": inclusive["words.eval_word_naive"] * sec,
        "words.letters": c["words.letters"] * per,
        "words.syllables": c["words.syllables"] * per,
        "words.eval_word_calls": calls["words.eval_word"] * per,
        "words.eval_word_s": inclusive["words.eval_word"] * sec,
        "relations.find_M_s": inclusive["relations.find_M"] * sec,
        "relations.m_scan_steps": c["relations.m_scan_steps"] * per,
        "relations.find_d_s": inclusive["relations.find_d"] * sec,
        "relations.find_epsilon_s": inclusive["relations.find_epsilon"] * sec,
        "relations.eps_halvings": sum(eps_halvings(P, e) for P, e in tracer.searched) * per,
        "relations.build_s": sum(inclusive[f"relations.build_{x}"] for x in "hkT") * sec,
        "relations.points_P": c["relations.points_P"] * per,
        "relations.points_P_prime": c["relations.points_P_prime"] * per,
        "relations.fallbacks": c["relations.fallbacks"] * per,
    }
    for branch in (relations.BRANCH_FINITE_ORDER, relations.BRANCH_H_TRIVIAL,
                   relations.BRANCH_T_TRIVIAL, relations.BRANCH_T_SIXTH):
        m[f"relations.branch.{branch}"] = c[f"relations.branch.{branch}"] * per
    m.update({
        "intervals.calls": layer_calls("intervals") * per,
        "rotation.calls": layer_calls("rotation") * per,
        "documents.parse_s": inclusive["documents.parse_document"] * sec,
        "documents.emit_s": (inclusive["documents.emit_document"]
                             + inclusive["documents.emit_certificate"]) * sec,
    })
    for layer in ("cli", "documents", "relations", "words", "iet", "intervals", "rotation"):
        m[f"{layer}.self_s"] = self_by_layer[layer] * sec
    m["trace.wall_s"] = wall_ns * sec
    m["trace.unaccounted_s"] = (wall_ns - roots) * sec
    return m


def op_timings(samples: Dict[str, List[Tuple[QuadExt, QuadExt]]], repeats: int = 15) -> Dict[str, float]:
    """Median ns per QuadExt < and + over the harvested operand pairs."""
    out = {}
    for metric, key, op in (("scalars.cmp_ns", "lt", operator.lt), ("scalars.add_ns", "add", operator.add)):
        pairs = samples[key]
        if not pairs:
            out[metric] = 0.0
            continue
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        runs = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for _ in map(op, left, right):
                pass
            runs.append((time.perf_counter_ns() - start) / len(pairs))
        out[metric] = statistics.median(runs)
    return out
