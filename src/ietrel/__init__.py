"""Exact interval exchange transformations over quadratic number fields,
with a synthesizer for group relations between a disjoint rotation map and
an arbitrary IET."""

from .errors import (
    ContextMismatchError,
    IetError,
    InvariantError,
    ParseError,
    PreconditionError,
    SearchCapError,
)
from .iet import Iet, PermLambdaSpec
from .intervals import IntervalSet
from .relations import (
    RelationCertificate,
    SynthesisContext,
    synthesize,
    synthesize_with_context,
)
from .rotation import DisjointRotationSpec, OrderClass
from .scalars import ONE, ZERO, QuadExt, as_scalar
from .words import Word

__all__ = [
    "QuadExt",
    "as_scalar",
    "ZERO",
    "ONE",
    "IntervalSet",
    "Iet",
    "PermLambdaSpec",
    "DisjointRotationSpec",
    "OrderClass",
    "Word",
    "synthesize",
    "synthesize_with_context",
    "SynthesisContext",
    "RelationCertificate",
    "IetError",
    "ContextMismatchError",
    "ParseError",
    "PreconditionError",
    "SearchCapError",
    "InvariantError",
]

__version__ = "0.1.0"
