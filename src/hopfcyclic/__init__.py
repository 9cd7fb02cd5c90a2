"""Exact computer algebra for the cyclic module of a Hopf algebra with a
modular character: operator relation checking, Hochschild and cyclic
cohomology dimensions, Hopf actions with invariant traces, and the
idempotent pairing."""

__version__ = "0.1.0"

from .cohomology import (NotCyclicError, NotMixedComplexError,
                         cohomology_report, mixed_complex_report)
from .cyclic_ops import CochainCyclicModule, HopfCyclicModule
from .fields import CyclotomicField, RationalField
from .hopf import (BUILTIN_BUILDERS, Character, FiniteHopf, check_hopf_axioms,
                   check_involution, check_twisted_properties,
                   cyclic_group_algebra, function_algebra, group_algebra,
                   sweedler_h4, trivial_hopf)
from .relations import relation_suite

__all__ = [
    "BUILTIN_BUILDERS", "Character", "CochainCyclicModule", "CyclotomicField",
    "FiniteHopf", "HopfCyclicModule", "NotCyclicError",
    "NotMixedComplexError", "RationalField",
    "check_hopf_axioms", "check_involution", "check_twisted_properties",
    "cohomology_report", "cyclic_group_algebra", "function_algebra",
    "group_algebra", "mixed_complex_report", "relation_suite", "sweedler_h4",
    "trivial_hopf",
]
