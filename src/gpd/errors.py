"""Exception taxonomy for the whole package.

Every constructor that validates raises one of these; callers can catch
GpdError to get all of them.
"""

from __future__ import annotations

__all__ = [
    "GpdError",
    "PreorderViolation",
    "UnknownPoint",
    "BadPartition",
    "AxiomViolation",
    "TopologyViolation",
    "NotAHomeomorphism",
    "NotAnAction",
    "NotEquivalence",
    "OutsideDomain",
    "GroupoidMismatch",
    "EffectivenessRequiresEtale",
    "InvalidCocycle",
    "NotMasa",
    "NotClosed",
    "InvariantViolation",
    "WrongShape",
    "UnknownEntry",
    "BadParams",
    "SchemaError",
]


class GpdError(Exception):
    """Base class for all package errors."""


class PreorderViolation(GpdError):
    """Minimal-neighborhood table is not reflexive/transitive."""


class UnknownPoint(GpdError):
    """A referenced point is not in the space."""


class BadPartition(GpdError):
    """Blocks do not partition the point set."""


class AxiomViolation(GpdError):
    """Algebraic groupoid axiom fails (units, inverses, associativity, Haar)."""


class TopologyViolation(GpdError):
    """A required map is not continuous/open for the given topologies."""


class NotAHomeomorphism(GpdError):
    """A partial map is not an open continuous bijection onto its image."""


class NotAnAction(GpdError):
    """Group action table violates identity/compatibility axioms."""


class NotEquivalence(GpdError):
    """Relation is not reflexive/symmetric/transitive on the point set."""


class OutsideDomain(GpdError):
    """Germ or partial-map evaluation requested outside the domain."""


class GroupoidMismatch(GpdError):
    """Two objects built over different groupoids were combined."""


class EffectivenessRequiresEtale(GpdError):
    """Effectiveness test invoked on a non-etale groupoid."""


class InvalidCocycle(GpdError):
    """2-cocycle table fails the identity or normalization check."""


class NotMasa(GpdError):
    """Operation requires a maximal abelian subalgebra and got something else."""


class NotClosed(GpdError):
    """Operation requires a product-closed algebra and got a bare subspace."""


class InvariantViolation(GpdError):
    """An internal invariant failed: a defect of the package, not of its input."""


class WrongShape(GpdError):
    """Construction needs two commuting involutions with disjoint moved sets."""


class UnknownEntry(GpdError):
    """Catalog lookup for a name that is not registered."""


class BadParams(GpdError):
    """Catalog entry parameters are malformed or out of range."""


class SchemaError(GpdError):
    """Serialized document does not match the expected shape."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
