"""Exception types shared across the library.

Validators fail fast and attach a minimal witness (an element, pair or
triple) to the exception, so callers can see *where* an axiom broke, not
only that it did.
"""


class QsError(Exception):
    """Base class of all library errors."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ParseError(QsError):
    """A document could not be interpreted (missing keys, dangling names)."""


class NotAPartialOrder(QsError):
    """Antisymmetry fails; witness is a two-element cycle."""


class MissingJoin(QsError):
    """Some subset (the witness, possibly empty) has no least upper bound."""


class NotAFrame(QsError):
    """Binary meet fails to distribute over a binary join."""


class AssocFailure(QsError):
    """Composition is not associative; witness is an arrow triple."""


class UnitFailure(QsError):
    """An identity fails a unit law; witness is the offending arrow."""


class NotSupPreserving(QsError):
    """Composition fails to preserve bottom or a binary join."""


class TypeMismatch(QsError):
    """Arrows, objects or endpoints do not line up."""


class CompositionFailure(QsError):
    """A composition-inequality fails; witness is an object triple."""


class ActionFailure(QsError):
    """An action-inequality fails; witness names the side and the objects."""


class NotRegular(QsError):
    """A semicategory or semidistributor required to be regular is not."""


class NotACategory(QsError):
    """An operation needs unit-inequalities that do not hold."""


class NotIdempotent(QsError):
    """An arrow required to be idempotent is not."""


class NotCocontinuous(QsError):
    """An object map does not preserve colimits; witness is a presheaf."""


class NotTransitive(QsError):
    """A relation required to be transitive is not; witness is a pair chain."""


class NotSymmetric(QsError):
    """An equality matrix is not symmetric; witness is the element pair."""


class NotTransitiveEq(QsError):
    """An equality matrix fails the triangle law; witness is a triple."""


class EnumerationCapExceeded(QsError):
    """An enumeration would exceed the configured cap; witness is the size."""


class SearchCapExceeded(QsError):
    """A search would exceed the configured cap; witness is the size."""
