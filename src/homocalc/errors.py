"""Error types shared across the package.

Every error carries the name of the operation that raised it, so CLI output and
check reports can point at the failing step without parsing the message.
"""


class CalculusError(Exception):
    def __init__(self, operation, message):
        self.operation = operation
        self.message = message
        super().__init__(f"{operation}: {message}")


class NumericalError(CalculusError):
    """A computation on valid input failed numerically; the CLI exits 3."""


class DimensionMismatch(CalculusError):
    """Operands live in different coordinate dimensions."""


class LatticeMismatch(CalculusError):
    """Operands belong to different lattices or incompatible shapes."""


class NoConvergence(NumericalError):
    """An iterative solve stopped above its optimality tolerance."""


class EmptyIntersection(NumericalError):
    """Two sets are farther apart than the tolerance; the distance is computed exactly."""


class NonFiniteResult(NumericalError):
    """A value computed from finite inputs is infinite or NaN: it lies outside the float range."""


class UnattainedBound(NumericalError):
    """A family's witness member does not attain the family's certified bound."""


class EmptyFamily(CalculusError):
    """A family evaluation was asked for with no members on the chosen side."""


class EnvelopeViolation(NumericalError):
    """A function's family and its oracle disagree on the sphere grid."""


class NotOrdered(NumericalError):
    """A superdifferential lies more than tol x scale from a subdifferential."""


class SaddleGap(NumericalError):
    """The two saddle evaluation orders disagree beyond tolerance."""


class UnknownBuiltin(CalculusError):
    """Requested builtin name is not registered."""


class IndexOutOfRange(CalculusError):
    """A coordinate or piece index is outside the element's range."""


class SchemaError(CalculusError):
    """A JSON document does not match the expected shape.

    Carries the source (file name or '<inline>') and the path within the
    document, so messages read like: family.maps[2].sublinear.subdiff: ...
    """

    def __init__(self, source, path, reason):
        self.source = source
        self.path = path
        super().__init__("load", f"{source}: {path}: {reason}")
