"""Exception hierarchy shared across the package."""


class CrystalLabError(Exception):
    """Base class for all errors raised by crystal_lab."""


class ContextMismatch(CrystalLabError):
    """Operands belong to different precision contexts."""


class NonIntegrable(CrystalLabError):
    """A one-form is not the differential of any truncated series.

    Carries the index of the first failing entry of a matrix in row-major
    order (empty for a single one-form) and the body degree at which the
    p-divisibility requirement first fails there.
    """

    def __init__(self, degree, index=()):
        self.degree = degree
        self.index = index
        where = f"entry {index}, " if index else ""
        super().__init__(f"coefficient at {where}body degree {degree} is not "
                         f"divisible by its required p-power")


class PrecisionInsufficient(CrystalLabError):
    """The working p-adic precision cannot support the requested result."""


class UnsupportedHeight(CrystalLabError):
    """Height parameter outside the supported range [2, 10]."""


class NotConstant(CrystalLabError):
    """Operation requires a constant crystal (zero connection, t-free Frobenius)."""


class NonInvertible(CrystalLabError):
    """A matrix required to be invertible has vanishing determinant."""


class NotPerfect(CrystalLabError):
    """A Gram determinant is not a unit in the truncated ring."""


class NotStable(CrystalLabError):
    """A computed submodule fails closure under F or the connection."""


class InvalidExtension(CrystalLabError):
    """Extension data violates a structural invariant of its type."""


class WitnessInvalid(CrystalLabError):
    """A supplied trivialization witness fails its defining equations."""


class HypothesisMissing(CrystalLabError):
    """The rank-1-mod-p Frobenius hypothesis is not asserted on the input."""


class WrongBase(CrystalLabError):
    """Operation requires a different truncated base degree."""


class SchemaError(CrystalLabError):
    """A JSON document does not match the expected schema."""
