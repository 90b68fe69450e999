"""Exception types shared across the package."""


class QuatwittError(Exception):
    """Base class for all package errors."""


class LevelMismatch(QuatwittError, TypeError):
    """Mixed elements from incompatible tower levels."""


class DivisionByZero(QuatwittError, ZeroDivisionError):
    """Inverse or quotient of a zero element."""


class ParseError(QuatwittError, ValueError):
    """Element expression failed to parse."""


class NotASquare(QuatwittError, ArithmeticError):
    """Square-root request for a non-square element."""


class RamifiedParameters(QuatwittError, ValueError):
    """Conic valuation built over non-unit conic parameters."""


class CertificateFailed(QuatwittError, AssertionError):
    """An exact self-check (a congruence certificate, a splitting
    identity, a norm guard) failed; internal inconsistency."""


class NegativeValue(QuatwittError, ValueError):
    """Residue requested for an element of negative value."""


class Degenerate(QuatwittError, ValueError):
    """Gram matrix with zero determinant."""


class AlgebraMismatch(QuatwittError, TypeError):
    """Quaternion operands from different algebras."""


class ZeroElement(QuatwittError, ValueError):
    """Operation undefined on the zero quaternion."""


class EvenResidueChar(QuatwittError, ValueError):
    """Residue characteristic 2 is outside scope."""


class RamifiedAlgebra(QuatwittError, ValueError):
    """Operation requires an unramified quaternion algebra."""


class DimensionMismatch(QuatwittError, ValueError):
    """Vector or matrix dimensions do not match the form."""


class ZeroScalar(QuatwittError, ValueError):
    """Scaling by zero is not a form operation."""


class ZeroEntry(QuatwittError, ValueError):
    """Diagonal entry is the zero quaternion."""


class NotOnConic(QuatwittError, ValueError):
    """Specialization point does not satisfy the conic equation."""


class DegenerateSpecialization(QuatwittError, ValueError):
    """Specialized linear entry vanished; retry with another point."""


class HypothesisNotCertified(QuatwittError, ValueError):
    """Verification pipeline requires a Certified good-reduction hypothesis."""


class ScenarioError(QuatwittError, ValueError):
    """Scenario file failed validation."""


class UnsupportedField(QuatwittError, NotImplementedError):
    """The requested decision is not implemented over this field."""
