"""Exception types raised across the package.

Division by zero in a field reuses the builtin ZeroDivisionError.
"""


class NotPrime(ValueError):
    """Modulus is not a prime number."""


class CharTooSmall(ValueError):
    """Prime is 2 or 3; short-Weierstrass arithmetic needs p >= 5."""


class SingularCurve(ValueError):
    """Discriminant 4a^3 + 27b^2 vanishes; the curve is not smooth."""


class WrongCurveKind(TypeError):
    """Operation requires the other curve model (line vs elliptic)."""


class FieldTooLarge(ValueError):
    """Field exceeds the exhaustive-enumeration bound for this operation."""


class NoSuchCurve(LookupError):
    """No curve over this field meets the requested point count."""


class PoleAtPoint(ArithmeticError):
    """Function has a pole at the evaluation point."""


class PoleAtEvaluationPoint(PoleAtPoint):
    """A code evaluation point is a pole of some basis function."""


class InfinityUnsupported(ValueError):
    """Evaluation at the point at infinity is not defined here."""


class ZeroScalar(ValueError):
    """Factored functions are units; a zero scalar is not representable."""


class UnsupportedDivisor(ValueError):
    """Riemann-Roch dimension would need a principality test (genus 1, deg 0, D != 0)."""


class NegativeOrder(ValueError):
    """Pole-order bound must be non-negative."""


class DuplicateAlpha(ValueError):
    """Interpolation x-coordinates must be distinct."""


class TwoTorsionPoint(ValueError):
    """Fragment points must have nonzero y-coordinate."""


class DuplicatePoint(ValueError):
    """Evaluation points must be distinct."""


class TooLarge(RuntimeError):
    """Requested brute-force enumeration exceeds the configured cap."""


class BadEnvironment(ValueError):
    """An environment variable the package reads holds an unusable value."""


class LengthMismatch(ValueError):
    """Sequence lengths do not match the code length."""


class BadParams(ValueError):
    """Scheme parameters are out of range (genus, X, T, L) or do not fit together."""


class Infeasible(ValueError):
    """Scheme parameters violate the feasibility inequality."""


class CurveTooSmall(Infeasible):
    """Curve has too few rational points for the requested parameters."""


class BadL(Infeasible):
    """Fragment count L is invalid (genus 1 requires odd L)."""


class DescriptorMismatch(ValueError):
    """A scheme descriptor is malformed or does not match its deterministic rebuild."""


class ShapeMismatch(ValueError):
    """Table shapes disagree with the scheme dimensions."""


class BadTheta(ValueError):
    """Requested file index is out of range."""


class BadIndex(ValueError):
    """Server index is out of range."""


class UncertifiedRows(RuntimeError):
    """Independent decode rows that a closed form's certificate does not accept."""


class InconsistentSystem(ArithmeticError):
    """Response vector is not in the row space of the decode matrix."""


class DecodeMismatch(RuntimeError):
    """Decoded fragments differ from the stored file (protocol bug)."""
