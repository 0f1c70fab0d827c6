"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class;
generic misuse (wrong dimensions, malformed input objects) raises the
builtin ValueError/IndexError instead.
"""


class SuperalgError(Exception):
    """Base class for all package-specific errors."""


class SingularOddBlock(SuperalgError):
    """The odd-odd block of a supermatrix is not invertible, so the
    Berezinian formula does not apply."""


class NotAScalarSquare(SuperalgError):
    """A torus function does not factor as (perfect square) * (scalar)."""


class DegenerateForm(SuperalgError):
    """A quadratic form that a computation relies on is unusable: singular,
    not even, supersymmetric and invariant, or without an orthosymplectic
    root frame."""


class ZeroTorusCoordinate(SuperalgError):
    """Torus elements need all coordinates nonzero."""


class DegreeTooHigh(SuperalgError):
    """Conjugation pullback only accepts monomial arguments of degree <= 1."""


class NotAlmostComplex(SuperalgError):
    """A candidate complex structure J does not satisfy J^2 = -Id."""


class NotAnIdeal(SuperalgError):
    """The proposed quotient generators do not span an even ideal."""


class NotEigenfunction(SuperalgError):
    """The square root of the conjugation superdeterminant is not an
    eigenfunction of the torus Laplacian for this algebra."""


class SingularPoint(SuperalgError):
    """A torus point lies on the singular locus of the function being
    evaluated."""


class ParseError(SuperalgError):
    """An algebra definition file is malformed."""


class UnsupportedAlgebra(SuperalgError):
    """The requested builder spec is not recognized."""
