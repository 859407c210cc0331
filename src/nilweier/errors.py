"""Exception taxonomy.

Every recoverable failure mode of the engine has its own class so callers can
tell a geometric boundary (big cell, vertical point) from a numerical defect
(truncation overflow, singular solve) or a user error (parse, domain).
"""


class NilWeierError(Exception):
    """Base class for all library errors."""


class ZeroDivisor(NilWeierError):
    """Division or inversion by a para-complex number on the null cone."""


class DomainError(NilWeierError):
    """Square root or logarithm requested outside its para-complex domain."""


class NoEpsilon(NilWeierError):
    """No unit in {+1, -1, +i', -i'} makes both factors admit square roots."""


class TruncationOverflow(NilWeierError):
    """Dropped Laurent tail mass exceeded the configured relative budget."""

    def __init__(self, message, gridpoint=None):
        super().__init__(message)
        self.gridpoint = gridpoint


class ParityViolation(NilWeierError):
    """Loop coefficients break the twisting parity by more than round-off."""


class SingularLoop(NilWeierError):
    """A matrix loop could not be inverted (singular coefficient system)."""


class OutsideBigCell(NilWeierError):
    """Loop group factorization failed: the loop left the big cell."""

    def __init__(self, message, conditioning=None, gridpoint=None):
        super().__init__(message)
        self.conditioning = conditioning
        self.gridpoint = gridpoint


class GaugeFailure(NilWeierError):
    """Diagonal gauge normalization impossible (angle function h <= 0)."""

    def __init__(self, message, gridpoint=None):
        super().__init__(message)
        self.gridpoint = gridpoint


class DegeneratePotential(NilWeierError):
    """A potential coefficient function vanishes on the requested domain."""


class DegenerateSpinors(NilWeierError):
    """Spinor pair with psi2*conj(psi2) - psi1*conj(psi1) = 0."""


class DegenerateMetric(NilWeierError):
    """First fundamental form is singular at an evaluation point."""


class GridTooCoarse(NilWeierError):
    """Finite differences cannot resolve the claim: the noise floor exceeds
    the residual, or no gridpoint has a hole-free neighborhood."""


class ProjectionPole(NilWeierError):
    """Stereographic projection evaluated at its pole."""


class ParseError(NilWeierError):
    """Expression syntax error, with a 1-based byte offset."""

    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        want = " or ".join(self.expected)
        super().__init__(f"parse error at offset {offset}: expected {want}, found {found}")


class EvalDomain(NilWeierError):
    """Expression evaluation left the domain of a primitive function."""


class EmptyGrid(NilWeierError):
    """Mesh export requested for a grid with no points."""
