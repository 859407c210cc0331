"""Para-complex (split-complex) arithmetic.

The scalar algebra C' = R + R*i' with i'^2 = +1.  Unlike the complex numbers
C' has zero divisors: z*conj(z) = re^2 - im^2 vanishes on the null cone
|re| = |im|.  The idempotents l = (1+i')/2 and lbar = (1-i')/2 split C' into
two real lines ("null" or light-cone coordinates p = re+im, q = re-im) on
which multiplication acts componentwise.  Everything downstream (matrix
loops, factorization, Sym-type formulas) exploits that splitting.

Branch conventions fixed here:
  * sqrt exists iff both null components are >= 0; the returned branch takes
    the nonnegative real root of each component, so sqrt(1) = 1.
  * log exists iff both null components are > 0 (componentwise log).
  * division by a zero divisor raises ZeroDivisor rather than producing NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoEpsilon, ZeroDivisor

__all__ = [
    "ParaComplex",
    "ONE",
    "I_PRIME",
    "pc",
    "pc_sqrt",
    "pc_exp",
    "pc_log",
    "admits_sqrt",
    "epsilon_for_sqrt",
]

_NULL_TOL = 0.0  # exact zero test on p*q; callers pre-screen near-null values


@dataclass(frozen=True)
class ParaComplex:
    """A number re + im*i' with i'^2 = 1."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("para-complex components must be finite")

    # -- null (light cone) coordinates -------------------------------------
    @property
    def p(self) -> float:
        """Coefficient of l = (1+i')/2."""
        return self.re + self.im

    @property
    def q(self) -> float:
        """Coefficient of lbar = (1-i')/2."""
        return self.re - self.im

    @staticmethod
    def from_null(p: float, q: float) -> "ParaComplex":
        return ParaComplex((p + q) / 2.0, (p - q) / 2.0)

    # -- involutions and norms ---------------------------------------------
    def conj(self) -> "ParaComplex":
        return ParaComplex(self.re, -self.im)

    def modulus_form(self) -> float:
        """z*conj(z) = re^2 - im^2 (can be negative)."""
        return self.re * self.re - self.im * self.im

    def is_zero_divisor(self, tol: float = 0.0) -> bool:
        return abs(self.p) <= tol or abs(self.q) <= tol

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        other = pc(other)
        return ParaComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = pc(other)
        return ParaComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return pc(other).__sub__(self)

    def __neg__(self):
        return ParaComplex(-self.re, -self.im)

    def __mul__(self, other):
        other = pc(other)
        return ParaComplex.from_null(self.p * other.p, self.q * other.q)

    __rmul__ = __mul__

    def inverse(self) -> "ParaComplex":
        if self.is_zero_divisor(_NULL_TOL):
            raise ZeroDivisor(f"{self} lies on the null cone")
        return ParaComplex.from_null(1.0 / self.p, 1.0 / self.q)

    def __truediv__(self, other):
        return self * pc(other).inverse()

    def __rtruediv__(self, other):
        return pc(other) * self.inverse()

    def __abs__(self):
        # Euclidean magnitude; used only for error reporting, not algebra.
        return math.hypot(self.re, self.im)

    def isclose(self, other, tol: float = 1e-12) -> bool:
        other = pc(other)
        return abs(self.re - other.re) <= tol and abs(self.im - other.im) <= tol

    def __repr__(self):
        return f"ParaComplex({self.re!r}, {self.im!r})"

    def __str__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re:g} {sign} {abs(self.im):g}i'"


ONE = ParaComplex(1.0, 0.0)
I_PRIME = ParaComplex(0.0, 1.0)


def pc(value) -> ParaComplex:
    """Coerce a real number or ParaComplex to ParaComplex."""
    if isinstance(value, ParaComplex):
        return value
    return ParaComplex(float(value), 0.0)


def admits_sqrt(z) -> bool:
    """True iff z has a para-complex square root (both null components >= 0)."""
    z = pc(z)
    return z.p >= 0.0 and z.q >= 0.0


def pc_sqrt(z) -> ParaComplex:
    """Square root on the nonnegative light cone.

    Returns w with w^2 = z, taking the nonnegative real root of each null
    component.  Raises DomainError when either component is negative; in
    particular sqrt(i') does not exist.
    """
    z = pc(z)
    if not admits_sqrt(z):
        raise DomainError(f"{z} has no para-complex square root")
    return ParaComplex.from_null(math.sqrt(z.p), math.sqrt(z.q))


def pc_exp(z) -> ParaComplex:
    """exp(x + y i') = e^x (cosh y + i' sinh y); componentwise exp in null form."""
    z = pc(z)
    return ParaComplex.from_null(math.exp(z.p), math.exp(z.q))


def pc_log(z) -> ParaComplex:
    """Inverse of pc_exp; requires both null components strictly positive."""
    z = pc(z)
    if z.p <= 0.0 or z.q <= 0.0:
        raise DomainError(f"{z} is not in the image of the para-complex exp")
    return ParaComplex.from_null(math.log(z.p), math.log(z.q))


_EPSILON_CANDIDATES = (ONE, -ONE, I_PRIME, -I_PRIME)


def epsilon_for_sqrt(x, y) -> ParaComplex:
    """First unit e in (+1, -1, +i', -i') with sqrt(e*x) and sqrt(e*y) defined.

    Exists whenever the product x*y admits a square root; otherwise raises
    NoEpsilon.  The candidate order is fixed for determinism.
    """
    x, y = pc(x), pc(y)
    for eps in _EPSILON_CANDIDATES:
        if admits_sqrt(eps * x) and admits_sqrt(eps * y):
            return eps
    raise NoEpsilon(f"product of {x} and {y} admits no square root")
