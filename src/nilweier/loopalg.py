"""Truncated twisted matrix Laurent loops and their para-complex pairing.

A TwistedLoop is a 2x2 real-matrix Laurent polynomial X(lam) = sum_k X_k lam^k
supported on degrees [-N, N] with the twisting parity X(-lam) = s3 X(lam) s3
(s3 = diag(1,-1)): even-degree coefficients are diagonal, odd-degree ones
off-diagonal.  Truncation is explicit: every product records the Frobenius
mass of the coefficients it drops beyond degree N.

A LoopPair (S, T) represents one element of the para-complex loop group via
the null-basis reconstruction fixed once for the whole engine:

    eval(P, theta) = S(e^theta) * l  +  s3 (T(e^theta)^T)^(-1) s3 * lbar,

with l = (1+i')/2.  This convention is pinned by conformance tests that
round-trip the closed-form rotation and shear frames; the spectral value
mu = e^(i' theta) on the unit hyperbola corresponds to lam = e^theta.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParityViolation, SingularLoop, TruncationOverflow
from .paracomplex import ParaComplex

__all__ = [
    "SIGMA3",
    "TailAccumulator",
    "TwistedLoop",
    "LoopPair",
    "PCMatrix2",
    "loop_mul",
    "loop_inv",
    "loop_exp",
    "pair_eval",
    "mu_log_derivative",
    "star2",
]

SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])

_PARITY_TOL = 1e-9  # relative; violations above this raise ParityViolation


class TailAccumulator:
    """Running account of Laurent tail mass dropped by truncation.

    `dropped` and `kept` are Frobenius masses; a run is rejected when the
    relative dropped mass exceeds `bound`.
    """

    def __init__(self, bound: float = 1e-9):
        self.bound = bound
        self.dropped = 0.0
        self.kept = 0.0

    def record(self, dropped: float, kept: float) -> None:
        self.dropped += dropped
        self.kept += kept
        if not self.relative() <= self.bound:  # a NaN mass fails too
            raise TruncationOverflow(
                f"relative Laurent tail mass {self.relative():.3e} exceeds bound {self.bound:.3e}"
            )

    def relative(self) -> float:
        if self.kept > 0.0:
            return self.dropped / self.kept
        return float("inf") if self.dropped > 0.0 else 0.0

    def merge(self, other: "TailAccumulator") -> None:
        self.dropped += other.dropped
        self.kept += other.kept


@functools.cache
def _mask(N: int) -> np.ndarray:
    """Entries that must vanish: off-diagonal at even k, diagonal at odd k."""
    off_diagonal = ~np.eye(2, dtype=bool)
    even = (np.arange(-N, N + 1) % 2 == 0)[:, None, None]
    mask = np.where(even, off_diagonal, ~off_diagonal)
    mask.setflags(write=False)
    return mask


class TwistedLoop:
    """Immutable twisted 2x2 Laurent polynomial over the reals."""

    __slots__ = ("N", "c")

    def __init__(self, N: int, coeffs: np.ndarray | None = None, enforce_parity: bool = True):
        self.N = int(N)
        if coeffs is None:
            c = np.zeros((2 * self.N + 1, 2, 2))
        else:
            shared = isinstance(coeffs, np.ndarray) and not coeffs.flags.writeable
            c = np.array(coeffs, dtype=float, copy=None if shared else True)
            if c.shape != (2 * self.N + 1, 2, 2):
                raise ValueError(f"coefficient array must have shape {(2*self.N+1, 2, 2)}")
        if enforce_parity:
            fx = _Effects(1)
            c = _clean_parity(c[None], self.N, fx)[0]
            fx.play(0, None)
        c.setflags(write=False)
        self.c = c

    # -- constructors --------------------------------------------------------
    @staticmethod
    def identity(N: int) -> "TwistedLoop":
        loop = TwistedLoop(N)
        c = loop.c.copy()
        c[N] = np.eye(2)
        return TwistedLoop(N, c)

    @staticmethod
    def from_terms(N: int, terms: dict[int, np.ndarray]) -> "TwistedLoop":
        """Build from a sparse {degree: 2x2 matrix} mapping."""
        c = np.zeros((2 * N + 1, 2, 2))
        for k, m in terms.items():
            if abs(k) > N:
                raise ValueError(f"degree {k} outside truncation [-{N}, {N}]")
            c[k + N] = np.asarray(m, dtype=float)
        return TwistedLoop(N, c)

    # -- basic accessors -------------------------------------------------------
    def coeff(self, k: int) -> np.ndarray:
        if abs(k) > self.N:
            return np.zeros((2, 2))
        return self.c[k + self.N].copy()

    def support(self) -> tuple[int, int]:
        nz = np.nonzero(np.abs(self.c).sum(axis=(1, 2)))[0]
        if nz.size == 0:
            return (0, 0)
        return (int(nz[0]) - self.N, int(nz[-1]) - self.N)

    def norm(self) -> float:
        return float(np.sqrt((self.c**2).sum()))

    # -- evaluation -------------------------------------------------------------
    def eval(self, lam: float) -> np.ndarray:
        ks = np.arange(-self.N, self.N + 1, dtype=float)
        return np.tensordot(lam**ks, self.c, axes=1)

    def eval_log_deriv(self, lam: float) -> np.ndarray:
        """Evaluate lam d/dlam applied coefficientwise."""
        ks = np.arange(-self.N, self.N + 1, dtype=float)
        return np.tensordot(ks * lam**ks, self.c, axes=1)

    def det_at(self, lam: float) -> float:
        return float(np.linalg.det(self.eval(lam)))

    # -- derived loops ---------------------------------------------------------
    def scale_columns(self, d: float) -> "TwistedLoop":
        """Right-multiply by the constant diagonal gauge diag(d, 1/d)."""
        return TwistedLoop(self.N, _scale_rows(self.c[None], np.array([d]))[0], enforce_parity=False)

    def shift_mul(self, A: np.ndarray, deg: int, tail: TailAccumulator | None = None) -> "TwistedLoop":
        """Right-multiply by the single-term loop lam^deg * A (exact, cheap)."""
        out, dropped, kept = _shift_rows(self.c[None], np.asarray(A)[None], deg)
        if tail is not None:
            tail.record(float(dropped[0]), float(kept[0]))
        return TwistedLoop(self.N, out[0], enforce_parity=False)

    def __add__(self, other: "TwistedLoop") -> "TwistedLoop":
        _check_same_N(self, other)
        return TwistedLoop(self.N, self.c + other.c, enforce_parity=False)

    def __sub__(self, other: "TwistedLoop") -> "TwistedLoop":
        _check_same_N(self, other)
        return TwistedLoop(self.N, self.c - other.c, enforce_parity=False)

    def __rmul__(self, scalar: float) -> "TwistedLoop":
        return TwistedLoop(self.N, float(scalar) * self.c, enforce_parity=False)

    # -- diagnostics -------------------------------------------------------------
    def parity_error(self) -> float:
        bad = np.abs(self.c[_mask(self.N)])
        return float(bad.max()) if bad.size else 0.0

    def __repr__(self):
        lo, hi = self.support()
        return f"TwistedLoop(N={self.N}, support=[{lo},{hi}], norm={self.norm():.3g})"


def _check_same_N(a: TwistedLoop, b: TwistedLoop) -> None:
    if a.N != b.N:
        raise ValueError(f"truncation orders differ: {a.N} vs {b.N}")


class _Effects:
    """Side effects of a batch of loop operations, kept per item in the order
    a batch of one has them: tail records (dropped, kept), near-boundary
    warnings, and the error that ends the item.  `play(b, tail)` performs
    item b's effects."""

    def __init__(self, size: int):
        self.items: list[list] = [[] for _ in range(size)]
        self.alive = np.ones(size, dtype=bool)

    def record(self, dropped: np.ndarray, kept: np.ndarray) -> None:
        for b in np.flatnonzero(self.alive):
            self.items[b].append((float(dropped[b]), float(kept[b])))

    def warn(self, b: int, message: str) -> None:
        self.items[b].append(message)

    def fail(self, b: int, exc: Exception) -> None:
        if self.alive[b]:
            self.items[b].append(exc)
            self.alive[b] = False

    def play(self, b: int, tail) -> None:
        effects, self.items[b] = self.items[b], []
        for effect in effects:
            if isinstance(effect, tuple):
                if tail is not None:
                    tail.record(*effect)
            elif isinstance(effect, str):
                warnings.warn(effect, stacklevel=3)
            else:
                try:
                    raise effect
                finally:  # the traceback keeps this frame: drop its references to the error
                    del effect, effects


def _shift_rows(c: np.ndarray, A: np.ndarray, deg: int):
    """Products of a (B, 2N+1, 2, 2) stack with the single-term loops
    lam^deg * A[b], truncated to [-N, N]; returns (coefficients, dropped,
    kept) with each item's Frobenius tail masses, in a batch of one's order.

    Each 2x2 product is summed as `np.einsum("kij,jl->kil", ...)` sums one
    loop: from +0.0, one term at a time, so even the signs of zeros agree.
    A batched einsum would too, but it is several times slower."""
    out = np.zeros_like(c)
    prod = (c[..., 0, None] * A[:, None, None, 0] + 0.0) + c[..., 1, None] * A[:, None, None, 1]
    n = c.shape[1]
    lo, hi = max(0, deg), min(n, n + deg)
    out[:, lo:hi] = prod[:, lo - deg : hi - deg]
    dropped = np.sqrt(_sq_sum(prod[:, : lo - deg]) + _sq_sum(prod[:, hi - deg :]))
    return out, dropped, np.sqrt(_sq_sum(out))


def _scale_rows(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Right-multiply each loop of a (B, 2N+1, 2, 2) stack by diag(d_b, 1/d_b)."""
    out = c.copy()
    out[..., 0] *= d[:, None, None]
    out[..., 1] /= d[:, None, None]
    return out


def _sq_sum(c: np.ndarray) -> np.ndarray:
    """Per-item sum of squares of a (B, ...) stack, in a batch of one's order."""
    return (c**2).reshape(len(c), -1).sum(axis=1)


def _check_parity(c: np.ndarray, N: int, fx: _Effects) -> None:
    """Fail each item of a (B, 2N+1, 2, 2) stack whose off-parity mass exceeds
    round-off of its own scale; one (2N+1, 2, 2) loop shared by all items
    fails them all."""
    items = c.reshape(-1, *c.shape[-3:])
    scale = np.maximum(np.abs(items).reshape(len(items), -1).max(axis=1), 1e-300)
    worst = np.abs(items[:, _mask(N)]).max(axis=1)
    for b in np.flatnonzero(worst > _PARITY_TOL * scale):
        message = f"twisting parity violated: off-parity mass {worst[b]:.3e} vs scale {scale[b]:.3e}"
        exc = ParityViolation(message)
        for item in range(len(fx.items)) if c.ndim == 3 else (b,):
            fx.fail(item, exc)


def _clean_parity(c: np.ndarray, N: int, fx: _Effects) -> np.ndarray:
    """Zero the off-parity entries of a (B, 2N+1, 2, 2) stack; an item whose
    off-parity mass exceeds round-off of its own scale fails."""
    _check_parity(c, N, fx)
    out = c.copy()
    out[:, _mask(N)] = 0.0
    return out


@functools.cache
def _slots(L: int, lo: int) -> np.ndarray:
    """Flat positions, in L 2x2 coefficients of degrees lo, lo+1, ..., of the
    entries a twisted loop may hold: (X00, X11) at even degrees, (X01, X10)
    at odd ones."""
    odd = (np.arange(lo, lo + L) % 2 == 1)[:, None]
    slots = (4 * np.arange(L)[:, None] + np.where(odd, [1, 2], [0, 3])).ravel()
    slots.setflags(write=False)
    return slots


def _compact(c: np.ndarray, N: int, fx: _Effects) -> np.ndarray:
    """The (..., 2N+1, 2) compact form of a (B, 2N+1, 2, 2) stack or of one
    shared loop, read through the parity check: off-parity entries are
    dropped, and an item whose off-parity mass is above round-off fails."""
    _check_parity(c, N, fx)
    lead = c.shape[:-3]
    return c.reshape(*lead, -1)[..., _slots(2 * N + 1, -N)].reshape(*lead, 2 * N + 1, 2)


def _expand(c: np.ndarray, lo: int) -> np.ndarray:
    """The (B, L, 2, 2) loops of a compact (B, L, 2) stack whose first
    coefficient has degree lo; off-parity entries are +0.0."""
    B, L = c.shape[:2]
    out = np.zeros((B, 4 * L))
    out[:, _slots(L, lo)] = c.reshape(B, -1)
    return out.reshape(B, L, 2, 2)


def _mul_rows(a: np.ndarray, b: np.ndarray, fx: _Effects) -> np.ndarray:
    """Cauchy products truncated to [-N, N] of (B, 2N+1, 2, 2) stacks; `a`
    may also be one (2N+1, 2, 2) loop shared by all items.

    The inputs are read in compact form (see `_compact`).  Each entry of the
    2x2 product of two twisted coefficients has one term that can be
    nonzero, so a_m b_j is the compact a_m times the compact b_j, swapped
    when m is odd: one rounded product per entry, as the dense product has.
    Degrees of `a` accumulate in sequence from +0.0, as a batch of one does;
    degrees that vanish in every item are skipped, which is exact since
    adding a signed zero never changes the sum.  The dropped and kept tail
    masses are summed over the dense layout, zeros included.
    """
    n = b.shape[1]
    N = n // 2
    ac, bc = _compact(a, N, fx), _compact(b, N, fx)
    swapped = bc[..., ::-1]
    full = np.zeros((len(b), 2 * n - 1, 2))
    for m in np.flatnonzero(ac.reshape(-1, n, 2).any(axis=(0, 2))):
        full[:, m : m + n] += ac[..., m, None, :] * (swapped if (m - N) % 2 else bc)
    full = _expand(full, -2 * N)
    kept = full[:, N : N + n]
    dropped = np.sqrt(_sq_sum(full[:, :N]) + _sq_sum(full[:, N + n :]))
    fx.record(dropped, np.sqrt(_sq_sum(kept)))
    return kept


def loop_mul(a: TwistedLoop, b: TwistedLoop, tail: TailAccumulator | None = None) -> TwistedLoop:
    """Cauchy product truncated to [-N, N]; dropped tail mass is recorded."""
    _check_same_N(a, b)
    fx = _Effects(1)
    c = _mul_rows(a.c[None], b.c[None], fx)
    fx.play(0, tail)
    return TwistedLoop(a.N, c[0], enforce_parity=False)


@functools.cache
def _inv_gathers(N: int) -> tuple[np.ndarray, ...]:
    """For k = 1..N, the rows of [y_0..y_N, swapped y_0..y_N] that multiply
    x_1..x_k in the degree-k coefficient of x * y: y_(k-j), swapped when j
    is odd."""
    js = np.arange(1, N + 1)
    return tuple((k - js[:k]) + (N + 1) * (js[:k] % 2) for k in range(1, N + 1))


def _inv_rows(x: np.ndarray, lower: bool, fx: _Effects) -> np.ndarray:
    """Exact inverses of a (B, 2N+1, 2, 2) stack of loops supported on [-N,0]
    (lower) or [0,N] (upper); raises SingularLoop if any degree-0
    coefficient is singular.

    Works on the compact form (see `_compact`), with degrees counted along
    the half line: y_k = -y_0 (x_1 y_(k-1) + ... + x_k y_0), one step per k.
    The k products are gathered at once and summed in sequence, as the dense
    recursion sums them; y_0 = 1/x_0 entrywise is the LU inverse of a
    diagonal 2x2, and each entry of -y_0 acc is one product which the dense
    2x2 product adds to +0.0, so values and signs of zeros agree.
    """
    N = x.shape[1] // 2
    half = N + (-1 if lower else 1) * np.arange(N + 1)
    xc = _compact(x, N, fx)[:, half]
    y0 = xc[:, 0]
    if not y0.all():
        raise SingularLoop("degree-0 coefficient is singular")
    y0 = 1.0 / y0
    y = np.zeros((len(x), 2 * N + 2, 2))  # y_0..y_N, then the same swapped
    y[:, 0], y[:, N + 1] = y0, y0[:, ::-1]
    for k, rows in enumerate(_inv_gathers(N), start=1):
        acc = np.add.accumulate(xc[:, 1 : k + 1] * y[:, rows], axis=1)[:, -1]
        y[:, k] = -y0 * acc + 0.0
        y[:, N + 1 + k] = y[:, k, ::-1]
    out = np.zeros((len(x), 2 * N + 1, 2))
    out[:, half] = y[:, : N + 1]
    return _expand(out, -N)


def _inv_triangular(x: TwistedLoop, lower: bool) -> TwistedLoop:
    """Exact inverse of a loop supported on [-N,0] (lower) or [0,N] (upper)
    whose degree-0 coefficient is invertible; stays in the same subalgebra."""
    fx = _Effects(1)
    y = _inv_rows(x.c[None], lower, fx)
    fx.play(0, None)
    return TwistedLoop(x.N, y[0], enforce_parity=False)


def loop_inv(a: TwistedLoop) -> TwistedLoop:
    """Exact inverse of a loop supported on a half line whose degree-0
    coefficient is invertible, by the triangular recursion; a loop with
    nonzero coefficients at negative and at positive degrees raises
    ValueError."""
    lo, hi = a.support()
    if lo < 0 < hi:
        raise ValueError(f"loop is supported on [{lo}, {hi}], not on a half line")
    return _inv_triangular(a, lower=lo < 0)


def loop_exp(x: TwistedLoop) -> TwistedLoop:
    """exp of an algebra loop by scaling and squaring over loop_mul (at most
    40 Taylor terms)."""
    scale = x.norm()
    squarings = max(0, int(math.ceil(math.log2(scale / 0.25))) if scale > 0.25 else 0)
    xs = (1.0 / (2**squarings)) * x
    acc = TwistedLoop.identity(x.N)
    term = TwistedLoop.identity(x.N)
    for k in range(1, 41):
        term = loop_mul(term, (1.0 / k) * xs)
        acc = acc + term
        if term.norm() < 1e-18 * max(acc.norm(), 1.0):
            break
    for _ in range(squarings):
        acc = loop_mul(acc, acc)
    return acc


def star2(A: np.ndarray) -> np.ndarray:
    """Pointwise group involution s3 (A^T)^(-1) s3; for det A = 1 this is the
    180-degree rotation [[d, c], [b, a]]."""
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if det == 0.0:
        raise SingularLoop("involution of a singular matrix")
    return np.array([[A[1, 1], A[1, 0]], [A[0, 1], A[0, 0]]]) / det


@dataclass(frozen=True)
class PCMatrix2:
    """Para-complex 2x2 matrix in null-slot form M = P*l + Q*lbar.

    Multiplication, inversion and determinant act slotwise because l and lbar
    are orthogonal idempotents.
    """

    p: np.ndarray
    q: np.ndarray

    @staticmethod
    def from_real(A: np.ndarray) -> "PCMatrix2":
        A = np.asarray(A, float)
        return PCMatrix2(A.copy(), A.copy())

    def entry(self, i: int, j: int) -> ParaComplex:
        return ParaComplex.from_null(float(self.p[i, j]), float(self.q[i, j]))

    @property
    def re(self) -> np.ndarray:
        return (self.p + self.q) / 2.0

    @property
    def im(self) -> np.ndarray:
        return (self.p - self.q) / 2.0

    def conj(self) -> "PCMatrix2":
        return PCMatrix2(self.q.copy(), self.p.copy())

    def transpose(self) -> "PCMatrix2":
        return PCMatrix2(self.p.T.copy(), self.q.T.copy())

    def __matmul__(self, other: "PCMatrix2") -> "PCMatrix2":
        return PCMatrix2(self.p @ other.p, self.q @ other.q)

    def __add__(self, other: "PCMatrix2") -> "PCMatrix2":
        return PCMatrix2(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "PCMatrix2") -> "PCMatrix2":
        return PCMatrix2(self.p - other.p, self.q - other.q)

    def inverse(self) -> "PCMatrix2":
        try:
            return PCMatrix2(np.linalg.inv(self.p), np.linalg.inv(self.q))
        except np.linalg.LinAlgError as exc:
            raise SingularLoop("para-complex matrix has a singular null slot") from exc

    def det(self) -> ParaComplex:
        return ParaComplex.from_null(float(np.linalg.det(self.p)), float(np.linalg.det(self.q)))

    def max_abs(self) -> float:
        return float(max(np.abs(self.re).max(), np.abs(self.im).max()))


@dataclass(frozen=True)
class LoopPair:
    """Ordered pair of twisted loops; one para-complex loop in split form."""

    slot_s: TwistedLoop
    slot_t: TwistedLoop

    def __post_init__(self):
        _check_same_N(self.slot_s, self.slot_t)

    @property
    def N(self) -> int:
        return self.slot_s.N

    @staticmethod
    def identity(N: int) -> "LoopPair":
        return LoopPair(TwistedLoop.identity(N), TwistedLoop.identity(N))


def pair_eval(P: LoopPair, theta: float) -> PCMatrix2:
    """Evaluate the para-complex loop at mu = e^(i' theta).

    Fixed reconstruction: the S slot feeds the l component at lam = e^theta,
    the T slot feeds the lbar component through the pointwise involution
    star2; a frame pair (F, F) then lands in the para-unitary group.
    """
    lam = math.exp(theta)
    return PCMatrix2(P.slot_s.eval(lam), star2(P.slot_t.eval(lam)))


def mu_log_derivative(P: LoopPair, theta: float) -> PCMatrix2:
    """mu d/dmu of the evaluated loop, times its inverse, exactly.

    Computed from Laurent coefficients (lam d/dlam slotwise), never by finite
    differences: the l slot carries D_S = (lam dF_S) F_S^{-1} and the lbar
    slot carries s3 D_T^T s3, which together reproduce the derivative of the
    reconstruction above.
    """
    lam = math.exp(theta)
    out = []
    for slot in (P.slot_s, P.slot_t):
        M = slot.eval(lam)
        M1 = slot.eval_log_deriv(lam)
        try:
            D = np.linalg.solve(M.T, M1.T).T
        except np.linalg.LinAlgError as exc:
            raise SingularLoop("loop is singular at the requested spectral value") from exc
        out.append(D)
    d_s, d_t = out
    return PCMatrix2(d_s, SIGMA3 @ d_t.T @ SIGMA3)
