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
import json
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
        if self.relative() > self.bound:
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
            c = np.array(coeffs, dtype=float)
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

    def eval_log_deriv(self, lam: float, order: int = 1) -> np.ndarray:
        """Evaluate (lam d/dlam)^order applied coefficientwise."""
        ks = np.arange(-self.N, self.N + 1, dtype=float)
        return np.tensordot((ks**order) * lam**ks, self.c, axes=1)

    def det_at(self, lam: float) -> float:
        return float(np.linalg.det(self.eval(lam)))

    # -- derived loops ---------------------------------------------------------
    def scale_columns(self, d: float) -> "TwistedLoop":
        """Right-multiply by the constant diagonal gauge diag(d, 1/d)."""
        return TwistedLoop(self.N, _scale_rows(self.c[None], np.array([d]))[0], enforce_parity=False)

    def shift_mul(self, A: np.ndarray, deg: int, tail: TailAccumulator | None = None) -> "TwistedLoop":
        """Right-multiply by the single-term loop lam^deg * A (exact, cheap)."""
        out = np.zeros_like(self.c)
        prod = np.einsum("kij,jl->kil", self.c, A)
        n = 2 * self.N + 1
        lo, hi = max(0, deg), min(n, n + deg)
        out[lo:hi] = prod[lo - deg : hi - deg]
        if tail is not None:
            kept = float(np.sqrt((out**2).sum()))
            dropped_sq = (prod[: lo - deg] ** 2).sum() + (prod[hi - deg :] ** 2).sum()
            tail.record(float(np.sqrt(dropped_sq)), kept)
        return TwistedLoop(self.N, out, enforce_parity=False)

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

    def to_json(self) -> str:
        entries = []
        for k in range(-self.N, self.N + 1):
            m = self.c[k + self.N]
            if np.any(m != 0.0):
                entries.append({"k": k, "m": m.tolist()})
        return json.dumps({"N": self.N, "coeffs": entries})

    def __repr__(self):
        lo, hi = self.support()
        return f"TwistedLoop(N={self.N}, support=[{lo},{hi}], norm={self.norm():.3g})"


def _check_same_N(a: TwistedLoop, b: TwistedLoop) -> None:
    if a.N != b.N:
        raise ValueError(f"truncation orders differ: {a.N} vs {b.N}")


class _Effects:
    """Side effects of a batch of loop operations, kept per item in the order
    a batch of one has them: tail records (dropped, kept), near-boundary
    warnings, and the error that ends the item.  Anything with `record` is a
    tail account, so an `_Effects` can stand for one; its records then go to
    every live item.  `play(b, tail)` performs item b's effects."""

    def __init__(self, size: int):
        self.items: list[list] = [[] for _ in range(size)]
        self.alive = np.ones(size, dtype=bool)

    def record(self, dropped, kept) -> None:
        dropped = np.broadcast_to(dropped, self.alive.shape)
        kept = np.broadcast_to(kept, self.alive.shape)
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


def _scale_rows(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Right-multiply each loop of a (B, 2N+1, 2, 2) stack by diag(d_b, 1/d_b)."""
    out = c.copy()
    out[..., 0] *= d[:, None, None]
    out[..., 1] /= d[:, None, None]
    return out


def _sq_sum(c: np.ndarray) -> np.ndarray:
    """Per-item sum of squares of a (B, ...) stack, in a batch of one's order."""
    return (c**2).reshape(len(c), -1).sum(axis=1)


def _clean_parity(c: np.ndarray, N: int, fx: _Effects) -> np.ndarray:
    """Zero the off-parity entries of a (B, 2N+1, 2, 2) stack; an item whose
    off-parity mass exceeds round-off of its own scale fails."""
    mask = _mask(N)
    scale = np.maximum(np.abs(c).reshape(len(c), -1).max(axis=1), 1e-300)
    worst = np.abs(c[:, mask]).max(axis=1)
    for b in np.flatnonzero(worst > _PARITY_TOL * scale):
        message = f"twisting parity violated: off-parity mass {worst[b]:.3e} vs scale {scale[b]:.3e}"
        fx.fail(b, ParityViolation(message))
    out = c.copy()
    out[:, mask] = 0.0
    return out


def _mul_rows(a: np.ndarray, b: np.ndarray, fx: _Effects) -> np.ndarray:
    """Cauchy products truncated to [-N, N] of (B, 2N+1, 2, 2) stacks; `a`
    may also be one (2N+1, 2, 2) loop shared by all items.

    Degrees accumulate in sequence, as a batch of one does; degrees of `a`
    that vanish in every item are skipped, which is exact since adding a
    signed zero never changes the sum.  Each item's dropped and kept tail
    masses are recorded before its parity check.
    """
    n = a.shape[-3]
    N = n // 2
    full = np.zeros((len(b), 2 * n - 1, 2, 2))
    b0, b1 = b[:, :, 0, None, :], b[:, :, 1, None, :]
    for m in np.flatnonzero(a.reshape(-1, n, 4).any(axis=(0, 2))):
        am = a[..., m, None, :, :]
        full[..., m : m + n, :, :] += am[..., 0, None] * b0 + am[..., 1, None] * b1
    kept = full[:, N : N + n]
    dropped = np.sqrt(_sq_sum(full[:, :N]) + _sq_sum(full[:, N + n :]))
    fx.record(dropped, np.sqrt(_sq_sum(kept)))
    return _clean_parity(kept, N, fx)


def loop_mul(a: TwistedLoop, b: TwistedLoop, tail: TailAccumulator | None = None) -> TwistedLoop:
    """Cauchy product truncated to [-N, N]; dropped tail mass is recorded."""
    _check_same_N(a, b)
    fx = _Effects(1)
    c = _mul_rows(a.c[None], b.c[None], fx)
    fx.play(0, tail)
    return TwistedLoop(a.N, c[0], enforce_parity=False)


def _inv_rows(x: np.ndarray, lower: bool, fx: _Effects) -> np.ndarray:
    """Exact inverses of a (B, 2N+1, 2, 2) stack of loops supported on [-N,0]
    (lower) or [0,N] (upper); raises SingularLoop if any degree-0
    coefficient is singular."""
    N = x.shape[1] // 2
    y = np.zeros_like(x)
    try:
        y0 = np.linalg.inv(x[:, N])
    except np.linalg.LinAlgError as exc:
        raise SingularLoop("degree-0 coefficient is singular") from exc
    y[:, N] = y0
    sign = -1 if lower else 1
    for k in range(1, N + 1):
        acc = np.zeros_like(y0)
        for j in range(1, k + 1):
            acc += x[:, N + sign * j] @ y[:, N + sign * (k - j)]
        y[:, N + sign * k] = -y0 @ acc
    return _clean_parity(y, N, fx)


def _inv_triangular(x: TwistedLoop, lower: bool) -> TwistedLoop:
    """Exact inverse of a loop supported on [-N,0] (lower) or [0,N] (upper)
    whose degree-0 coefficient is invertible; stays in the same subalgebra."""
    fx = _Effects(1)
    y = _inv_rows(x.c[None], lower, fx)
    fx.play(0, None)
    return TwistedLoop(x.N, y[0], enforce_parity=False)


def loop_inv(a: TwistedLoop, tail: TailAccumulator | None = None) -> TwistedLoop:
    """Loop inverse within the truncation.

    Loops supported on a half line with invertible constant term invert by an
    exact triangular recursion; the general case solves the block-Toeplitz
    system  project(a * x) = id  over degrees [-N, N].
    """
    N = a.N
    lo, hi = a.support()
    if lo >= 0:
        return _inv_triangular(a, lower=False)
    if hi <= 0:
        return _inv_triangular(a, lower=True)
    n = 2 * N + 1
    big = np.zeros((n, 2, n, 2))
    for k in range(n):
        for m in range(max(0, k - N), min(n, k + N + 1)):
            big[k, :, m, :] = a.c[k - m + N]
    big = big.reshape(2 * n, 2 * n)
    rhs = np.zeros((2 * n, 2))
    rhs[2 * N : 2 * N + 2] = np.eye(2)
    try:
        sol = np.linalg.solve(big, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularLoop("coefficient system for the inverse is singular") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularLoop("coefficient system for the inverse is singular")
    x = sol.reshape(n, 2, 2)
    out = TwistedLoop(N, x)
    check = loop_mul(a, out, tail)
    resid = check - TwistedLoop.identity(N)
    if resid.norm() > 1e-6 * max(1.0, a.norm()):
        raise SingularLoop(f"inverse residual {resid.norm():.3e} too large")
    return out


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

    def mul(self, other: "LoopPair") -> "LoopPair":
        return LoopPair(
            loop_mul(self.slot_s, other.slot_s),
            loop_mul(self.slot_t, other.slot_t),
        )


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
        M1 = slot.eval_log_deriv(lam, 1)
        try:
            D = np.linalg.solve(M.T, M1.T).T
        except np.linalg.LinAlgError as exc:
            raise SingularLoop("loop is singular at the requested spectral value") from exc
        out.append(D)
    d_s, d_t = out
    return PCMatrix2(d_s, SIGMA3 @ d_t.T @ SIGMA3)
