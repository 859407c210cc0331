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

import contextlib
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
    relative dropped mass exceeds `bound` or either mass is NaN.  `record`
    adds one pair of masses; `replay` adds a whole array of them in order,
    checking the bound after each.
    """

    def __init__(self, bound: float = 1e-9):
        self.bound = bound
        self.dropped = 0.0
        self.kept = 0.0

    def record(self, dropped: float, kept: float) -> None:
        self.replay(np.array([dropped, kept]))

    def replay(self, masses: np.ndarray) -> None:
        """Add each (dropped, kept) pair of a (..., 2) array in order; at the
        first crossing the account is left at that prefix and TruncationOverflow
        is raised."""
        if self._replay(masses) is not None:
            raise self._overflow()

    def _replay(self, masses: np.ndarray) -> int | None:
        """`replay` without its error: the index of the first pair whose prefix
        crosses the bound, or None.  The pairs are one sequential `np.cumsum`
        from the account's masses, the sums of adding them one at a time,
        checked at every prefix by `relative`'s rule (a NaN mass fails)."""
        masses = masses.reshape(-1, 2)
        with np.errstate(all="ignore"):  # Python's float arithmetic overflows quietly
            sums = np.cumsum(np.concatenate(([[self.dropped, self.kept]], masses)), axis=0)
            dropped, kept = sums[1:, 0], sums[1:, 1]
            rel = np.where(kept > 0.0, dropped / kept, np.where(dropped > 0.0, np.inf, 0.0))
            over = np.flatnonzero(~(rel <= self.bound) | np.isnan(dropped) | np.isnan(kept))
        self.dropped, self.kept = map(float, sums[over[0] + 1 if len(over) else -1])
        return int(over[0]) if len(over) else None

    def relative(self) -> float:
        if math.isnan(self.dropped) or math.isnan(self.kept):
            return math.nan
        if self.kept > 0.0:
            return self.dropped / self.kept
        return float("inf") if self.dropped > 0.0 else 0.0

    def _overflow(self) -> TruncationOverflow:
        return TruncationOverflow(
            f"relative Laurent tail mass {self.relative():.3e} exceeds bound {self.bound:.3e}"
        )

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
            c = _expand(_compact(c[None], self.N, fx), -self.N)[0]
            fx.play(0, 1, None)
        c.setflags(write=False)
        self.c = c

    # -- constructors --------------------------------------------------------
    @staticmethod
    def identity(N: int) -> "TwistedLoop":
        return TwistedLoop.from_terms(N, {0: np.eye(2)})

    @staticmethod
    def from_terms(N: int, terms: dict[int, np.ndarray]) -> "TwistedLoop":
        """Build from a sparse {degree: 2x2 matrix} mapping; a zero term past N
        is dropped, and the lowest nonzero one raises."""
        c = np.zeros((2 * N + 1, 2, 2))
        for k, m in sorted(terms.items()):
            if abs(k) <= N:
                c[k + N] = np.asarray(m, dtype=float)
            elif np.any(m):
                raise ValueError(f"degree {k} outside truncation [-{N}, {N}]")
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
        """Right-multiply by the single-term loop lam^deg * A, built by `from_terms`."""
        return loop_mul(self, TwistedLoop.from_terms(self.N, {deg: A}), tail)

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


_LIVE = np.iinfo(np.intp).max


class _Effects:
    """Side effects of a batch of B loop operations as arrays, each item's in a
    batch of one's order: `records` has a (B, 2) column of (dropped, kept)
    masses per `record` call, of which item b keeps the first `ends[b]` (_LIVE
    until it fails with `failures[b]`); `warnings[b]` are item b's (columns
    before it, message) in kernel order."""

    def __init__(self, size: int):
        self.records = np.zeros((size, 0, 2))
        self.ends = np.full(size, _LIVE)
        self.failures: list[Exception | None] = [None] * size
        self.warnings: list[list[tuple[int, str]]] = [[] for _ in range(size)]

    @property
    def alive(self) -> np.ndarray:
        return self.ends == _LIVE

    def record(self, dropped: np.ndarray, kept: np.ndarray) -> None:
        self.records = np.hstack((self.records, np.stack([dropped, kept], axis=1)[:, None]))

    def warn(self, b: int, message: str) -> None:
        if self.ends[b] == _LIVE:
            self.warnings[b].append((self.records.shape[1], message))

    def fail(self, b: int, exc: Exception) -> None:
        if self.ends[b] == _LIVE:
            self.failures[b], self.ends[b] = exc, self.records.shape[1]

    def fail_as(self, other: "_Effects", index: np.ndarray) -> None:
        """Fail each item b as item index[b] of `other` failed."""
        for b in np.flatnonzero(~other.alive[index]):
            self.fail(b, other.failures[index[b]])

    def part(self, b: int) -> tuple:
        """Item b's effects as a `_play` part: its kept records, warnings and failure."""
        return self.records[b, : self.ends[b]], self.warnings[b], self.failures[b]

    def play(self, lo: int, hi: int, tail, holes=(), naming=contextlib.nullcontext) -> list:
        """`_play` of items lo..hi-1, naming the error by its item, which lets go of it."""

        def named(i):
            self.failures[lo + i] = None  # the traceback keeps this frame
            return naming(lo + i)

        return _play([self.part(b) for b in range(lo, hi)], tail, holes, named)


def _play(parts, tail, holes=(), naming=contextlib.nullcontext) -> list:
    """Perform ordered parts as one after another would.  A part is a (k, 2)
    array of (dropped, kept) masses, its (masses before it, message) warnings
    and its failure or None.  The masses go into `tail` (if not None) in one
    replay, the warnings are issued, and the failures are returned.  The
    first failure not of a type in `holes`, or the tail's TruncationOverflow
    at the mass that crosses its bound, stops the play after what comes
    before it and is raised inside `naming(i)` of its part i; the parts from
    i on are then taken out of `parts`, so that no frame of the traceback
    holds the error."""
    failures = [part[2] for part in parts]
    fatal = [i for i, e in enumerate(failures) if e is not None and not isinstance(e, holes)]
    # where the play stops, as (part, masses of it played), and the error raised there
    stop, error = ((fatal[0], _LIVE), failures[fatal[0]]) if fatal else ((len(parts), 0), None)
    if tail is not None and parts:
        masses = [part[0] for part in parts[: stop[0] + 1]]
        crossing = tail._replay(np.concatenate(masses))
        if crossing is not None:
            sizes = [len(m) for m in masses]
            i = int(np.searchsorted(np.cumsum(sizes), crossing, side="right"))
            stop, error = (i, crossing - sum(sizes[:i]) + 1), tail._overflow()
    issued = [m for i, part in enumerate(parts[: stop[0] + 1]) for c, m in part[1] if (i, c) < stop]
    for message in issued:  # at the line that plays: `_Effects.play`'s caller, or `_play`'s
        warnings.warn(message, stacklevel=3)
    if error is None:
        return failures
    del parts[stop[0] :], failures
    try:
        with naming(stop[0]):
            raise error
    finally:
        del error


@functools.cache
def _parity_swap(n: int) -> np.ndarray:
    """Which of an off-diagonal A's (A01, A10) multiplies each compact entry
    of n = 2N+1 degrees, in either degree order, in the product with A:
    (A01, A10) at even degrees, (A10, A01) at odd ones."""
    return np.where((np.arange(n)[:, None] - n // 2) % 2, [1, 0], [0, 1])


def _shift_compact(c: np.ndarray, A: np.ndarray, kept: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """Products of a compact (B, 2N+1, 2) stack with the single-term loops
    lam^deg * A[b], truncated to [-N, N], with the bits of the dense product
    `np.einsum("kij,jl->kil", c, A)`.  The stack is stored so that lam^deg
    moves index i + 1 to i (degrees ascending for lam^-1, descending for
    lam^+1), with A[b]'s (A01, A10) gathered by `_parity_swap`.  A dense
    entry, summed from +0.0, is (x A + 0.0) + y A', x or y off parity and
    +0.0: where both are finite, the compact entry times its factor plus
    +0.0.  The kept degrees go to kept[:, :-1] (kept[:, -1] is left zero),
    the dropped one to `dropped`; returns kept."""
    full = c * A + 0.0
    kept[:, :-1] = full[:, 1:]
    dropped[...] = full[:, 0]
    return kept


def _shift_masses(kept, dropped, at, buf, inputs) -> np.ndarray:
    """The (B, 2) (dropped, kept) Frobenius masses of B `_shift_compact`
    products, as the dense products' masses are summed (`at` and `buf` as for
    `_dense_sq_sum`).  A dense product's off-parity entries, (x 0 + 0) + 0 y,
    are NaN at each degree whose compact input or A is not finite, and then
    so is the mass of that part.  Such an input or A also makes a compact
    mass non-finite, so only then is `inputs()` called for the inputs and
    the (A01, A10), which are reshaped to (B, 2N+1, 2) and (B, 2)."""
    masses = np.sqrt(np.stack([(dropped**2).sum(axis=1), _dense_sq_sum(kept, at, buf)], axis=1))
    if not np.isfinite(masses).all():
        x, A = inputs()
        bad = ~np.isfinite(x.reshape(kept.shape)).all(axis=2)
        bad |= ~np.isfinite(A.reshape(-1, 2)).all(axis=1)[:, None]
        masses[bad[:, 0], 0] = np.nan
        masses[bad[:, 1:].any(axis=1), 1] = np.nan
    return masses


def _scale_rows(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Right-multiply each loop of a (B, 2N+1, 2, 2) stack by diag(d_b, 1/d_b)."""
    out = c.copy()
    out[..., 0] *= d[:, None, None]
    out[..., 1] /= d[:, None, None]
    return out


def _sq_sum(c: np.ndarray) -> np.ndarray:
    """Per-item sum of squares of a (B, ...) stack, in a batch of one's order."""
    return (c**2).reshape(len(c), math.prod(c.shape[1:])).sum(axis=1)


def _dense_sq_sum(c: np.ndarray, at: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """`_sq_sum` of the dense (B, L, 2, 2) layout of a compact (B, L, 2)
    stack, with the same bits: the squares go to their flat positions `at`
    (B, 2L) in `buf`, a contiguous (B, 4L) array that is zero elsewhere, and
    the rows of buf are summed."""
    buf.reshape(-1)[at] = (c**2).reshape(at.shape)
    return buf.sum(axis=1)


def _check_parity(c: np.ndarray, N: int, fx: _Effects) -> None:
    """Fail each item of a (B, 2N+1, 2, 2) stack whose off-parity mass exceeds
    round-off of its own scale."""
    scale = np.maximum(np.abs(c).reshape(len(c), 4 * (2 * N + 1)).max(axis=1), 1e-300)
    worst = np.abs(c[:, _mask(N)]).max(axis=1)
    for b in np.flatnonzero(worst > _PARITY_TOL * scale):
        message = f"twisting parity violated: off-parity mass {worst[b]:.3e} vs scale {scale[b]:.3e}"
        fx.fail(b, ParityViolation(message))


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
    """The (B, 2N+1, 2) compact form of a (B, 2N+1, 2, 2) stack, read through
    the parity check: off-parity entries are dropped, and an item whose
    off-parity mass is above round-off fails."""
    _check_parity(c, N, fx)
    B, n = c.shape[:2]
    return c.reshape(B, 4 * n)[:, _slots(n, -N)].reshape(B, n, 2)


def _expand(c: np.ndarray, lo: int) -> np.ndarray:
    """The (B, L, 2, 2) loops of a compact (B, L, 2) stack whose first
    coefficient has degree lo; off-parity entries are +0.0."""
    B, L = c.shape[:2]
    out = np.zeros((B, 4 * L))
    out[:, _slots(L, lo)] = c.reshape(B, 2 * L)
    return out.reshape(B, L, 2, 2)


def _mul_rows(a: np.ndarray, b: np.ndarray, fx: _Effects) -> np.ndarray:
    """Cauchy products truncated to [-N, N] of (B, 2N+1, 2, 2) stacks.

    The inputs are read in compact form (see `_compact`).  Each entry of the
    2x2 product of two twisted coefficients has one term that can be
    nonzero, so a_m b_j is the compact a_m times the compact b_j, swapped
    when m is odd: one rounded product per entry, as the dense product has.
    Degrees of `a` accumulate in sequence from +0.0, as a batch of one does;
    degrees that vanish in every item are skipped, which is exact since
    adding a signed zero never changes the sum.  The dropped and kept tail
    masses are summed over the dense layout, zeros included, with only the
    kept degrees expanded to it.
    """
    n = b.shape[1]
    N = n // 2
    ac, bc = _compact(a, N, fx), _compact(b, N, fx)
    swapped = bc[..., ::-1]
    full = np.zeros((len(b), 2 * n - 1, 2))
    for m in np.flatnonzero(ac.any(axis=(0, 2))):
        full[:, m : m + n] += ac[:, m, None] * (swapped if (m - N) % 2 else bc)
    kept = _expand(full[:, N : N + n], -N)
    rows = 4 * N * np.arange(len(b))[:, None]
    tails = [(full[:, :N], rows + _slots(N, -2 * N)), (full[:, N + n :], rows + _slots(N, N + 1))]
    dropped = np.sqrt(sum(_dense_sq_sum(c, at, np.zeros((len(b), 4 * N))) for c, at in tails))
    fx.record(dropped, np.sqrt(_sq_sum(kept)))
    return kept


def loop_mul(a: TwistedLoop, b: TwistedLoop, tail: TailAccumulator | None = None) -> TwistedLoop:
    """Cauchy product truncated to [-N, N]; dropped tail mass is recorded."""
    _check_same_N(a, b)
    fx = _Effects(1)
    c = _mul_rows(a.c[None], b.c[None], fx)
    fx.play(0, 1, tail)
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
    (lower) or [0,N] (upper).  An item whose degree-0 coefficient is singular
    fails with SingularLoop, before any parity check, and is inverted as the
    identity.

    Works on the compact form (see `_compact`), with degrees counted along
    the half line: y_k = -y_0 (x_1 y_(k-1) + ... + x_k y_0), one step per k.
    The k products are gathered at once and summed in sequence, as the dense
    recursion sums them; y_0 = 1/x_0 entrywise is the LU inverse of a
    diagonal 2x2, and each entry of -y_0 acc is one product which the dense
    2x2 product adds to +0.0, so values and signs of zeros agree.
    """
    N = x.shape[1] // 2
    singular = ~x[:, N, (0, 1), (0, 1)].all(axis=1)  # the even degree 0 is diagonal
    if singular.any():
        for b in np.flatnonzero(singular):
            fx.fail(b, SingularLoop("degree-0 coefficient is singular"))
        x = np.where(singular[:, None, None, None], TwistedLoop.identity(N).c, x)
    half = N + (-1 if lower else 1) * np.arange(N + 1)
    xc = _compact(x, N, fx)[:, half]
    y0 = 1.0 / xc[:, 0]
    y = np.zeros((len(x), 2 * N + 2, 2))  # y_0..y_N, then the same swapped
    y[:, 0], y[:, N + 1] = y0, y0[:, ::-1]
    for k, rows in enumerate(_inv_gathers(N), start=1):
        acc = np.add.accumulate(xc[:, 1 : k + 1] * y[:, rows], axis=1)[:, -1]
        y[:, k] = -y0 * acc + 0.0
        y[:, N + 1 + k] = y[:, k, ::-1]
    out = np.zeros((len(x), 2 * N + 1, 2))
    out[:, half] = y[:, : N + 1]
    return _expand(out, -N)


def loop_inv(a: TwistedLoop) -> TwistedLoop:
    """Exact inverse of a loop supported on a half line whose degree-0
    coefficient is invertible, by the triangular recursion; a loop with
    nonzero coefficients at negative and at positive degrees raises
    ValueError."""
    lo, hi = a.support()
    if lo < 0 < hi:
        raise ValueError(f"loop is supported on [{lo}, {hi}], not on a half line")
    fx = _Effects(1)
    y = _inv_rows(a.c[None], lo < 0, fx)
    fx.play(0, 1, None)
    return TwistedLoop(a.N, y[0], enforce_parity=False)


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
