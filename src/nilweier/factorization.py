"""Birkhoff splitting and double-loop-group Iwasawa decomposition.

Both factorizations reduce to one dense block-Toeplitz solve of size 2N x 2N
per call.  For w in the big cell,

    minus_star_plus:  w = M * P,  M in Lambda^- with M(infinity) = id, P in Lambda^+
    plus_star_minus:  w = P * M,  P in Lambda^+ with P(0) = id,        M in Lambda^-

The solver finds the inverse of the normalized factor directly from the
linear conditions "the forbidden degrees of U*w vanish", then recovers the
factor by an exact triangular recursion; a singular system means leaving the
big cell.  A stack's systems (in the sweep, a batch of whole grid rows) are
built by one gather and solved as one stacked np.linalg.solve, per chunk of
items whose systems fit _BATCH_BYTES.  The twisting parity makes each
2N x 2N system block diagonal in two N x N blocks, so its condition number
comes from the singular values of the two blocks; the full SVD
(np.linalg.cond) runs only where that value may exceed COND_WARN, so every
near-boundary warning, failure and printed value is the full SVD's.

The Iwasawa decomposition of a pair (Phi_s, Phi_t) = (F, F)(V+, V-) computes
W = Phi_s^{-1} Phi_t, splits W = V+^{-1} V- with V+(0) = id (all constant
diagonal ambiguity pushed into V-), and sets F = Phi_s V+^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideBigCell
from .loopalg import (
    TailAccumulator,
    TwistedLoop,
    _check_same_N,
    _Effects,
    _inv_rows,
    _mask,
    _mul_rows,
    _sq_sum,
    loop_inv,
    loop_mul,  # noqa: F401  perfbench/tracer.py binds this name
)

__all__ = ["BirkhoffResult", "IwasawaResult", "birkhoff_split", "iwasawa_double"]

COND_WARN = 1e12
COND_FAIL = 1e14
# Budget for a split's float64 work arrays, read at call time: the sweep takes
# whole grid rows while their loop stacks fit it (pipeline._split_points), and
# `_normalized_factor_inverses` conditions and solves their (2N, 2N) systems in
# chunks that fit it.  A split costs numpy calls per batch or chunk, not per item.
_BATCH_BYTES = 640 * 1024
_RESID_TOL = 1e-8
# `_cond_slack`'s constant.  The largest |1/h - 1/c| / (n*eps) measured is
# 1.06, over the 16,605 splits (n = 32 to 96, cond up to 2.8e15) that
# `generate` and `verify` make for the five builtins and the three benchmark
# workloads at seeds 0 and 7, at one BLAS thread and at the default.
_COND_K = 4.0


@dataclass(frozen=True)
class BirkhoffResult:
    minus: TwistedLoop
    plus: TwistedLoop
    conditioning: float  # half-block value, or np.linalg.cond's above the cutoff
    order: str

    def factors(self) -> tuple[TwistedLoop, TwistedLoop]:
        """Factors in multiplication order (left, right)."""
        if self.order == "minus_star_plus":
            return self.minus, self.plus
        return self.plus, self.minus


@dataclass(frozen=True)
class IwasawaResult:
    """F = Phi_s V+^{-1}; the pair (F, F) is the unitary-type frame.

    Only V+^{-1} is needed to build F, so V+ itself is inverted on request.
    """

    frame: TwistedLoop
    vplus_inv: TwistedLoop
    vminus: TwistedLoop
    conditioning: float  # as BirkhoffResult's

    @property
    def vplus(self) -> TwistedLoop:
        return loop_inv(self.vplus_inv)


def _systems(w: np.ndarray, sign: int):
    """The block-Toeplitz systems of a (B, 2N+1, 2, 2) stack, one gather:
    row (k, J), column (m, K) holds w_{k-m}[K, J] for k, m in sign*[1, N],
    and the right-hand side's column I holds -w_k[I, J] (row I of U)."""
    N = w.shape[1] // 2
    ks = sign * np.arange(1, N + 1)
    lags = ks[:, None] - ks[None, :] + N  # |k - m| <= N - 1, so every lag is a stored degree
    J = np.arange(2 * N) % 2
    systems = w[:, np.repeat(np.repeat(lags, 2, axis=0), 2, axis=1), J[None, :], J[:, None]]
    rhs = -w[:, np.repeat(ks + N, 2)[:, None], np.arange(2)[None, :], J[:, None]]
    return systems, rhs


def _cond(system: np.ndarray) -> float:
    """np.linalg.cond of one system; inf where its SVD fails (a NaN entry)."""
    try:
        return float(np.linalg.cond(system))
    except np.linalg.LinAlgError:
        return float("inf")


def _full_conds(w: np.ndarray, sign: int) -> np.ndarray:
    """np.linalg.cond of the system of each item of a (B, 2N+1, 2, 2) stack."""
    return np.array([_cond(system) for system in _systems(w, sign)[0]])


def _half_conds(w: np.ndarray, sign: int) -> np.ndarray:
    """Condition numbers of the systems of a (B, 2N+1, 2, 2) stack from their
    two parity blocks.  w_d is diagonal for even d and off-diagonal for odd d,
    so w_{k-m}[K, J] vanishes unless k + J = m + K (mod 2): each system is
    block diagonal in the N rows and N columns of either parity, and its
    singular values are those of the two N x N blocks together.  NaN where an
    item has an entry off that parity, where a block's SVD fails, and where
    both its extreme singular values are 0."""
    N = w.shape[1] // 2
    ks = sign * np.arange(1, N + 1)
    lags = ks[:, None] - ks[None, :] + N
    sv = []
    for parity in (0, 1):
        J = (ks + parity) % 2  # the one J (and K) of each k in this block
        block = w[:, lags, J[None, :], J[:, None]]
        try:
            sv.append(np.linalg.svd(block, compute_uv=False))
        except np.linalg.LinAlgError:  # one NaN item fails the whole stack
            sv.append(np.stack([_svd_or_nan(item) for item in block]))
        del block
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.maximum(sv[0][:, 0], sv[1][:, 0]) / np.minimum(sv[0][:, -1], sv[1][:, -1])
    conds[w[:, _mask(N)].any(axis=1)] = np.nan
    return conds


def _svd_or_nan(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(matrix, compute_uv=False)
    except np.linalg.LinAlgError:
        return np.full(len(matrix), np.nan)


def _cond_slack(n: int) -> float:
    """Bound on |1/h - 1/c| between the half-block value h and
    np.linalg.cond's c of one n x n system: both SVDs find the smallest
    singular value to within about n*eps*sigma_max (the largest to within
    eps relative), so the reciprocals, sigma_min/sigma_max, differ by at most
    _COND_K*n*eps.  Equivalently |h - c| <= _COND_K*n*eps*h*c."""
    return _COND_K * n * np.finfo(float).eps


def _conditioning(w: np.ndarray, sign: int) -> np.ndarray:
    """Each item's half-block condition number, or np.linalg.cond's where
    that may exceed COND_WARN: where the half value is non-finite or above
    1/(1/COND_WARN + slack).  Every COND_WARN and COND_FAIL decision and
    every printed value is then the full SVD's; the rule reads the item
    alone, so a batch of one has the same values."""
    conds = _half_conds(w, sign)
    n = w.shape[1] - 1  # the systems' size 2N
    cutoff = 1.0 / (1.0 / COND_WARN + _cond_slack(n))
    exact = ~(conds <= cutoff)
    conds[exact] = _full_conds(w[exact], sign)
    return conds


def _near_max(conds: np.ndarray, n: int) -> np.ndarray:
    """Mask of the items whose np.linalg.cond may be the largest, given each
    item's conditioning (half-block or full) of an n x n system: those with
    1/c <= 1/max(conds) + 2*slack.  NaN items (holes) are not."""
    return 1.0 / conds <= 1.0 / np.max(conds, where=~np.isnan(conds), initial=1.0) + 2.0 * _cond_slack(n)


def _solve(systems: np.ndarray, rhs: np.ndarray):
    """One stacked solve; where a singular item fails the stack, one solve
    per item.  Returns (solutions, singular mask)."""
    singular = np.zeros(len(systems), dtype=bool)
    try:
        return np.linalg.solve(systems, rhs), singular
    except np.linalg.LinAlgError:
        sol = np.zeros_like(rhs)
        for b in range(len(systems)):
            try:
                sol[b] = np.linalg.solve(systems[b], rhs[b])
            except np.linalg.LinAlgError:
                singular[b] = True
        return sol, singular


def _chunks(items: np.ndarray, n: int) -> list:
    """`items` in runs whose (n, n) float64 systems fit _BATCH_BYTES, each of
    at least one item."""
    size = max(1, _BATCH_BYTES // (n * n * 8))
    return [items[lo : lo + size] for lo in range(0, len(items), size)]


def _normalized_factor_inverses(w: np.ndarray, sign: int, fx: _Effects):
    """For each item of a (B, 2N+1, 2, 2) stack solve for U with U_0 = id
    supported on sign*[0,N] such that (U*w)_k = 0 for k in sign*[1,N].
    sign=-1 gives U = M^{-1} (minus order), sign=+1 gives U = P^{-1} (plus
    order).  Returns (U, conditioning), see `_conditioning`; U is as solved,
    and the kernels that read it check its parity.  In one pass per chunk of
    live items whose systems fit _BATCH_BYTES, the chunk is conditioned and
    screened at COND_FAIL, and the rest solved as one stack; an item's values
    and effects are its own, so no chunking moves a bit.  An item that fails
    keeps U = id."""
    B, n = w.shape[:2]
    N = n // 2
    conds = np.ones(B)
    u = np.zeros_like(w)
    u[:, N] = np.eye(2)
    if N == 0:
        return u, conds
    ks = sign * np.arange(1, N + 1)
    for chunk in _chunks(np.flatnonzero(fx.alive), 2 * N):
        stack = w[chunk]
        conds[chunk] = _conditioning(stack, sign)
        fatal = ~(conds[chunk] <= COND_FAIL)  # NaN and inf too
        solvable = chunk[~fatal]
        for b in solvable[conds[solvable] > COND_WARN].tolist():  # before any failure of its item
            fx.warn(b, f"factorization near big-cell boundary: cond={conds[b]:.3e}")
        # a chunk that screens out no item is solved without a second copy
        sol, singular = _solve(*_systems(stack[~fatal] if fatal.any() else stack, sign))
        bad = singular | ~np.isfinite(sol).all(axis=(1, 2))
        u[solvable[~bad, None], ks + N] = sol[~bad].reshape(-1, N, 2, 2).transpose(0, 1, 3, 2)
        # each item fails at most once, in its own slot, so the order across items is free
        for items, message in (
            (chunk[fatal], "block-Toeplitz system is singular (cond={:.3e})"),
            (solvable[singular], "block-Toeplitz system is singular"),
            (solvable[bad & ~singular], "block-Toeplitz solve produced non-finite values"),
        ):
            for b in items.tolist():
                fx.fail(b, OutsideBigCell(message.format(conds[b]), conditioning=float(conds[b])))
    return u, conds


def _split_rows(w: np.ndarray, sign: int, fx: _Effects):
    """Birkhoff split of each item of a (B, 2N+1, 2, 2) stack: sign=-1 is
    minus_star_plus, sign=+1 plus_star_minus.  Returns (minus, plus,
    conditioning); the product factor U*w keeps only its own half line, and
    the mass it drops there must be solve-level noise."""
    N = w.shape[1] // 2
    u, conds = _normalized_factor_inverses(w, sign, fx)
    normalized = _inv_rows(u, sign < 0, fx)
    other = _mul_rows(u, w, fx)
    degrees = np.arange(-N, N + 1)
    outside = degrees < 0 if sign < 0 else degrees > 0
    removed = np.sqrt(_sq_sum(other[:, outside]))
    tol = _RESID_TOL * np.maximum(np.sqrt(_sq_sum(w)), 1.0)
    for b in np.flatnonzero(fx.alive & (removed > tol)):
        message = f"factorization residual {removed[b]:.3e} exceeds tolerance; outside big cell"
        fx.fail(b, OutsideBigCell(message, conditioning=float(conds[b])))
    other[:, outside] = 0.0
    return (normalized, other, conds) if sign < 0 else (other, normalized, conds)


_SIGNS = {"minus_star_plus": -1, "plus_star_minus": +1}


def birkhoff_split(w: TwistedLoop, order: str = "minus_star_plus") -> BirkhoffResult:
    """Split w into normalized-at-one-end factors; see module docstring.

    Raises OutsideBigCell when the coefficient system is singular; a condition
    number above 1e12 only warns so near-boundary gridpoints can be flagged
    by the caller instead of aborting a sweep.
    """
    if order not in _SIGNS:
        raise ValueError(f"unknown order {order!r}")
    fx = _Effects(1)
    minus, plus, conds = _split_rows(w.c[None], _SIGNS[order], fx)
    fx.play(0, 1, None)
    return BirkhoffResult(
        minus=TwistedLoop(w.N, minus[0], enforce_parity=False),
        plus=TwistedLoop(w.N, plus[0], enforce_parity=False),
        conditioning=float(conds[0]),
        order=order,
    )


def _loops(phi_s: np.ndarray, index: np.ndarray, phi_t: np.ndarray, fx: _Effects) -> np.ndarray:
    """The loops W = Phi_s[index[b]]^{-1} Phi_t[b] that the Iwasawa split
    splits, for B Phi_t (a stack or a sequence) and a (P, 2N+1, 2, 2) stack
    of distinct Phi_s in Lambda^- (a sweep batch has one per grid row), which
    are inverted once as one stack by the triangular recursion; their positive
    degrees are not read.  An error while inverting a Phi_s ends every item
    that shares it."""
    inverted = _Effects(len(phi_s))
    s_inv = _inv_rows(phi_s, True, inverted)
    fx.fail_as(inverted, index)
    return _mul_rows(s_inv[index], np.asarray(phi_t), fx)


def _iwasawa_rows(phi_s: np.ndarray, index: np.ndarray, phi_t: np.ndarray, fx: _Effects):
    """Iwasawa split of the `_loops` W = Phi_s^{-1} Phi_t, which is not kept
    past it.  Returns (frame F, V+^{-1}, V-, conditioning) as stacks."""
    vminus, vplus_inv, conds = _split_rows(_loops(phi_s, index, phi_t, fx), +1, fx)
    return _mul_rows(phi_s[index], vplus_inv, fx), vplus_inv, vminus, conds


def iwasawa_double(
    phi_s: TwistedLoop, phi_t: TwistedLoop, tail: TailAccumulator | None = None
) -> IwasawaResult:
    """Unitary-type frame from a pair of holomorphic frames.

    (Phi_s, Phi_t) = (F, F)(V+, V-) up to a constant diagonal gauge; the
    returned frame uses the V+(0) = id normalization.  Phi_s must lie in
    Lambda^-: a nonzero positive-degree coefficient raises ValueError.
    """
    _check_same_N(phi_s, phi_t)
    if phi_s.c[phi_s.N + 1 :].any():
        raise ValueError("Phi_s has nonzero positive-degree coefficients; it must lie in Lambda^-")
    fx = _Effects(1)
    frame, vplus_inv, vminus, conds = _iwasawa_rows(
        phi_s.c[None], np.zeros(1, int), phi_t.c[None], fx
    )
    fx.play(0, 1, tail)
    return IwasawaResult(
        frame=TwistedLoop(phi_s.N, frame[0], enforce_parity=False),
        vplus_inv=TwistedLoop(phi_s.N, vplus_inv[0], enforce_parity=False),
        vminus=TwistedLoop(phi_s.N, vminus[0], enforce_parity=False),
        conditioning=float(conds[0]),
    )
