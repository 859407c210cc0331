"""Birkhoff splitting and double-loop-group Iwasawa decomposition.

Both factorizations reduce to one dense block-Toeplitz solve of size 2N x 2N
per call.  For w in the big cell,

    minus_star_plus:  w = M * P,  M in Lambda^- with M(infinity) = id, P in Lambda^+
    plus_star_minus:  w = P * M,  P in Lambda^+ with P(0) = id,        M in Lambda^-

The solver finds the inverse of the normalized factor directly from the
linear conditions "the forbidden degrees of U*w vanish", then recovers the
factor by an exact triangular recursion.  Singularity of the system is the
numerical manifestation of leaving the big cell.

The Iwasawa decomposition of a pair (Phi_s, Phi_t) = (F, F)(V+, V-) computes
W = Phi_s^{-1} Phi_t, splits W = V+^{-1} V- with V+(0) = id (all constant
diagonal ambiguity pushed into V-), and sets F = Phi_s V+^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NilWeierError, OutsideBigCell
from .loopalg import (
    TailAccumulator,
    TwistedLoop,
    _check_same_N,
    _clean_parity,
    _Effects,
    _inv_rows,
    _inv_triangular,
    _mul_rows,
    _sq_sum,
    loop_inv,  # noqa: F401  perfbench/tracer.py binds this name
    loop_mul,  # noqa: F401  perfbench/tracer.py binds this name
)

__all__ = ["BirkhoffResult", "IwasawaResult", "birkhoff_split", "iwasawa_double"]

COND_WARN = 1e12
COND_FAIL = 1e14
_RESID_TOL = 1e-8


@dataclass(frozen=True)
class BirkhoffResult:
    minus: TwistedLoop
    plus: TwistedLoop
    conditioning: float
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
    conditioning: float

    @property
    def vplus(self) -> TwistedLoop:
        return _inv_triangular(self.vplus_inv, lower=False)


def _normalized_factor_inverses(w: np.ndarray, sign: int, fx: _Effects):
    """For each item of a (B, 2N+1, 2, 2) stack solve for U with U_0 = id
    supported on sign*[0,N] such that (U*w)_k = 0 for k in sign*[1,N].
    sign=-1 gives U = M^{-1} (minus order), sign=+1 gives U = P^{-1} (plus
    order).  Returns (U, conditioning).  The block-Toeplitz system is built,
    conditioned and solved one item at a time; an item that fails keeps
    U = id."""
    B, n = w.shape[:2]
    N = n // 2
    u = np.zeros_like(w)
    u[:, N] = np.eye(2)
    conds = np.ones(B)
    if N == 0:
        return u, conds
    ks = sign * np.arange(1, N + 1)
    ms = sign * np.arange(1, N + 1)
    diff = ks[:, None] - ms[None, :]
    inside = (np.abs(diff) <= N)[:, :, None, None]

    def fail(b, message):
        fx.fail(b, OutsideBigCell(message, conditioning=float(conds[b])))

    for b in np.flatnonzero(fx.alive):
        blocks = np.where(inside, w[b, np.clip(diff + N, 0, 2 * N)], 0.0)
        # row (k, J), column (m, K): coefficient w_{k-m}[K, J]
        system = blocks.transpose(0, 3, 1, 2).reshape(2 * N, 2 * N)
        rhs = -w[b, ks + N].transpose(0, 2, 1).reshape(2 * N, 2)  # columns indexed by row I of U
        try:
            cond = float(np.linalg.cond(system))
        except np.linalg.LinAlgError:
            cond = float("inf")
        conds[b] = cond
        if not np.isfinite(cond) or cond > COND_FAIL:
            fail(b, f"block-Toeplitz system is singular (cond={cond:.3e})")
            continue
        if cond > COND_WARN:
            fx.warn(b, f"factorization near big-cell boundary: cond={cond:.3e}")
        try:
            sol = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            fail(b, "block-Toeplitz system is singular")
            continue
        if not np.all(np.isfinite(sol)):
            fail(b, "block-Toeplitz solve produced non-finite values")
            continue
        u[b, ms + N] = sol.reshape(N, 2, 2).transpose(0, 2, 1)
    return _clean_parity(u, N, fx), conds


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
        fx.fail(b, OutsideBigCell(message))
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
    fx.play(0, None)
    return BirkhoffResult(
        minus=TwistedLoop(w.N, minus[0], enforce_parity=False),
        plus=TwistedLoop(w.N, plus[0], enforce_parity=False),
        conditioning=float(conds[0]),
        order=order,
    )


def _iwasawa_rows(phi_s: TwistedLoop, phi_t: np.ndarray, fx: _Effects):
    """Iwasawa split of (Phi_s, Phi_t[b]) for a (B, 2N+1, 2, 2) stack of
    Phi_t sharing one Phi_s in Lambda^-, which is inverted once for the whole
    stack by the triangular recursion; its positive degrees are not read.

    Returns (frame F, V+^{-1}, V-, conditioning) as stacks; an error while
    inverting Phi_s ends every item.
    """
    try:
        s_inv = _inv_triangular(phi_s, lower=True).c
    except NilWeierError as exc:
        for b in range(len(phi_t)):
            fx.fail(b, exc)
        s_inv = TwistedLoop.identity(phi_s.N).c
    w = _mul_rows(s_inv, phi_t, fx)
    vminus, vplus_inv, conds = _split_rows(w, +1, fx)
    return _mul_rows(phi_s.c, vplus_inv, fx), vplus_inv, vminus, conds


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
    frame, vplus_inv, vminus, conds = _iwasawa_rows(phi_s, phi_t.c[None], fx)
    fx.play(0, tail)
    return IwasawaResult(
        frame=TwistedLoop(phi_s.N, frame[0], enforce_parity=False),
        vplus_inv=TwistedLoop(phi_s.N, vplus_inv[0], enforce_parity=False),
        vminus=TwistedLoop(phi_s.N, vminus[0], enforce_parity=False),
        conditioning=float(conds[0]),
    )
