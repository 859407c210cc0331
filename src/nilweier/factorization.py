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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OutsideBigCell
from .loopalg import TailAccumulator, TwistedLoop, _inv_triangular, loop_inv, loop_mul

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


def _normalized_factor_inverse(w: TwistedLoop, sign: int) -> tuple[TwistedLoop, float]:
    """Solve for U with U_0 = id supported on sign*[0,N] such that (U*w)_k = 0
    for k in sign*[1,N].  sign=-1 gives U = M^{-1} (minus order), sign=+1
    gives U = P^{-1} (plus order).  Returns (U, conditioning)."""
    N = w.N
    if N == 0:
        return TwistedLoop.identity(0), 1.0
    ks = sign * np.arange(1, N + 1)
    ms = sign * np.arange(1, N + 1)
    diff = ks[:, None] - ms[None, :]
    blocks = np.where((np.abs(diff) <= N)[:, :, None, None], w.c[np.clip(diff + N, 0, 2 * N)], 0.0)
    # row (k, J), column (m, K): coefficient w_{k-m}[K, J]
    system = blocks.transpose(0, 3, 1, 2).reshape(2 * N, 2 * N)
    rhs = -w.c[ks + N].transpose(0, 2, 1).reshape(2 * N, 2)  # columns indexed by row I of U
    try:
        cond = float(np.linalg.cond(system))
    except np.linalg.LinAlgError:
        cond = float("inf")
    if not np.isfinite(cond) or cond > COND_FAIL:
        raise OutsideBigCell(
            f"block-Toeplitz system is singular (cond={cond:.3e})", conditioning=cond
        )
    if cond > COND_WARN:
        warnings.warn(f"factorization near big-cell boundary: cond={cond:.3e}", stacklevel=3)
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise OutsideBigCell("block-Toeplitz system is singular", conditioning=cond) from exc
    if not np.all(np.isfinite(sol)):
        raise OutsideBigCell("block-Toeplitz solve produced non-finite values", conditioning=cond)
    coeffs = np.zeros((2 * N + 1, 2, 2))
    coeffs[N] = np.eye(2)
    coeffs[ms + N] = sol.reshape(N, 2, 2).transpose(0, 2, 1)
    return TwistedLoop(N, coeffs), cond


def _project(loop: TwistedLoop, lo: int, hi: int, tol_scale: float) -> TwistedLoop:
    """Zero degrees outside [lo, hi]; the removed mass must be solve-level noise."""
    N = loop.N
    c = loop.c.copy()
    keep = np.zeros(2 * N + 1, dtype=bool)
    keep[lo + N : hi + N + 1] = True
    removed = float(np.sqrt((c[~keep] ** 2).sum()))
    if removed > _RESID_TOL * max(tol_scale, 1.0):
        raise OutsideBigCell(
            f"factorization residual {removed:.3e} exceeds tolerance; outside big cell"
        )
    c[~keep] = 0.0
    return TwistedLoop(N, c)


def birkhoff_split(
    w: TwistedLoop, order: str = "minus_star_plus", tail: TailAccumulator | None = None
) -> BirkhoffResult:
    """Split w into normalized-at-one-end factors; see module docstring.

    Raises OutsideBigCell when the coefficient system is singular; a condition
    number above 1e12 only warns so near-boundary gridpoints can be flagged
    by the caller instead of aborting a sweep.
    """
    if order == "minus_star_plus":
        u, cond = _normalized_factor_inverse(w, sign=-1)
        minus = _inv_triangular(u, lower=True)
        plus = _project(loop_mul(u, w, tail), 0, w.N, w.norm())
        return BirkhoffResult(minus=minus, plus=plus, conditioning=cond, order=order)
    if order == "plus_star_minus":
        u, cond = _normalized_factor_inverse(w, sign=+1)
        plus = _inv_triangular(u, lower=False)
        minus = _project(loop_mul(u, w, tail), -w.N, 0, w.norm())
        return BirkhoffResult(minus=minus, plus=plus, conditioning=cond, order=order)
    raise ValueError(f"unknown order {order!r}")


def iwasawa_double(
    phi_s: TwistedLoop, phi_t: TwistedLoop, tail: TailAccumulator | None = None
) -> IwasawaResult:
    """Unitary-type frame from a pair of holomorphic frames.

    (Phi_s, Phi_t) = (F, F)(V+, V-) up to a constant diagonal gauge; the
    returned frame uses the V+(0) = id normalization.
    """
    lo, hi = phi_s.support()
    s_inv = _inv_triangular(phi_s, lower=True) if hi <= 0 else loop_inv(phi_s, tail)
    w = loop_mul(s_inv, phi_t, tail)
    split = birkhoff_split(w, "plus_star_minus", tail)
    return IwasawaResult(
        frame=loop_mul(phi_s, split.plus, tail),
        vplus_inv=split.plus,
        vminus=split.minus,
        conditioning=split.conditioning,
    )
