"""Closed-form frames and surfaces used as independent test oracles.

Everything here is computed directly from elementary formulas, never through
the factorization machinery it is used to check.
"""

import math

import numpy as np

from nilweier.errors import GaugeFailure, NilWeierError, OutsideBigCell
from nilweier.factorization import iwasawa_double
from nilweier.loopalg import SIGMA3, TwistedLoop, loop_exp, loop_mul


# -- closed-form frames (real slot, spectral variable lam = e^theta) ---------


def cylinder_frame(s, t, lam):
    w = (s / lam + t * lam) / 4.0
    return np.array([[math.cos(w), -math.sin(w)], [math.sin(w), math.cos(w)]])


def hyperbolic_frame(s, t, lam):
    w = (-s / lam + t * lam) / 4.0
    return np.array([[math.cosh(w), math.sinh(w)], [math.sinh(w), math.cosh(w)]])


def plane_frame(s, t, lam):
    return np.array([[1.0, -s / lam], [lam * t, 1.0]]) / math.sqrt(1.0 + s * t)


# -- closed-form surfaces -----------------------------------------------------


def cylinder_nil(s, t, theta=0.0):
    em, ep = math.exp(-theta), math.exp(theta)
    x1 = (s * em - t * ep) / 2.0
    x2 = math.sin((s * em + t * ep) / 2.0)
    return np.array([x1, x2, x1 * x2 / 2.0])


def cylinder_l3(s, t, theta=0.0):
    em, ep = math.exp(-theta), math.exp(theta)
    w2 = (s * em + t * ep) / 2.0
    return np.array([math.sin(w2), (s * em - t * ep) / 2.0, -math.cos(w2)])


def hyperbolic_nil(s, t, theta=0.0):
    em, ep = math.exp(-theta), math.exp(theta)
    a = (t * ep - s * em) / 2.0
    b = (s * em + t * ep) / 2.0
    x1 = -math.sinh(a)
    return np.array([x1, b, -x1 * b / 2.0])


def plane_nil(s, t, theta=0.0):
    em, ep = math.exp(-theta), math.exp(theta)
    denom = 1.0 + s * t
    return np.array([2.0 * (s * em - t * ep) / denom, 2.0 * (s * em + t * ep) / denom, 0.0])


# -- random twisted loops -----------------------------------------------------


def _random_term(rng, k, amp):
    if k % 2 == 0:
        a = rng.normal() * amp
        return np.array([[a, 0.0], [0.0, -a]])
    return np.array([[0.0, rng.normal() * amp], [rng.normal() * amp, 0.0]])


def random_twisted_algebra(rng, N, decay=0.25, scale=0.35, band=2):
    """Random twisted sl2 algebra loop with mass on degrees |k| <= band.

    Keeping the algebra band-limited makes exp tails decay factorially, like
    the frames the engine actually produces, so truncation at N is benign.
    """
    terms = {}
    for k in range(-min(band, N), min(band, N) + 1):
        terms[k] = _random_term(rng, k, scale * decay ** abs(k))
    return TwistedLoop.from_terms(N, terms)


def random_group_loop(rng, N, decay=0.25, scale=0.35, band=2):
    return loop_exp(random_twisted_algebra(rng, N, decay, scale, band))


def random_minus_star_loop(rng, N, decay=0.25, scale=0.35, band=2):
    terms = {
        k: _random_term(rng, k, scale * decay ** abs(k)) for k in range(-min(band, N), 0)
    }
    return loop_exp(TwistedLoop.from_terms(N, terms))


def random_plus_star_loop(rng, N, decay=0.25, scale=0.35, band=2):
    terms = {
        k: _random_term(rng, k, scale * decay ** abs(k)) for k in range(1, min(band, N) + 1)
    }
    return loop_exp(TwistedLoop.from_terms(N, terms))


# -- axis ODE integrated from 0 ------------------------------------------------


def shift_mul_reference(c, A, deg):
    """One (2N+1, 2, 2) loop times lam^deg A by `np.einsum`, truncated to
    [-N, N]; returns (coefficients, dropped, kept) Frobenius tail masses."""
    prod = np.einsum("kij,jl->kil", c, A)
    out = np.zeros_like(c)
    n = len(c)
    lo, hi = max(0, deg), min(n, n + deg)
    out[lo:hi] = prod[lo - deg : hi - deg]
    dropped = (prod[: lo - deg] ** 2).sum() + (prod[hi - deg :] ** 2).sum()
    return out, float(np.sqrt(dropped)), float(np.sqrt((out**2).sum()))


class FromZeroAxisFlow:
    """The axis ODE d Phi = Phi lam^deg A(x) dx, each abscissa integrated
    afresh from 0 in TwistedLoop arithmetic with one `np.einsum` per product,
    each value cached once computed:
    the algorithm the engine's chained integration must reproduce bit for bit."""

    def __init__(self, coeff_fn, deg, N, steps_per_unit, tail):
        self.coeff_fn, self.deg, self.N = coeff_fn, deg, N
        self.spu = float(steps_per_unit)
        self.tail = tail
        self.cache = {0.0: TwistedLoop.identity(N)}

    def _shift(self, phi, A, tail):
        out, dropped, kept = shift_mul_reference(phi.c, A, self.deg)
        tail.record(dropped, kept)
        return TwistedLoop(self.N, out, enforce_parity=False)

    def at(self, x, tail=None):
        x = float(x)
        if x in self.cache:
            return self.cache[x]
        tail = self.tail if tail is None else tail
        n = max(1, int(math.ceil(abs(x) * self.spu - 1e-12)))
        h = x / n
        phi = TwistedLoop.identity(self.N)
        pos = 0.0
        for k in range(n):
            a0 = self.coeff_fn(pos)
            am = self.coeff_fn(pos + h / 2.0)
            a1 = self.coeff_fn(pos + h)
            k1 = self._shift(phi, a0, tail)
            k2 = self._shift(phi + (h / 2.0) * k1, am, tail)
            k3 = self._shift(phi + (h / 2.0) * k2, am, tail)
            k4 = self._shift(phi + h * k3, a1, tail)
            phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            pos = (k + 1) * h
        self.cache[x] = phi
        return phi


def solve_axes_from_zero(potential, s_grid, t_grid, steps_per_cell, trunc_n, tail):
    """[((s, t), Phi)] over the axis nodes in grid order, s axis first, each
    integrated from 0 into `tail`.  The list ends at the first node that
    raises, with the error in place of Phi."""
    spu = steps_per_cell / min(np.diff(s_grid).min(), np.diff(t_grid).min())
    out = []
    for axis, (coeff_fn, deg, grid) in enumerate(
        ((potential.xi_s, -1, s_grid), (potential.xi_t, +1, t_grid))
    ):
        flow = FromZeroAxisFlow(coeff_fn, deg, trunc_n, spu, tail)
        for x in grid:
            point = (float(x), 0.0) if axis == 0 else (0.0, float(x))
            try:
                out.append((point, flow.at(x)))
            except NilWeierError as exc:
                return out + [(point, exc)]
    return out


# -- one gridpoint's frame, point by point ---------------------------------------


def frame_point_reference(phi_s, phi_t, f_val, g_val, initial, tail, gridpoint):
    """One point's frame the scalar way: `iwasawa_double`, then the diagonal
    gauge and the initial-frame product in TwistedLoop arithmetic, each
    performing its effects into `tail` as it goes.  Returns (frame, h,
    gauge_log, conditioning); a hole's error names the gridpoint."""
    try:
        res = iwasawa_double(phi_s, phi_t, tail)
    except OutsideBigCell as exc:
        exc.gridpoint = gridpoint
        raise
    d22 = float(res.vminus.c[phi_s.N, 1, 1])
    fg = f_val * g_val
    if fg <= 0.0 or d22 <= 1e-13:
        message = f"angle function not positive (f*g={fg:.3e}, d22={d22:.3e})"
        raise GaugeFailure(message, gridpoint=gridpoint)
    d = (f_val / (g_val * d22 * d22)) ** 0.25
    frame = res.frame.scale_columns(d)
    if initial is not None:
        frame = loop_mul(initial, frame, tail)
    return frame, math.sqrt(fg) * d22, math.log(d), res.conditioning


def grid_loop(fg, i, j):
    """The sweep's frame at gridpoint (i, j) as a TwistedLoop; None at a hole."""
    if fg.holes[i, j]:
        return None
    return TwistedLoop(fg.trunc_n, fg.frames[i, j], enforce_parity=False)


# -- Sym formulas at one point -------------------------------------------------


def sym_point_reference(frame, theta):
    """(nil, l3, normal) at one frame and angle the scalar way: each of
    M, (lam d)M and (lam d)^2 M by one `np.tensordot` over the degrees, then
    2-D 2x2 products: the form whose bits `_sym_rows` must reproduce."""
    lam = math.exp(theta)
    ks = np.arange(-frame.N, frame.N + 1, dtype=float)
    M = np.tensordot(lam**ks, frame.c, axes=1)
    M1 = np.tensordot((ks**1) * lam**ks, frame.c, axes=1)
    M2 = np.tensordot((ks**2) * lam**ks, frame.c, axes=1)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    Minv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
    D = M1 @ Minv
    E = M2 @ Minv
    C = M @ SIGMA3 @ Minv
    G = -D - 0.5 * C
    A = -(E - D @ D) - 0.5 * (D @ C - C @ D)
    l3 = np.array([-(G[0, 1] + G[1, 0]), G[1, 0] - G[0, 1], 2.0 * G[0, 0]])
    nil = np.array([G[1, 0] - G[0, 1], -(G[0, 1] + G[1, 0]), -A[0, 0]])
    normal = np.array([-(C[0, 1] + C[1, 0]) / 2.0, (C[1, 0] - C[0, 1]) / 2.0, C[0, 0]])
    return nil, l3, normal


# -- brute force convolution ---------------------------------------------------


def convolve_dense(a: TwistedLoop, b: TwistedLoop):
    """Direct double-sum Cauchy product on the extended degree range."""
    N = a.N
    out = np.zeros((4 * N + 1, 2, 2))
    for ka in range(-N, N + 1):
        for kb in range(-N, N + 1):
            out[ka + kb + 2 * N] += a.coeff(ka) @ b.coeff(kb)
    return out


def frame_error_mod_gauge(loop, exact_fn, s, t, thetas):
    """Entrywise distance to a closed-form frame modulo diag(d, 1/d) gauge.

    The gauge is fitted once at the first theta from the largest diagonal
    entry and must then work for every theta (it is lam-independent).
    """
    lam0 = math.exp(thetas[0])
    M = loop.eval(lam0)
    E = exact_fn(s, t, lam0)
    if abs(M[0, 0]) >= abs(M[1, 1]):
        d = E[0, 0] / M[0, 0]
    else:
        d = M[1, 1] / E[1, 1]
    err = 0.0
    for theta in thetas:
        lam = math.exp(theta)
        g = loop.eval(lam).copy()
        g[:, 0] *= d
        g[:, 1] /= d
        err = max(err, float(np.abs(g - exact_fn(s, t, lam)).max()))
    return err


def nil_translate_to(reference, value):
    """Constant left translation c with c * value = reference."""
    from nilweier.geometry import nil_inv, nil_mul

    return nil_mul(reference, nil_inv(value))
