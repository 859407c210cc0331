"""Closed-form frames and surfaces used as independent test oracles.

Everything here is computed directly from elementary formulas, never through
the factorization machinery it is used to check.
"""

import math

import numpy as np

from nilweier.errors import GaugeFailure, NilWeierError, OutsideBigCell, TruncationOverflow
from nilweier.expressions import FUNCTIONS, _Call, _Neg, _Num, _Var
from nilweier.factorization import birkhoff_split, iwasawa_double
from nilweier.loopalg import SIGMA3, TailAccumulator, TwistedLoop, loop_exp, loop_inv, loop_mul


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


# -- one block-Toeplitz system, entry by entry -----------------------------------


def block_toeplitz_reference(w, sign):
    """The system and right-hand side that give U = M^{-1} (sign = -1) or
    U = P^{-1} (sign = +1) of one (2N+1, 2, 2) loop: row (k, J), column (m, K)
    holds w_{k-m}[K, J] and the right-hand side's column I holds -w_k[I, J],
    for k, m in sign*[1, N]."""
    N = len(w) // 2
    ks = [sign * k for k in range(1, N + 1)]
    system = np.zeros((2 * N, 2 * N))
    rhs = np.zeros((2 * N, 2))
    for i, k in enumerate(ks):
        for J in range(2):
            for j, m in enumerate(ks):
                for K in range(2):
                    system[2 * i + J, 2 * j + K] = w[N + k - m][K, J]
            for I in range(2):
                rhs[2 * i + J, I] = -w[N + k][I, J]
    return system, rhs


def full_cond(system):
    """np.linalg.cond, inf where its SVD fails."""
    try:
        return float(np.linalg.cond(system))
    except np.linalg.LinAlgError:
        return math.inf


def normalized_factor_inverse_reference(w, sign):
    """U of one loop the point-by-point way: np.linalg.cond of the system,
    then one np.linalg.solve, off-parity entries zeroed.  Returns (U, cond),
    U = id where the system's cond is non-finite or above COND_FAIL."""
    from nilweier.factorization import COND_FAIL
    from nilweier.loopalg import _mask

    N = len(w) // 2
    system, rhs = block_toeplitz_reference(w, sign)
    cond = full_cond(system)
    u = np.zeros_like(w)
    u[N] = np.eye(2)
    if math.isfinite(cond) and cond <= COND_FAIL:
        ks = sign * np.arange(1, N + 1)
        u[ks + N] = np.linalg.solve(system, rhs).reshape(N, 2, 2).transpose(0, 2, 1)
    u[_mask(N)] = 0.0
    return u, cond


# -- expression tree walked node by node -----------------------------------------


def expression_reference(node, x):
    """An expression AST's value at x by a recursive walk, children left to
    right, in Python float arithmetic and `math` calls: the scalar algorithm
    that `Expression`'s compiled evaluators must reproduce bit for bit."""
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return x
    if isinstance(node, _Neg):
        return -expression_reference(node.arg, x)
    if isinstance(node, _Call):
        return FUNCTIONS[node.func](expression_reference(node.arg, x))
    a, b = expression_reference(node.left, x), expression_reference(node.right, x)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return math.pow(a, b)


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


def record_reference(tail, dropped, kept):
    """Add one (dropped, kept) pair to `tail` the scalar way, by the account's
    rule: it fails once its relative mass exceeds the bound or a mass is NaN.
    `TailAccumulator.record` is the replay of one pair, so the engine's
    replays are compared against this loop body, not against themselves."""
    tail.dropped += dropped
    tail.kept += kept
    if not tail.relative() <= tail.bound:
        raise tail._overflow()


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
        record_reference(tail, dropped, kept)
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


def replay_against_record_loop(start, masses, bound):
    """Replay (M, 2) masses into an account at `start` and record them one
    at a time into another; assert both leave the same masses (as float.hex)
    and the same error, and that the replay's error is at the loop's first
    overflow.  Returns the index of that overflow, or None."""
    loop, rows = TailAccumulator(bound), TailAccumulator(bound)
    loop.dropped, loop.kept = rows.dropped, rows.kept = start
    first = error = None
    for i, (dropped, kept) in enumerate(masses.tolist()):
        try:
            record_reference(loop, dropped, kept)
        except TruncationOverflow as exc:
            first, error = i, str(exc)
            break
    try:
        rows.replay(masses)
    except TruncationOverflow as exc:
        assert str(exc) == error
    else:
        assert error is None
    assert (float.hex(rows.dropped), float.hex(rows.kept)) == (
        float.hex(loop.dropped),
        float.hex(loop.kept),
    )
    if first is not None:  # no earlier prefix crosses the bound
        before = TailAccumulator(bound)
        before.dropped, before.kept = start
        before.replay(masses[:first])
    return first


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


def safe_candidates_reference(holes, s_grid, t_grid):
    """The interior gridpoints whose 5x5 neighbourhood holds no hole, by a
    double loop over the rows i and the columns j, one slice test each."""
    ns, nt = holes.shape
    candidates = []
    for i in range(2, ns - 2):
        for j in range(2, nt - 2):
            if holes[i - 2 : i + 3, j - 2 : j + 3].any():
                continue
            candidates.append((float(s_grid[i]), float(t_grid[j])))
    return candidates


# -- normalized potential extraction, point by point ----------------------------


def _log_derivative_reference(factor_fn, x):
    """A(x)^{-1} A'(x) by a 4th-order central stencil of step 1e-2 on the
    factor loops, in TwistedLoop arithmetic."""
    delta = 1e-2
    mm, m, p, pp, base = map(factor_fn, [x - 2 * delta, x - delta, x + delta, x + 2 * delta, x])
    deriv = (1.0 / (12.0 * delta)) * (mm + (-8.0) * m + 8.0 * p + (-1.0) * pp)
    return loop_mul(loop_inv(base), deriv)


def extraction_reference(pipeline, axis_values):
    """(f, Q, g, R) along `axis_values` the scalar way: the stencil's frames
    as one `frames_at` batch, then per abscissa five `birkhoff_split` calls
    along s and the log derivative by `loop_inv` and `loop_mul`, then the same
    along t, each performing its effects as it goes.  The algorithm whose
    values, effects and first error `extract_normalized_potential` must
    reproduce."""
    delta = 1e-2
    xs = [float(x) for x in axis_values]
    stencils = [[x - 2 * delta, x - delta, x + delta, x + 2 * delta, x] for x in xs]
    pipeline.frames_at(
        [point for ys in stencils for point in [(y, 0.0) for y in ys] + [(0.0, y) for y in ys]]
    )

    def minus_factor(s):
        return birkhoff_split(pipeline.frame_at(s, 0.0), "minus_star_plus").minus

    def plus_factor(t):
        return birkhoff_split(pipeline.frame_at(0.0, t), "plus_star_minus").plus

    rows = []
    for x in xs:
        xi_s = _log_derivative_reference(minus_factor, x).coeff(-1)
        xi_t = _log_derivative_reference(plus_factor, x).coeff(+1)
        f, g = -4.0 * xi_s[0, 1], 4.0 * xi_t[1, 0]
        rows.append((f, xi_s[1, 0] * f, g, -xi_t[0, 1] * g))
    return tuple(np.array(rows).reshape(-1, 4).T)


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


# -- finite-difference residuals point by point ----------------------------------
#
# The scalar bodies the array forms in `nilweier.geometry` replaced: each
# calls its field once per stencil point, in stencil order, and computes one
# point at a time.  Their results are the bits the array forms must keep.


def _translate_scalar(x, v):
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    return np.array([v[0], v[1], v[2] + 0.5 * (x[1] * v[0] - x[0] * v[1])])


def _sym_bracket_scalar(X, Y):
    return np.array([-(X[1] * Y[2] + X[2] * Y[1]), -(X[0] * Y[2] + X[2] * Y[0]), 0.0 * X[0]])


def _lie_bracket_scalar(X, Y):
    return np.array([0.0 * X[0], 0.0 * X[0], X[0] * Y[1] - X[1] * Y[0]])


def xy_tangents_reference(surface_fn, s, t, step, space):
    from nilweier.geometry import L3_METRIC_SIGNS, NIL_METRIC_SIGNS, _xy_points

    values = [np.asarray(surface_fn(a, b)) for a, b in _xy_points(s, t, step, space)]
    f_x = (values[0] - values[1]) / (2.0 * step)
    f_y = (values[2] - values[3]) / (2.0 * step)
    if space == "nil":
        f_x = _translate_scalar(values[4], f_x)
        f_y = _translate_scalar(values[4], f_y)
        return f_x, f_y, NIL_METRIC_SIGNS
    return f_x, f_y, L3_METRIC_SIGNS


def first_fundamental_form_reference(surface_fn, points, step=1e-3, space="nil"):
    from nilweier.geometry import FundamentalFormResult

    Es, Gs, Fs = [], [], []
    for s, t in points:
        f_x, f_y, signs = xy_tangents_reference(surface_fn, float(s), float(t), step, space)
        Es.append(float((signs * f_x * f_x).sum()))
        Gs.append(float((signs * f_y * f_y).sum()))
        Fs.append(float((signs * f_x * f_y).sum()))
    Es, Gs, Fs = np.array(Es), np.array(Gs), np.array(Fs)
    residual = float(max(np.abs(Es + Gs).max(), np.abs(Fs).max()))
    return FundamentalFormResult(E=Es, G=Gs, F=Fs, conformal_factor=Es, residual=residual)


def _minimality_at(surface_fn, s, t, step):
    from nilweier.geometry import _cross

    def translated_null_derivs(a, b):
        base, sp, sm, tp, tm = (np.asarray(surface_fn(*p)) for p in _cross(a, b, step))
        ds = (sp - sm) / (2 * step)
        dt = (tp - tm) / (2 * step)
        return _translate_scalar(base, ds), _translate_scalar(base, dt)

    (P0, Q0), (Psp, Qsp), (Psm, Qsm), (Ptp, Qtp), (Ptm, Qtm) = (
        translated_null_derivs(a, b) for a, b in _cross(s, t, step)
    )
    dP_dt = (Ptp - Ptm) / (2 * step)
    dQ_ds = (Qsp - Qsm) / (2 * step)
    r_mc_p = dP_dt - dQ_ds + _lie_bracket_scalar(Q0, P0)
    r_mc_q = dQ_ds - dP_dt + _lie_bracket_scalar(P0, Q0)
    r_min_p = dP_dt + dQ_ds + _sym_bracket_scalar(P0, Q0)
    r_min_q = dQ_ds + dP_dt + _sym_bracket_scalar(Q0, P0)
    mc = max(np.abs(r_mc_p).max(), np.abs(r_mc_q).max())
    mini = max(np.abs(r_min_p).max(), np.abs(r_min_q).max())
    return mc, mini


def minimality_residual_reference(surface_fn, points, step=1e-3):
    from nilweier.geometry import MinimalityResult

    mc1 = mini1 = mc2 = mini2 = 0.0
    for s, t in points:
        a, b = _minimality_at(surface_fn, float(s), float(t), step)
        mc1, mini1 = max(mc1, a), max(mini1, b)
        a2, b2 = _minimality_at(surface_fn, float(s), float(t), 2.0 * step)
        mc2, mini2 = max(mc2, a2), max(mini2, b2)
    residual = max(mc1, mini1)
    noise_floor = abs(max(mc2, mini2) - residual) / 3.0 + 1e-13 / step**2 * 1e-3
    return MinimalityResult(
        maurer_cartan=mc1, minimality=mini1, residual=residual, noise_floor=noise_floor
    )


def mean_curvature_L3_reference(surface_fn, points, step=1e-3, normal_fn=None):
    from nilweier.geometry import L3_METRIC_SIGNS

    if normal_fn is None:

        def normal_fn(s, t):
            f_x, f_y, _ = xy_tangents_reference(surface_fn, s, t, step, "l3")
            v = L3_METRIC_SIGNS * np.cross(f_x, f_y)
            n = v / math.sqrt(float((L3_METRIC_SIGNS * v * v).sum()))
            return -n if n[2] < 0 else n

    out = []
    for s, t in points:
        s, t = float(s), float(t)
        f_x, f_y, signs = xy_tangents_reference(surface_fn, s, t, step, "l3")
        n_x, n_y, _ = xy_tangents_reference(normal_fn, s, t, step, "l3")
        E = float((signs * f_x * f_x).sum())
        F = float((signs * f_x * f_y).sum())
        G = float((signs * f_y * f_y).sum())
        II_xx = -float((signs * f_x * n_x).sum())
        II_yy = -float((signs * f_y * n_y).sum())
        II_xy = -0.5 * float((signs * (f_x * n_y + f_y * n_x)).sum())
        I_mat = np.array([[E, F], [F, G]])
        II_mat = np.array([[II_xx, II_xy], [II_xy, II_yy]])
        out.append(0.5 * float(np.trace(II_mat @ np.linalg.inv(I_mat))))
    return np.array(out)


def _null(z):
    return np.array([z.p, z.q])


def resolves_dirac_potential_reference(c1, c2):
    """The scalar test: both null components of psi1 exceed 1e-2 of the spinor scale."""
    eu = 2.0 * (c2.p * c2.q + c1.p * c1.q)
    n1 = _null(c1)
    return min(abs(n1[0]), abs(n1[1])) > 1e-2 * math.sqrt(max(abs(eu), 1e-12))


def spinors_and_dirac_reference(spinor_fn, h_fn, points, step=1e-3):
    from nilweier.geometry import SpinorField, _axis_richardson, _cross, _d1

    def nulls(point):
        c1, c2 = spinor_fn(*point)
        return np.concatenate((_null(c1), _null(c2)))

    h_out, eu_out = [], []
    worst_dirac = worst_hgap = worst_repot = 0.0
    for s, t in points:
        s, t = float(s), float(t)
        base, sp, sm, tp, tm = _cross(s, t, step)
        c1, c2 = spinor_fn(*base)
        h = float(h_fn(*base))
        d_s = (nulls(sp) - nulls(sm)) / (2.0 * step)
        d_t = (nulls(tp) - nulls(tm)) / (2.0 * step)
        d1_s, d2_s = d_s[:2], d_s[2:]
        d1_t, d2_t = d_t[:2], d_t[2:]
        n1, n2 = _null(c1), _null(c2)
        r1 = np.array([d2_s[0] + 0.25 * h * n1[0], d2_t[1] - 0.25 * h * n1[1]])
        r2 = np.array([-d1_t[0] + 0.25 * h * n2[0], -d1_s[1] - 0.25 * h * n2[1]])
        worst_dirac = max(worst_dirac, float(np.abs(r1).max()), float(np.abs(r2).max()))
        h_spinor = 2.0 * (n2[0] * n2[1] - n1[0] * n1[1])
        worst_hgap = max(worst_hgap, abs(h_spinor - h))
        if resolves_dirac_potential_reference(c1, c2):
            rich = max(step, 2e-2)
            values = [nulls(p) for p in _axis_richardson(s, t, rich)]
            dp = float(_d1([v[2] for v in values[:6]], rich))
            dq = float(_d1([v[3] for v in values[6:]], rich))
            worst_repot = max(worst_repot, abs((-dp / n1[0] + -dq / n1[1]) / 2.0))
        h_out.append(h)
        eu_out.append(2.0 * (c2.p * c2.q + c1.p * c1.q))
    return SpinorField(
        h=np.array(h_out),
        eu=np.array(eu_out),
        dirac=worst_dirac,
        h_gap=worst_hgap,
        dirac_potential_re=worst_repot,
    )


def _hopf_B_at(spinor_fn, s, t, step):
    from nilweier.geometry import _cross

    def fields(point):
        a, b = spinor_fn(*point)
        return _null(a), _null(b.conj())

    (n1, n2b), sp, sm, tp, tm = (fields(p) for p in _cross(s, t, step))
    d_s = (np.concatenate(sp) - np.concatenate(sm)) / (2.0 * step)
    d_t = (np.concatenate(tp) - np.concatenate(tm)) / (2.0 * step)
    d1 = np.array([d_s[0], d_t[1]])
    d2b = np.array([d_s[2], d_t[3]])
    term = 2.0 * (n1 * d2b - n2b * d1)
    quart = n1 * n1 * n2b * n2b
    iota = np.array([1.0, -1.0])
    A = term - 4.0 * iota * quart
    phi3sq = 4.0 * n1 * n1 * n2b * n2b
    return -0.25 * iota * (A + iota * phi3sq)


def abresch_rosenberg_reference(spinor_fn, points, step=1e-2, richardson=True):
    from nilweier.geometry import (
        QuadraticDifferentialResult,
        _hopf_centers,
        _hopf_steps,
    )
    from nilweier.paracomplex import ParaComplex

    def B_at(point):
        b1, *b2 = (_hopf_B_at(spinor_fn, *point, hh) for hh in _hopf_steps(step, richardson))
        return (4.0 * b2[0] - b1) / 3.0 if b2 else b1

    values = []
    worst = 0.0
    for s, t in points:
        b, t_plus, t_minus, s_plus, s_minus = map(B_at, _hopf_centers(float(s), float(t), step))
        values.append(ParaComplex.from_null(float(b[0]), float(b[1])))
        dB_t = (t_plus - t_minus) / (2.0 * step)
        dB_s = (s_plus - s_minus) / (2.0 * step)
        worst = max(worst, abs(float(dB_t[0])), abs(float(dB_s[1])))
    return QuadraticDifferentialResult(B=values, dzbar_residual=worst)


def flatness_residual_reference(h_fn, Q_fn, R_fn, points, thetas):
    from nilweier.geometry import _FLATNESS_STEP, _d1, _d2, _flatness_points

    worst = 0.0
    for s, t in points:
        (s, t), *around = _flatness_points(float(s), float(t))
        h = float(h_fn(s, t))
        Q = float(Q_fn(s))
        R = float(R_fn(t))
        logh = [math.log(h_fn(*p)) for p in around]
        a = float(_d1(logh[:6], _FLATNESS_STEP))
        b = float(_d1(logh[6:12], _FLATNESS_STEP))
        m = float(_d2(logh[12:], _FLATNESS_STEP))
        h_s = a * h
        h_t = b * h
        for theta in thetas:
            ep = math.exp(float(theta))
            em = math.exp(-float(theta))
            Up = np.array([[a / 2.0, -h * em / 4.0], [Q * em / h, -a / 2.0]])
            Uq = np.array([[b / 2.0, h * ep / 4.0], [-R * ep / h, -b / 2.0]])
            Vp = np.array([[-b / 2.0, -R * ep / h], [h * ep / 4.0, b / 2.0]])
            Vq = np.array([[-a / 2.0, Q * em / h], [-h * em / 4.0, a / 2.0]])
            dUp_t = np.array([[m / 2.0, -h_t * em / 4.0], [-Q * em * h_t / h**2, -m / 2.0]])
            dVp_s = np.array([[-m / 2.0, R * ep * h_s / h**2], [ep * h_s / 4.0, m / 2.0]])
            dUq_s = np.array([[m / 2.0, h_s * ep / 4.0], [R * ep * h_s / h**2, -m / 2.0]])
            dVq_t = np.array([[-m / 2.0, -Q * em * h_t / h**2], [-em * h_t / 4.0, m / 2.0]])
            flat_p = dUp_t - dVp_s + Vp @ Up - Up @ Vp
            flat_q = dUq_s - dVq_t + Vq @ Uq - Uq @ Vq
            worst = max(worst, float(np.abs(flat_p).max()), float(np.abs(flat_q).max()))
    return worst
