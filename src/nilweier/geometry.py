"""Heisenberg-group and Minkowski geometry with verification residuals.

The Heisenberg group here is R^3 with multiplication
    (x1,x2,x3)*(y1,y2,y3) = (x1+y1, x2+y2, x3+y3 + (x1 y2 - y1 x2)/2)
and the left-invariant indefinite metric of signature (-,+,+) in the
orthonormal left-invariant frame E1, E2, E3 (E1 timelike).  Minkowski space
L3 carries the (+,-,+) metric throughout.

All differential checks are finite-difference based with explicit error
budgets: central differences of order 2, optionally Richardson-extrapolated,
and every residual can report the estimated FD noise floor next to the
value.  Null coordinates (s, t) are used everywhere: for a para-complex
field w = w_p l + w_q lbar one has (d_z w)_p = d_s w_p, (d_z w)_q = d_t w_q
and the conjugate swaps slots, so all Cauchy-Riemann style operators become
componentwise cross-derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, GridTooCoarse, ProjectionPole, ZeroDivisor
from .paracomplex import ParaComplex

__all__ = [
    "nil_mul",
    "nil_inv",
    "nil_left_translate",
    "nil_metric_and_bracket",
    "nil_metric",
    "sym_bracket",
    "lie_bracket",
    "first_fundamental_form",
    "minimality_residual",
    "mean_curvature_L3",
    "SpinorField",
    "spinors_and_dirac",
    "abresch_rosenberg",
    "pi_nil_plus",
    "pi_l3_minus",
    "pi_l3_minus_inv",
    "gauss_from_spinors",
    "flatness_residual",
]

NIL_METRIC_SIGNS = np.array([-1.0, 1.0, 1.0])
L3_METRIC_SIGNS = np.array([1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------


def nil_mul(a, b) -> np.ndarray:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return np.array(
        [a[0] + b[0], a[1] + b[1], a[2] + b[2] + 0.5 * (a[0] * b[1] - b[0] * a[1])]
    )


def nil_inv(a) -> np.ndarray:
    return -np.asarray(a, float)


def nil_left_translate(x, v) -> np.ndarray:
    """Coordinate tangent vector v at the point x, expressed in the
    left-invariant frame (E1, E2, E3)."""
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    return np.array([v[0], v[1], v[2] + 0.5 * (x[1] * v[0] - x[0] * v[1])])


def nil_metric(X, Y) -> float:
    """Indefinite product of frame-component vectors, signature (-,+,+)."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    return float((NIL_METRIC_SIGNS * X * Y).sum())


def sym_bracket(X, Y) -> np.ndarray:
    """Symmetrized connection bracket {X,Y} = nabla_X Y + nabla_Y X on frame
    components; nonzero entries: {e1,e3} = -e2, {e2,e3} = -e1."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    return np.array(
        [
            -(X[1] * Y[2] + X[2] * Y[1]),
            -(X[0] * Y[2] + X[2] * Y[0]),
            0.0 * X[0],
        ]
    )


def lie_bracket(X, Y) -> np.ndarray:
    """[e1, e2] = e3 and cyclic-zero otherwise (tau = 1/2)."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    return np.array([0.0 * X[0], 0.0 * X[0], X[0] * Y[1] - X[1] * Y[0]])


def nil_metric_and_bracket(X, Y):
    """(g(X,Y), {X,Y}) for vectors given in the left-invariant frame."""
    return nil_metric(X, Y), sym_bracket(X, Y)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------
#
# Each residual below reads its fields at the points of a stencil that is
# listed once, here, in the order its arithmetic reads them.  The `*_stencil`
# functions return a check's whole list, so that a caller can compute every
# point the check reads as one batch before running it.


def _richardson_steps(h: float) -> list[float]:
    return [h / (2.0**k) for k in range(3)]


def _extrapolate(table):
    """Richardson-extrapolate second-order estimates at the steps h, h/2, h/4."""
    for m in range(1, 3):
        fac = 4.0**m
        table = [(fac * table[k + 1] - table[k]) / (fac - 1.0) for k in range(len(table) - 1)]
    return table[0]


def _cross(s: float, t: float, step: float) -> list:
    """(s, t), then its neighbours for central differences in s and in t."""
    return [(s, t), (s + step, t), (s - step, t), (s, t + step), (s, t - step)]


def _xy_points(s: float, t: float, step: float, space: str) -> list:
    """The diagonal neighbours giving the x and y tangents, then, on the Nil
    side, (s, t) itself, where the tangents are left-translated."""
    points = [(s + step, t + step), (s - step, t - step), (s + step, t - step), (s - step, t + step)]
    return points + [(s, t)] if space == "nil" else points


def _axis_richardson(s: float, t: float, h: float) -> list:
    """Pairs (x + hh, x - hh) over the Richardson steps from h: along s, then along t."""
    steps = _richardson_steps(h)
    along_s = [p for hh in steps for p in ((s + hh, t), (s - hh, t))]
    along_t = [p for hh in steps for p in ((s, t + hh), (s, t - hh))]
    return along_s + along_t


def _diagonals(s: float, t: float, h: float) -> list:
    """Corners of the mixed-derivative estimates over the Richardson steps from h."""
    return [
        p
        for hh in _richardson_steps(h)
        for p in ((s + hh, t + hh), (s + hh, t - hh), (s - hh, t + hh), (s - hh, t - hh))
    ]


def _d1(values, h: float):
    """Richardson first derivative from its values at the pairs of `_axis_richardson`."""
    steps = _richardson_steps(h)
    return _extrapolate(
        [(values[2 * k] - values[2 * k + 1]) / (2.0 * hh) for k, hh in enumerate(steps)]
    )


def _d2(values, h: float):
    """Richardson mixed derivative from its values at the corners of `_diagonals`."""
    steps = _richardson_steps(h)
    return _extrapolate(
        [
            (values[4 * k] - values[4 * k + 1] - values[4 * k + 2] + values[4 * k + 3])
            / (4.0 * hh * hh)
            for k, hh in enumerate(steps)
        ]
    )


def _each(points, stencil, *args) -> list:
    return [p for s, t in points for p in stencil(float(s), float(t), *args)]


def xy_stencil(points, step: float, space: str) -> list:
    """Points of `first_fundamental_form`, and of `mean_curvature_L3` with a
    `normal_fn`, in the order they are read."""
    return _each(points, _xy_points, step, space)


# ---------------------------------------------------------------------------
# first fundamental form and conformality
# ---------------------------------------------------------------------------


@dataclass
class FundamentalFormResult:
    E: np.ndarray  # <f_x, f_x>
    G: np.ndarray  # <f_y, f_y>
    F: np.ndarray  # <f_x, f_y>
    conformal_factor: np.ndarray  # e^u estimate = E
    residual: float  # max(|E + G|, |F|)


def _xy_tangents(surface_fn, s, t, step, space: str):
    """FD tangents in conformal coordinates x, y; s = x + y, t = x - y."""
    values = [np.asarray(surface_fn(a, b)) for a, b in _xy_points(s, t, step, space)]
    f_x = (values[0] - values[1]) / (2.0 * step)
    f_y = (values[2] - values[3]) / (2.0 * step)
    if space == "nil":
        f_x = nil_left_translate(values[4], f_x)
        f_y = nil_left_translate(values[4], f_y)
        signs = NIL_METRIC_SIGNS
    elif space == "l3":
        signs = L3_METRIC_SIGNS
    else:
        raise ValueError(f"unknown space {space!r}")
    return f_x, f_y, signs


def first_fundamental_form(surface_fn, points, step: float = 1e-3, space: str = "nil"):
    """Conformality data at each (s, t) point.

    Returns per-point arrays of <f_x,f_x>, <f_y,f_y>, <f_x,f_y> and the peak
    conformality residual max(|<f_x,f_x> + <f_y,f_y>|, |<f_x,f_y>|).
    Raises DegenerateMetric when the form collapses at a point.
    """
    Es, Gs, Fs = [], [], []
    for s, t in points:
        f_x, f_y, signs = _xy_tangents(surface_fn, float(s), float(t), step, space)
        E = float((signs * f_x * f_x).sum())
        G = float((signs * f_y * f_y).sum())
        F = float((signs * f_x * f_y).sum())
        if abs(E) < 1e-14 and abs(G) < 1e-14:
            raise DegenerateMetric(f"first fundamental form vanishes at (s={s}, t={t})")
        Es.append(E)
        Gs.append(G)
        Fs.append(F)
    Es, Gs, Fs = np.array(Es), np.array(Gs), np.array(Fs)
    residual = float(max(np.abs(Es + Gs).max(), np.abs(Fs).max()))
    return FundamentalFormResult(E=Es, G=Gs, F=Fs, conformal_factor=Es, residual=residual)


# ---------------------------------------------------------------------------
# minimality (structure equation) residuals
# ---------------------------------------------------------------------------


@dataclass
class MinimalityResult:
    maurer_cartan: float  # max residual of the integrability equation
    minimality: float  # max residual of the zero-mean-curvature equation
    residual: float
    noise_floor: float


def _translated_null_derivs(surface_fn, s, t, step):
    """P = left-translated d_s f and Q = left-translated d_t f at (s, t)."""
    base, sp, sm, tp, tm = (np.asarray(surface_fn(a, b)) for a, b in _cross(s, t, step))
    ds = (sp - sm) / (2 * step)
    dt = (tp - tm) / (2 * step)
    return nil_left_translate(base, ds), nil_left_translate(base, dt)


def _minimality_at(surface_fn, s, t, step):
    (P0, Q0), (Psp, Qsp), (Psm, Qsm), (Ptp, Qtp), (Ptm, Qtm) = (
        _translated_null_derivs(surface_fn, a, b, step) for a, b in _cross(s, t, step)
    )
    dP_dt = (Ptp - Ptm) / (2 * step)
    dQ_ds = (Qsp - Qsm) / (2 * step)
    # integrability: p slot of  Phi_zbar - conj(Phi)_z + [conj(Phi), Phi]
    r_mc_p = dP_dt - dQ_ds + lie_bracket(Q0, P0)
    r_mc_q = dQ_ds - dP_dt + lie_bracket(P0, Q0)
    # zero mean curvature: Phi_zbar + conj(Phi)_z + {Phi, conj(Phi)}
    r_min_p = dP_dt + dQ_ds + sym_bracket(P0, Q0)
    r_min_q = dQ_ds + dP_dt + sym_bracket(Q0, P0)
    mc = max(np.abs(r_mc_p).max(), np.abs(r_mc_q).max())
    mini = max(np.abs(r_min_p).max(), np.abs(r_min_q).max())
    return mc, mini


def _minimality_points(s, t, step):
    return [p for hh in (step, 2.0 * step) for c in _cross(s, t, hh) for p in _cross(*c, hh)]


def minimality_stencil(points, step: float = 1e-3) -> list:
    """Points of `minimality_residual`, in the order they are read."""
    return _each(points, _minimality_points, step)


def minimality_residual(surface_fn, points, step: float = 1e-3, claim: float | None = None):
    """Structure-equation residuals of a map into the Heisenberg group.

    Central differences at `step`; the noise floor is estimated by comparing
    against the doubled step (second-order Richardson gap).  When `claim` is
    given and the floor exceeds it, GridTooCoarse is raised.
    """
    mc1 = mini1 = mc2 = mini2 = 0.0
    for s, t in points:
        a, b = _minimality_at(surface_fn, float(s), float(t), step)
        mc1, mini1 = max(mc1, a), max(mini1, b)
        a2, b2 = _minimality_at(surface_fn, float(s), float(t), 2.0 * step)
        mc2, mini2 = max(mc2, a2), max(mini2, b2)
    residual = max(mc1, mini1)
    noise_floor = abs(max(mc2, mini2) - residual) / 3.0 + 1e-13 / step**2 * 1e-3
    if claim is not None and noise_floor > claim:
        raise GridTooCoarse(
            f"FD noise floor {noise_floor:.3e} exceeds claimed residual {claim:.3e}"
        )
    return MinimalityResult(
        maurer_cartan=mc1, minimality=mini1, residual=residual, noise_floor=noise_floor
    )


# ---------------------------------------------------------------------------
# mean curvature in Minkowski space
# ---------------------------------------------------------------------------


def _auto_normal(f_x, f_y):
    v = L3_METRIC_SIGNS * np.cross(f_x, f_y)
    nn = float((L3_METRIC_SIGNS * v * v).sum())
    if nn <= 1e-20:
        raise DegenerateMetric("surface normal is not spacelike")
    n = v / math.sqrt(nn)
    if n[2] < 0:
        n = -n
    return n


def mean_curvature_L3(surface_fn, points, step: float = 1e-3, normal_fn=None) -> np.ndarray:
    """Pointwise mean curvature of a timelike surface in L3 ((+,-,+) metric).

    H = tr(II I^{-1})/2 with II = -<df, dN>.  When `normal_fn` is omitted the
    normal is the normalized Lorentzian cross product oriented with positive
    third component (the orientation of the engine's Gauss maps).
    """
    if normal_fn is None:

        def normal_fn(s, t):
            f_x, f_y, _ = _xy_tangents(surface_fn, s, t, step, "l3")
            return _auto_normal(f_x, f_y)

    out = []
    for s, t in points:
        s, t = float(s), float(t)
        f_x, f_y, signs = _xy_tangents(surface_fn, s, t, step, "l3")
        n_x, n_y, _ = _xy_tangents(normal_fn, s, t, step, "l3")
        E = float((signs * f_x * f_x).sum())
        F = float((signs * f_x * f_y).sum())
        G = float((signs * f_y * f_y).sum())
        det = E * G - F * F
        if abs(det) < 1e-12 * max(E * E + G * G + F * F, 1e-30):
            raise DegenerateMetric(f"first fundamental form singular at (s={s}, t={t})")
        II_xx = -float((signs * f_x * n_x).sum())
        II_yy = -float((signs * f_y * n_y).sum())
        II_xy = -0.5 * float((signs * (f_x * n_y + f_y * n_x)).sum())
        I_mat = np.array([[E, F], [F, G]])
        II_mat = np.array([[II_xx, II_xy], [II_xy, II_yy]])
        out.append(0.5 * float(np.trace(II_mat @ np.linalg.inv(I_mat))))
    return np.array(out)


# ---------------------------------------------------------------------------
# spinors, Dirac residuals, Hopf/quadratic differentials
# ---------------------------------------------------------------------------


def _null(z: ParaComplex) -> np.ndarray:
    return np.array([z.p, z.q])


def conformal_factor_root(psi1: ParaComplex, psi2: ParaComplex) -> float:
    """Spinor expression 2(psi2 conj(psi2) + psi1 conj(psi1)); its square is
    the conformal factor e^u of the Heisenberg surface."""
    return 2.0 * (psi2.p * psi2.q + psi1.p * psi1.q)


@dataclass
class SpinorField:
    """Generating spinors on a point set with their consistency residuals.

    `dirac` is the worst residual of the two coupled first-order equations
    with potential (i'/4) h; `h_gap` compares the supplied angle function
    with 2(psi2 conj(psi2) - psi1 conj(psi1)); `eu` is `conformal_factor_root`
    at each point.
    """

    h: np.ndarray
    eu: np.ndarray
    dirac: float
    h_gap: float
    dirac_potential_re: float


def _resolves_dirac_potential(c1: ParaComplex, c2: ParaComplex) -> bool:
    """Whether -d_z psi2 / psi1 is resolved at a point: both null components
    of psi1 exceed 1e-2 of the spinor scale."""
    n1 = _null(c1)
    scale = math.sqrt(max(abs(conformal_factor_root(c1, c2)), 1e-12))
    return min(abs(n1[0]), abs(n1[1])) > 1e-2 * scale


def _dirac_potential_step(step: float) -> float:
    return max(step, 2e-2)


def dirac_stencil(points, step: float = 1e-3) -> list:
    """Points of `spinors_and_dirac` apart from its Dirac-potential branch."""
    return _each(points, _cross, step)


def dirac_potential_stencil(spinor_fn, points, step: float = 1e-3) -> list:
    """Points of the Dirac-potential branch of `spinors_and_dirac`: those of
    the points where `spinor_fn` resolves the potential."""
    resolved = [(s, t) for s, t in points if _resolves_dirac_potential(*spinor_fn(s, t))]
    return _each(resolved, _axis_richardson, _dirac_potential_step(step))


def spinors_and_dirac(spinor_fn, h_fn, points, step: float = 1e-3) -> SpinorField:
    """Evaluate spinors and the nonlinear Dirac residuals at each point.

    spinor_fn(s, t) -> (psi1, psi2) para-complex; h_fn(s, t) -> angle
    function.  Derivatives are central differences at `step`.
    """

    def nulls(point):
        """Null components (psi1_p, psi1_q, psi2_p, psi2_q), one evaluation."""
        c1, c2 = spinor_fn(*point)
        return np.concatenate((_null(c1), _null(c2)))

    h_out, eu_out = [], []
    worst_dirac = 0.0
    worst_hgap = 0.0
    worst_repot = 0.0
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
        # d_z psi2 + (i'/4) h psi1 : null components (d_s p, d_t q)
        r1 = np.array([d2_s[0] + 0.25 * h * n1[0], d2_t[1] - 0.25 * h * n1[1]])
        # -d_zbar psi1 + (i'/4) h psi2 : d_zbar has components (d_t p, d_s q)
        r2 = np.array([-d1_t[0] + 0.25 * h * n2[0], -d1_s[1] - 0.25 * h * n2[1]])
        worst_dirac = max(worst_dirac, float(np.abs(r1).max()), float(np.abs(r2).max()))
        h_spinor = 2.0 * (n2[0] * n2[1] - n1[0] * n1[1])
        eu = conformal_factor_root(c1, c2)
        worst_hgap = max(worst_hgap, abs(h_spinor - h))
        # Dirac potential from the equation itself: -d_z psi2 / psi1; needs
        # Richardson-extrapolated derivatives to resolve Re U at the 1e-9 level
        if _resolves_dirac_potential(c1, c2):
            rich = _dirac_potential_step(step)
            values = [nulls(p) for p in _axis_richardson(s, t, rich)]
            dp = float(_d1([v[2] for v in values[:6]], rich))
            dq = float(_d1([v[3] for v in values[6:]], rich))
            pot_p = -dp / n1[0]
            pot_q = -dq / n1[1]
            worst_repot = max(worst_repot, abs((pot_p + pot_q) / 2.0))
        h_out.append(h)
        eu_out.append(eu)
    return SpinorField(
        h=np.array(h_out),
        eu=np.array(eu_out),
        dirac=worst_dirac,
        h_gap=worst_hgap,
        dirac_potential_re=worst_repot,
    )


def _hopf_B_at(spinor_fn, s: float, t: float, step: float) -> np.ndarray:
    """Null components of the quadratic-differential coefficient B at (s,t).

    B = -(i'/4) (A + i' phi3^2) with the Hopf coefficient
    A = 2(psi1 (conj psi2)_z - conj(psi2) (psi1)_z) - 4 i' psi1^2 conj(psi2)^2
    and phi3 = 2 psi1 conj(psi2).
    """

    def fields(point):
        a, b = spinor_fn(*point)
        return _null(a), _null(b.conj())

    (n1, n2b), sp, sm, tp, tm = (fields(p) for p in _cross(s, t, step))
    d_s = (np.concatenate(sp) - np.concatenate(sm)) / (2.0 * step)
    d_t = (np.concatenate(tp) - np.concatenate(tm)) / (2.0 * step)
    # d_z w has null components (d_s w_p, d_t w_q)
    d1 = np.array([d_s[0], d_t[1]])  # (psi1)_z
    d2b = np.array([d_s[2], d_t[3]])  # (conj psi2)_z
    term = 2.0 * (n1 * d2b - n2b * d1)
    quart = n1 * n1 * n2b * n2b
    # i' has null form (1, -1)
    iota = np.array([1.0, -1.0])
    A = term - 4.0 * iota * quart
    phi3sq = 4.0 * n1 * n1 * n2b * n2b
    B = -0.25 * iota * (A + iota * phi3sq)
    return B


def _hopf_centers(s: float, t: float, step: float) -> list:
    """Where `abresch_rosenberg` reads B at a point: the point, then its
    neighbours for the central differences in t and in s."""
    return [(s, t), (s, t + step), (s, t - step), (s + step, t), (s - step, t)]


def _hopf_steps(step: float, richardson: bool) -> list[float]:
    return [step, step / 2.0] if richardson else [step]


def abresch_rosenberg_stencil(points, step: float = 1e-2, richardson: bool = True) -> list:
    """Points of `abresch_rosenberg`, in the order they are read."""

    def at(s, t):
        return [
            p
            for c in _hopf_centers(s, t, step)
            for hh in _hopf_steps(step, richardson)
            for p in _cross(*c, hh)
        ]

    return _each(points, at)


@dataclass
class QuadraticDifferentialResult:
    B: list  # ParaComplex per point
    dzbar_residual: float


def abresch_rosenberg(
    spinor_fn, points, step: float = 1e-2, richardson: bool = True
) -> QuadraticDifferentialResult:
    """Quadratic-differential coefficient B and its para-holomorphy defect.

    The H = 0 branch: B = -(i'/4)(A + i' phi3^2).  `richardson` extrapolates
    the step once for fourth-order accuracy of B itself; the d_zbar residual
    is measured by differencing the B field.
    """

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
        # d_zbar B has null components (d_t B_p, d_s B_q)
        worst = max(worst, abs(float(dB_t[0])), abs(float(dB_s[1])))
    return QuadraticDifferentialResult(B=values, dzbar_residual=worst)


# ---------------------------------------------------------------------------
# Gauss map projections
# ---------------------------------------------------------------------------


def pi_nil_plus(v) -> ParaComplex:
    """Stereographic projection of the Heisenberg de Sitter sphere from (0,0,1)."""
    v = np.asarray(v, float)
    if abs(1.0 - v[2]) < 1e-15:
        raise ProjectionPole("projection pole x3 = 1")
    return ParaComplex(v[0] / (1.0 - v[2]), v[1] / (1.0 - v[2]))


def pi_l3_minus(v) -> ParaComplex:
    """Stereographic projection of the L3 de Sitter sphere from (0,0,-1)."""
    v = np.asarray(v, float)
    if abs(1.0 + v[2]) < 1e-15:
        raise ProjectionPole("projection pole x3 = -1")
    return ParaComplex(v[0] / (1.0 + v[2]), v[1] / (1.0 + v[2]))


def pi_l3_minus_inv(g: ParaComplex) -> np.ndarray:
    gg = g.modulus_form()
    if abs(1.0 + gg) < 1e-15:
        raise ProjectionPole("inverse projection undefined on |g|^2 = -1")
    return np.array([2.0 * g.re, 2.0 * g.im, 1.0 - gg]) / (1.0 + gg)


def gauss_from_spinors(psi1: ParaComplex, psi2: ParaComplex) -> ParaComplex:
    """Projected Gauss map g = i' conj(psi1) / psi2."""
    if psi2.is_zero_divisor(1e-300):
        raise ZeroDivisor("psi2 is a zero divisor")
    return ParaComplex(0.0, 1.0) * psi1.conj() / psi2


# ---------------------------------------------------------------------------
# flat connection family residual
# ---------------------------------------------------------------------------


_FLATNESS_STEP = 2e-2


def _flatness_points(s: float, t: float) -> list:
    return [(s, t)] + _axis_richardson(s, t, _FLATNESS_STEP) + _diagonals(s, t, _FLATNESS_STEP)


def flatness_stencil(points) -> list:
    """Points of `flatness_residual`, in the order they are read."""
    return _each(points, _flatness_points)


def flatness_residual(h_fn, Q_fn, R_fn, points, thetas) -> float:
    """Residual of d alpha + alpha ^ alpha for the spectral connection family.

    alpha is assembled from the angle function h and the potential data
    (Q, R); its curvature U_zbar - V_z + [V, U] is evaluated slotwise in
    null coordinates at each theta.  First and mixed derivatives of log h
    are Richardson extrapolated from step 2e-2, so the result is FD-noise
    limited.
    """
    worst = 0.0
    for s, t in points:
        (s, t), *around = _flatness_points(float(s), float(t))
        h = float(h_fn(s, t))
        Q = float(Q_fn(s))
        R = float(R_fn(t))
        logh = [math.log(h_fn(*p)) for p in around]
        a = float(_d1(logh[:6], _FLATNESS_STEP))  # d_s log h
        b = float(_d1(logh[6:12], _FLATNESS_STEP))  # d_t log h
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
