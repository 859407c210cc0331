"""Heisenberg-group and Minkowski geometry with verification residuals.

The Heisenberg group here is R^3 with multiplication
    (x1,x2,x3)*(y1,y2,y3) = (x1+y1, x2+y2, x3+y3 + (x1 y2 - y1 x2)/2)
and the left-invariant indefinite metric of signature (-,+,+) in the
orthonormal left-invariant frame E1, E2, E3 (E1 timelike).  Minkowski space
L3 carries the (+,-,+) metric throughout.

All differential checks are finite-difference based with explicit error
budgets: central differences of order 2, optionally Richardson-extrapolated,
and every residual can report the estimated FD noise floor next to the
value.  A check's stencil is listed once, by the per-point helpers below; the
check reads each field there once, through one sampler (`_sample`, or its
null-component twin for spinor fields), and computes on the resulting
arrays.  A field is a plain `fn(s, t)`, or carries a `rows` hook that gives
its values at a whole stencil in one call.  Its worst-value reductions
propagate NaN, so a NaN field fails its check.  Null coordinates (s, t) are
used everywhere: for a para-complex field w = w_p l + w_q lbar one has
(d_z w)_p = d_s w_p, (d_z w)_q = d_t w_q and the conjugate swaps slots, so
all Cauchy-Riemann style operators become componentwise cross-derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, ProjectionPole, ZeroDivisor
from .paracomplex import ParaComplex

__all__ = [
    "nil_mul",
    "nil_inv",
    "nil_left_translate",
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
    """Coordinate tangent vectors v at the points x, expressed in the
    left-invariant frame (E1, E2, E3); both are (..., 3) arrays."""
    x0, x1, _ = np.moveaxis(np.asarray(x, float), -1, 0)
    v0, v1, v2 = np.moveaxis(np.asarray(v, float), -1, 0)
    return np.stack([v0, v1, v2 + 0.5 * (x1 * v0 - x0 * v1)], axis=-1)


def nil_metric(X, Y) -> float:
    """Indefinite product of frame-component vectors, signature (-,+,+)."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    return float((NIL_METRIC_SIGNS * X * Y).sum())


def sym_bracket(X, Y) -> np.ndarray:
    """Symmetrized connection bracket {X,Y} = nabla_X Y + nabla_Y X on (..., 3)
    frame components; nonzero entries: {e1,e3} = -e2, {e2,e3} = -e1."""
    x0, x1, x2 = np.moveaxis(np.asarray(X), -1, 0)
    y0, y1, y2 = np.moveaxis(np.asarray(Y), -1, 0)
    return np.stack([-(x1 * y2 + x2 * y1), -(x0 * y2 + x2 * y0), 0.0 * x0], axis=-1)


def lie_bracket(X, Y) -> np.ndarray:
    """[e1, e2] = e3 and cyclic-zero otherwise (tau = 1/2), on (..., 3) arrays."""
    x0, x1, _ = np.moveaxis(np.asarray(X), -1, 0)
    y0, y1, _ = np.moveaxis(np.asarray(Y), -1, 0)
    return np.stack([0.0 * x0, 0.0 * x0, x0 * y1 - x1 * y0], axis=-1)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------
#
# The per-point helpers below list each stencil once, and `_each` (or a
# `*_stencil` function) makes a check's whole list.  `_sample` reads a field
# with a `rows` hook at that whole list in one call, and a plain `fn(s, t)`
# point by point.


def _sample(fn, stencil: list, count: int, read=None) -> np.ndarray:
    """The field's values, or `read` of each, at each point of `stencil`, a
    check's list at `count` points, in order: shape (count, K, ...) with K
    stencil points per check point.  A `rows` hook gives them in one call,
    `fn.rows(stencil)`, as a list or array of rows; else `fn(s, t)` is read."""
    values = fn.rows(stencil) if hasattr(fn, "rows") else [fn(s, t) for s, t in stencil]
    values = np.array(values if read is None else [read(v) for v in values], float)
    return values.reshape(count, -1, *values.shape[1:])


def _sample_null(spinor_fn, stencil: list, count: int) -> np.ndarray:
    """`_sample` of a spinor field as null components (psi1_p, psi1_q, psi2_p,
    psi2_q), which a `rows` hook gives already read from its (psi1, psi2)."""
    read = None if hasattr(spinor_fn, "rows") else lambda pair: [c for z in pair for c in (z.p, z.q)]
    return _sample(spinor_fn, stencil, count, read)


def _worst(*arrays) -> float:
    """The largest absolute entry of `arrays` (0.0 when they are empty); NaN
    when any entry is NaN, so that a NaN field fails its check."""
    return float(np.max([np.max(np.abs(a), initial=0.0) for a in arrays], initial=0.0))


def _mat2(a, b, c, d) -> np.ndarray:
    """The 2x2 matrices [[a, b], [c, d]] of broadcastable entries: (..., 2, 2)."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.stack([a, b, c, d], axis=-1).reshape(*a.shape, 2, 2)


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


def _xy_tangents(values, step, space: str):
    """FD tangents in conformal coordinates x, y (s = x + y, t = x - y) from
    (..., K, 3) values at the points of `_xy_points`; (..., 3) each."""
    f_x = (values[..., 0, :] - values[..., 1, :]) / (2.0 * step)
    f_y = (values[..., 2, :] - values[..., 3, :]) / (2.0 * step)
    if space == "nil":
        f_x = nil_left_translate(values[..., 4, :], f_x)
        f_y = nil_left_translate(values[..., 4, :], f_y)
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
    Raises DegenerateMetric at the first point where the form collapses, but
    only after reading the field at the whole stencil, whose errors come first.
    """
    values = _sample(surface_fn, xy_stencil(points, step, space), len(points))
    f_x, f_y, signs = _xy_tangents(values, step, space)
    E = (signs * f_x * f_x).sum(axis=-1)
    G = (signs * f_y * f_y).sum(axis=-1)
    F = (signs * f_x * f_y).sum(axis=-1)
    vanishes = (np.abs(E) < 1e-14) & (np.abs(G) < 1e-14)
    if vanishes.any():
        s, t = points[int(np.argmax(vanishes))]
        raise DegenerateMetric(f"first fundamental form vanishes at (s={s}, t={t})")
    return FundamentalFormResult(E=E, G=G, F=F, conformal_factor=E, residual=_worst(E + G, F))


# ---------------------------------------------------------------------------
# minimality (structure equation) residuals
# ---------------------------------------------------------------------------


@dataclass
class MinimalityResult:
    maurer_cartan: float  # max residual of the integrability equation
    minimality: float  # max residual of the zero-mean-curvature equation
    residual: float
    noise_floor: float


def _minimality_points(s, t, step):
    return [p for hh in (step, 2.0 * step) for c in _cross(s, t, hh) for p in _cross(*c, hh)]


def minimality_stencil(points, step: float = 1e-3) -> list:
    """Points of `minimality_residual`, in the order they are read."""
    return _each(points, _minimality_points, step)


def minimality_residual(surface_fn, points, step: float = 1e-3):
    """Structure-equation residuals of a map into the Heisenberg group.

    Central differences at `step`; the noise floor is estimated by comparing
    against the doubled step (second-order Richardson gap).
    """
    # axes: point, step (h, 2h), centre of the outer cross, point of the
    # inner cross around it, coordinate
    values = _sample(surface_fn, minimality_stencil(points, step), len(points))
    base, sp, sm, tp, tm = np.moveaxis(values.reshape(len(points), 2, 5, 5, 3), 3, 0)
    hh = np.array([step, 2.0 * step])[:, None]
    P = nil_left_translate(base, (sp - sm) / (2 * hh[:, None]))  # left-translated d_s f
    Q = nil_left_translate(base, (tp - tm) / (2 * hh[:, None]))  # left-translated d_t f
    P0, Q0 = P[:, :, 0], Q[:, :, 0]
    dP_dt = (P[:, :, 3] - P[:, :, 4]) / (2 * hh)
    dQ_ds = (Q[:, :, 1] - Q[:, :, 2]) / (2 * hh)
    # integrability: p slot of  Phi_zbar - conj(Phi)_z + [conj(Phi), Phi]
    r_mc_p = dP_dt - dQ_ds + lie_bracket(Q0, P0)
    r_mc_q = dQ_ds - dP_dt + lie_bracket(P0, Q0)
    # zero mean curvature: Phi_zbar + conj(Phi)_z + {Phi, conj(Phi)}
    r_min_p = dP_dt + dQ_ds + sym_bracket(P0, Q0)
    r_min_q = dQ_ds + dP_dt + sym_bracket(Q0, P0)
    mc1, mc2 = (_worst(r_mc_p[:, k], r_mc_q[:, k]) for k in (0, 1))
    mini1, mini2 = (_worst(r_min_p[:, k], r_min_q[:, k]) for k in (0, 1))
    residual = _worst(mc1, mini1)
    noise_floor = abs(_worst(mc2, mini2) - residual) / 3.0 + 1e-13 / step**2 * 1e-3
    return MinimalityResult(
        maurer_cartan=mc1, minimality=mini1, residual=residual, noise_floor=noise_floor
    )


# ---------------------------------------------------------------------------
# mean curvature in Minkowski space
# ---------------------------------------------------------------------------


def _auto_normal(f_x, f_y):
    """Unit normals to (..., 3) tangents, oriented with positive third component."""
    v = L3_METRIC_SIGNS * np.cross(f_x, f_y)
    nn = (L3_METRIC_SIGNS * v * v).sum(axis=-1, keepdims=True)
    if (nn <= 1e-20).any():
        raise DegenerateMetric("surface normal is not spacelike")
    n = v / np.sqrt(nn)
    return np.where(n[..., 2:] < 0, -n, n)


def mean_curvature_L3(surface_fn, points, step: float = 1e-3, normal_fn=None) -> np.ndarray:
    """Pointwise mean curvature of a timelike surface in L3 ((+,-,+) metric).

    H = tr(II I^{-1})/2 with II = -<df, dN>.  When `normal_fn` is omitted the
    normal is the normalized Lorentzian cross product oriented with positive
    third component (the orientation of the engine's Gauss maps), taken at
    each stencil point from the surface around it.  Raises DegenerateMetric
    when that normal is not spacelike, or, naming the first such point, when
    the first fundamental form is singular; the fields are read at the whole
    stencil first, so an error they raise comes before either.
    """
    stencil = xy_stencil(points, step, "l3")
    f_x, f_y, signs = _xy_tangents(_sample(surface_fn, stencil, len(points)), step, "l3")
    if normal_fn is None:
        around = _sample(surface_fn, xy_stencil(stencil, step, "l3"), len(stencil))
        normals = _auto_normal(*_xy_tangents(around, step, "l3")[:2]).reshape(len(points), -1, 3)
    else:
        normals = _sample(normal_fn, stencil, len(points))
    n_x, n_y, _ = _xy_tangents(normals, step, "l3")
    E = (signs * f_x * f_x).sum(axis=-1)
    F = (signs * f_x * f_y).sum(axis=-1)
    G = (signs * f_y * f_y).sum(axis=-1)
    det = E * G - F * F
    singular = np.abs(det) < 1e-12 * np.maximum(E * E + G * G + F * F, 1e-30)
    if singular.any():
        s, t = (float(x) for x in points[int(np.argmax(singular))])
        raise DegenerateMetric(f"first fundamental form singular at (s={s}, t={t})")
    II_xx = -(signs * f_x * n_x).sum(axis=-1)
    II_yy = -(signs * f_y * n_y).sum(axis=-1)
    II_xy = -0.5 * (signs * (f_x * n_y + f_y * n_x)).sum(axis=-1)
    I_mat = _mat2(E, F, F, G)
    II_mat = _mat2(II_xx, II_xy, II_xy, II_yy)
    return 0.5 * np.trace(II_mat @ np.linalg.inv(I_mat), axis1=-2, axis2=-1)


# ---------------------------------------------------------------------------
# spinors, Dirac residuals, Hopf/quadratic differentials
# ---------------------------------------------------------------------------


def conformal_factor_root(n):
    """Spinor expression 2(psi2 conj(psi2) + psi1 conj(psi1)) of (..., 4) null
    components (psi1_p, psi1_q, psi2_p, psi2_q); its square is the conformal
    factor e^u of the Heisenberg surface."""
    return 2.0 * (n[..., 2] * n[..., 3] + n[..., 0] * n[..., 1])


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


def _resolves_dirac_potential(n) -> np.ndarray:
    """Whether -d_z psi2 / psi1 is resolved at points with (..., 4) null
    components: both null components of psi1 exceed 1e-2 of the spinor scale."""
    scale = np.sqrt(np.maximum(np.abs(conformal_factor_root(n)), 1e-12))
    return np.minimum(np.abs(n[..., 0]), np.abs(n[..., 1])) > 1e-2 * scale


def spinors_and_dirac(spinor_fn, h_fn, points, step: float = 1e-3) -> SpinorField:
    """Evaluate spinors and the nonlinear Dirac residuals at each point.

    spinor_fn(s, t) -> (psi1, psi2) para-complex; h_fn(s, t) -> angle
    function.  Derivatives are central differences at `step`; the Dirac
    potential's are Richardson-extrapolated from max(step, 2e-2), at the
    points where `_resolves_dirac_potential` holds.
    """
    centres = [(float(s), float(t)) for s, t in points]
    h = _sample(h_fn, centres, len(points))[:, 0]
    values = _sample_null(spinor_fn, _each(points, _cross, step), len(points))
    base, sp, sm, tp, tm = np.moveaxis(values, 1, 0)
    d_s = (sp - sm) / (2.0 * step)
    d_t = (tp - tm) / (2.0 * step)
    n1, n2 = base[:, :2], base[:, 2:]
    # d_z psi2 + (i'/4) h psi1 : null components (d_s p, d_t q)
    r1 = [d_s[:, 2] + 0.25 * h * n1[:, 0], d_t[:, 3] - 0.25 * h * n1[:, 1]]
    # -d_zbar psi1 + (i'/4) h psi2 : d_zbar has components (d_t p, d_s q)
    r2 = [-d_t[:, 0] + 0.25 * h * n2[:, 0], -d_s[:, 1] - 0.25 * h * n2[:, 1]]
    h_spinor = 2.0 * (n2[:, 0] * n2[:, 1] - n1[:, 0] * n1[:, 1])
    # Dirac potential from the equation itself: -d_z psi2 / psi1; needs
    # Richardson-extrapolated derivatives to resolve Re U at the 1e-9 level
    resolved = _resolves_dirac_potential(base)
    worst_repot = 0.0
    if resolved.any():
        kept = [p for p, ok in zip(centres, resolved) if ok]
        rich = max(step, 2e-2)
        around = _sample_null(spinor_fn, _each(kept, _axis_richardson, rich), len(kept))
        pot_p = -_d1(around[:, :6, 2].T, rich) / n1[resolved, 0]
        pot_q = -_d1(around[:, 6:, 3].T, rich) / n1[resolved, 1]
        worst_repot = _worst((pot_p + pot_q) / 2.0)
    return SpinorField(
        h=h,
        eu=conformal_factor_root(base),
        dirac=_worst(*r1, *r2),
        h_gap=_worst(h_spinor - h),
        dirac_potential_re=worst_repot,
    )


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

    The H = 0 branch: B = -(i'/4)(A + i' phi3^2) with the Hopf coefficient
    A = 2(psi1 (conj psi2)_z - conj(psi2) (psi1)_z) - 4 i' psi1^2 conj(psi2)^2
    and phi3 = 2 psi1 conj(psi2).  `richardson` extrapolates the step once
    for fourth-order accuracy of B itself; the d_zbar residual is measured by
    differencing the B field.
    """
    steps = _hopf_steps(step, richardson)
    stencil = abresch_rosenberg_stencil(points, step, richardson)
    # axes: point, centre of `_hopf_centers`, step, point of the cross around
    # it, null components of (psi1, conj psi2): conj swaps psi2's pair
    values = _sample_null(spinor_fn, stencil, len(points))
    values = values.reshape(len(points), 5, len(steps), 5, 4)[..., [0, 1, 3, 2]]
    base, sp, sm, tp, tm = np.moveaxis(values, 3, 0)
    d_s = (sp - sm) / (2.0 * np.array(steps)[:, None])
    d_t = (tp - tm) / (2.0 * np.array(steps)[:, None])
    n1, n2b = base[..., :2], base[..., 2:]
    # d_z w has null components (d_s w_p, d_t w_q)
    d1 = np.stack([d_s[..., 0], d_t[..., 1]], axis=-1)  # (psi1)_z
    d2b = np.stack([d_s[..., 2], d_t[..., 3]], axis=-1)  # (conj psi2)_z
    term = 2.0 * (n1 * d2b - n2b * d1)
    quart = n1 * n1 * n2b * n2b
    # i' has null form (1, -1)
    iota = np.array([1.0, -1.0])
    A = term - 4.0 * iota * quart
    phi3sq = 4.0 * n1 * n1 * n2b * n2b
    B = -0.25 * iota * (A + iota * phi3sq)
    B = (4.0 * B[:, :, 1] - B[:, :, 0]) / 3.0 if richardson else B[:, :, 0]
    b, t_plus, t_minus, s_plus, s_minus = np.moveaxis(B, 1, 0)
    dB_t = (t_plus - t_minus) / (2.0 * step)
    dB_s = (s_plus - s_minus) / (2.0 * step)
    # d_zbar B has null components (d_t B_p, d_s B_q)
    return QuadraticDifferentialResult(
        B=[ParaComplex.from_null(p, q) for p, q in b.tolist()],
        dzbar_residual=_worst(dB_t[:, 0], dB_s[:, 1]),
    )


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
    values = _sample(h_fn, flatness_stencil(points), len(points))
    h = values[:, 0]
    # math.log and h**2 (libm pow) per value, as the scalar form has them:
    # numpy's log and an array's square may differ from them in the last bit
    logh = np.array([[math.log(x) for x in row] for row in values[:, 1:].tolist()])
    h2 = np.array([x**2 for x in h.tolist()])
    Q = np.array([float(Q_fn(float(s))) for s, _ in points])
    R = np.array([float(R_fn(float(t))) for _, t in points])
    a = _d1(logh[:, :6].T, _FLATNESS_STEP)  # d_s log h
    b = _d1(logh[:, 6:12].T, _FLATNESS_STEP)  # d_t log h
    m = _d2(logh[:, 12:].T, _FLATNESS_STEP)
    h_s = a * h
    h_t = b * h
    # axes: theta, point
    ep = np.array([math.exp(float(theta)) for theta in thetas])[:, None]
    em = np.array([math.exp(-float(theta)) for theta in thetas])[:, None]
    Up = _mat2(a / 2.0, -h * em / 4.0, Q * em / h, -a / 2.0)
    Uq = _mat2(b / 2.0, h * ep / 4.0, -R * ep / h, -b / 2.0)
    Vp = _mat2(-b / 2.0, -R * ep / h, h * ep / 4.0, b / 2.0)
    Vq = _mat2(-a / 2.0, Q * em / h, -h * em / 4.0, a / 2.0)
    dUp_t = _mat2(m / 2.0, -h_t * em / 4.0, -Q * em * h_t / h2, -m / 2.0)
    dVp_s = _mat2(-m / 2.0, R * ep * h_s / h2, ep * h_s / 4.0, m / 2.0)
    dUq_s = _mat2(m / 2.0, h_s * ep / 4.0, R * ep * h_s / h2, -m / 2.0)
    dVq_t = _mat2(-m / 2.0, -Q * em * h_t / h2, -em * h_t / 4.0, m / 2.0)
    flat_p = dUp_t - dVp_s + Vp @ Up - Up @ Vp
    flat_q = dUq_s - dVq_t + Vq @ Uq - Uq @ Vq
    return _worst(flat_p, flat_q)
