"""Verification report: every structural identity the engine promises.

Each check produces {check, value, threshold, pass} (some carry a noise
floor); `run_verification` aggregates them into a JSON-ready dict.  For
builtin potentials the closed-form oracles (surface relations, quadratic
differential values, angle function) are checked as well.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateMetric, GridTooCoarse
from .geometry import (
    _xy_tangents,
    abresch_rosenberg,
    abresch_rosenberg_stencil,
    conformal_factor_root,
    dirac_potential_stencil,
    dirac_stencil,
    first_fundamental_form,
    flatness_residual,
    flatness_stencil,
    mean_curvature_L3,
    minimality_residual,
    minimality_stencil,
    spinors_and_dirac,
    xy_stencil,
)
from .loopalg import SIGMA3, LoopPair, PCMatrix2, _mask, pair_eval
from .pipeline import Pipeline, _sym_point, extract_normalized_potential

__all__ = ["run_verification", "safe_points", "roundtrip_errors", "run_diagnostics"]

_LAMBDA_THETAS = (0.0, 0.25, -0.25, 0.5, -0.5)


def safe_points(pipeline: Pipeline, count: int = 9, nil_side: bool = False):
    """Interior gridpoints with a hole-free 5x5 neighborhood, downsampled.

    With nil_side=True, only points whose Heisenberg conformal factor e^u at
    the first spectral angle, read exactly from the sweep's spinors, lies
    within a factor 30 of its median are kept, nearest the basepoint first.
    """
    fg = pipeline.frame_grid
    ns, nt = len(fg.s_grid), len(fg.t_grid)
    candidates = []
    for i in range(2, ns - 2):
        for j in range(2, nt - 2):
            if fg.holes[i - 2 : i + 3, j - 2 : j + 3].any():
                continue
            candidates.append((float(fg.s_grid[i]), float(fg.t_grid[j])))
    if nil_side and candidates:
        theta0 = float(pipeline.thetas[0])
        vals = [
            conformal_factor_root(*pipeline.spinors_at(s, t, theta0)[:2]) ** 2
            for s, t in candidates
        ]
        positives = sorted(v for v in vals if v > 0.0)
        med = positives[len(positives) // 2] if positives else 0.0
        # keep points whose induced metric sits in a moderate band around the
        # median (finite differences degrade where it degenerates or blows up),
        # preferring points near the basepoint
        banded = [
            (abs(st[0]) + abs(st[1]), st)
            for st, v in zip(candidates, vals)
            if med / 30.0 <= v <= med * 30.0
        ]
        banded.sort(key=lambda r: (r[0], r[1]))
        candidates = [st for _, st in banded]
        return candidates[:count]
    if len(candidates) > count:
        idx = np.linspace(0, len(candidates) - 1, count).astype(int)
        candidates = [candidates[k] for k in idx]
    return candidates


def _check(name, value, threshold, floor=None):
    """A residual passes when below threshold, or, for FD-based checks with a
    noise floor, when it does not exceed that floor by more than 10x (then
    there is no evidence of a genuine violation)."""
    ok = bool(value <= threshold)
    entry = {
        "check": name,
        "value": float(value),
        "threshold": float(threshold),
    }
    if floor is not None:
        entry["noise_floor"] = float(floor)
        ok = ok or bool(value <= 10.0 * floor)
    entry["pass"] = ok
    return entry


_ORACLE_B = {"cylinder": 1.0 / 16.0, "hyperbolic-cylinder": -1.0 / 16.0, "horizontal-plane": 0.0}


def _surface_relation(oracle: str, v: np.ndarray) -> float:
    if oracle == "cylinder":
        return abs(v[2] - v[0] * v[1] / 2.0)
    if oracle == "hyperbolic-cylinder":
        return abs(v[2] + v[0] * v[1] / 2.0)
    if oracle in ("horizontal-plane",):
        return abs(v[2])
    return 0.0


def roundtrip_errors(pipeline: Pipeline, axis_values) -> tuple[list[dict], float]:
    """Recover the normalized potential along `axis_values` and compare it
    with the pipeline's own: per-sample f, g, Q, R errors and the worst b/B
    error max(f, g, Q/4, R/4)."""
    rec = extract_normalized_potential(pipeline, axis_values=axis_values)
    pot = pipeline.potential
    rows = []
    worst = 0.0
    for k, x in enumerate(rec.axis_values):
        x = float(x)
        errs = {
            "f": abs(rec.f[k] - pot.f.eval(x)),
            "g": abs(rec.g[k] - pot.g.eval(x)),
            "Q": abs(rec.Q[k] - pot.Q.eval(x)),
            "R": abs(rec.R[k] - pot.R.eval(x)),
        }
        worst = max(worst, errs["f"], errs["g"], errs["Q"] / 4.0, errs["R"] / 4.0)
        rows.append({"x": x, **{name: float(v) for name, v in errs.items()}})
    return rows, worst


def run_diagnostics(pipeline: Pipeline) -> dict:
    """Worst factorization conditioning (None when every point is a hole) and
    the relative Laurent tail mass of a run pipeline."""
    cond = pipeline.frame_grid.conditioning
    return {
        "max_conditioning": float(np.nanmax(cond)) if not np.isnan(cond).all() else None,
        "tail_relative": pipeline.tail.relative(),
    }


def run_verification(pipeline: Pipeline, oracle: str | None = None) -> dict:
    """Every check on a run pipeline.  Before each finite-difference check, the
    frames of its whole stencil are computed in one `frames_at` batch (two for
    the Dirac check, whose Richardson points depend on the spinor values); the
    check then reads them from the point cache."""
    if pipeline.frame_grid is None:
        pipeline.run()
    fg = pipeline.frame_grid
    sg = pipeline.surface_grid
    checks = []
    pts = safe_points(pipeline)
    # the Nil-side selection draws on the same candidates, so it is empty whenever this is
    if not pts:
        raise GridTooCoarse("no interior gridpoint has a hole-free 5x5 neighborhood to verify at")
    pts_nil = safe_points(pipeline, nil_side=True)
    theta0 = float(pipeline.thetas[0])
    thetas = [float(x) for x in pipeline.thetas]

    # frame quality: det, para-unitarity, angle function stability in theta
    det_err = reality_err = h_theta_err = 0.0
    for s, t in pts:
        pt = pipeline.frame_at(s, t)
        pair = LoopPair(pt.loop, pt.loop)
        for th in _LAMBDA_THETAS:
            F = pair_eval(pair, th)
            d = F.det()
            det_err = max(det_err, abs(d.re - 1.0), abs(d.im))
            inv = F.conj().transpose().inverse()
            s3 = PCMatrix2.from_real(SIGMA3)
            reality_err = max(reality_err, ((s3 @ inv @ s3) - F).max_abs())
            f21, f22 = F.entry(1, 0), F.entry(1, 1)
            h_theta = pt.h * (f22 * f22.conj() - f21 * f21.conj()).re
            h_theta_err = max(h_theta_err, abs(h_theta - pt.h))
    checks.append(_check("frame_det_unit", det_err, 1e-10))
    checks.append(_check("frame_reality_condition", reality_err, 1e-10))
    checks.append(_check("angle_function_theta_independent", h_theta_err, 1e-9))

    parity = float(np.abs(fg.frames[~fg.holes][:, _mask(fg.trunc_n)]).max())
    checks.append(_check("frame_twisting_parity", parity, 1e-12))

    # spinors and Dirac system (the theta0 field serves the conformal factor)
    for th in sorted({theta0, max(thetas)}):

        def spinors(a, b, th=th):
            return pipeline.spinors_at(a, b, th)[:2]

        pipeline.frames_at(dirac_stencil(pts_nil, 1e-3))
        pipeline.frames_at(dirac_potential_stencil(spinors, pts_nil, 1e-3))
        sp = spinors_and_dirac(spinors, pipeline.h_at, pts_nil, step=1e-3)
        tag = f"theta={th:g}"
        checks.append(_check(f"dirac_residual[{tag}]", sp.dirac, 1e-6))
        checks.append(_check(f"angle_function_spinor_gap[{tag}]", sp.h_gap, 1e-9))
        checks.append(
            _check(f"dirac_potential_purely_imaginary[{tag}]", sp.dirac_potential_re, 1e-9)
        )
        if th == theta0:
            sp0 = sp

    # conformality of the Heisenberg surface and conformal factor consistency
    pipeline.frames_at(xy_stencil(pts_nil, 1e-3, "nil"))
    fff = first_fundamental_form(
        lambda a, b: pipeline.nil_at(a, b, theta0), pts_nil, step=1e-3, space="nil"
    )
    pipeline.frames_at(xy_stencil(pts_nil, 2e-3, "nil"))
    fff_coarse = first_fundamental_form(
        lambda a, b: pipeline.nil_at(a, b, theta0), pts_nil, step=2e-3, space="nil"
    )
    conf_scale = max(1.0, float(np.abs(fff.E).max()))
    conf_res = fff.residual / conf_scale
    conf_floor = abs(fff_coarse.residual / conf_scale - conf_res) / 3.0
    checks.append(_check("nil_conformality_residual", conf_res, 1e-6, floor=conf_floor))
    # conformal factor e^u equals the square of the spinor expression
    # 2(psi2 conj psi2 + psi1 conj psi1); compare squares since the spinor
    # root is signed past singular curves of the surface
    eu_gap = float(np.abs(fff.E - sp0.eu**2).max()) / conf_scale
    checks.append(_check("conformal_factor_vs_spinors", eu_gap, 1e-5))

    # Minkowski side: conformal factor equals h^2, mean curvature 1/2
    pipeline.frames_at(xy_stencil(pts, 1e-3, "l3"))
    fff_l3 = first_fundamental_form(
        lambda a, b: pipeline.l3_at(a, b, theta0), pts, step=1e-3, space="l3"
    )
    h_vals = np.array([pipeline.h_at(s, t) for s, t in pts])
    l3_scale = max(1.0, float((h_vals**2).max()))
    checks.append(
        _check(
            "l3_conformal_factor_vs_h_squared",
            float(np.abs(fff_l3.E - h_vals**2).max()) / l3_scale,
            1e-5,
        )
    )
    try:
        H = mean_curvature_L3(
            lambda a, b: pipeline.l3_at(a, b, theta0),
            pts,
            step=1e-3,
            normal_fn=lambda a, b: pipeline.normal_at(a, b, theta0),
        )
        checks.append(_check("l3_mean_curvature_half", float(np.abs(H - 0.5).max()), 1e-3))
    except DegenerateMetric:
        checks.append(_check("l3_mean_curvature_half", float("inf"), 1e-3))

    # normals: unit, orthogonal to FD tangents
    nn_err = orth_err = 0.0
    pipeline.frames_at(xy_stencil(pts, 1e-4, "l3"))
    for s, t in pts:
        n = pipeline.normal_at(s, t, theta0)
        nn = n[0] ** 2 - n[1] ** 2 + n[2] ** 2
        nn_err = max(nn_err, abs(nn - 1.0))
        fx, fy, _ = _xy_tangents(lambda a, b: pipeline.l3_at(a, b, theta0), s, t, 1e-4, "l3")
        for v in (fx, fy):
            orth_err = max(orth_err, abs(n[0] * v[0] - n[1] * v[1] + n[2] * v[2]))
    checks.append(_check("normal_unit_length", nn_err, 1e-8))
    checks.append(_check("normal_tangency", orth_err, 1e-6))

    # structure equations of the generated Heisenberg surface
    pipeline.frames_at(minimality_stencil(pts_nil, 1e-3))
    mres = minimality_residual(
        lambda a, b: pipeline.nil_at(a, b, theta0), pts_nil, step=1e-3
    )
    checks.append(_check("minimality_residual", mres.residual, 1e-5, floor=mres.noise_floor))

    # quadratic differential: para-holomorphy and oracle value
    pipeline.frames_at(abresch_rosenberg_stencil(pts_nil, 1e-2))
    ar = abresch_rosenberg(
        lambda a, b: pipeline.spinors_at(a, b, theta0)[:2], pts_nil, step=1e-2
    )
    checks.append(_check("quadratic_differential_dzbar", ar.dzbar_residual, 1e-6))
    if oracle in _ORACLE_B and theta0 == 0.0:
        b_err = max(
            max(abs(b.re - _ORACLE_B[oracle]), abs(b.im)) for b in ar.B
        )
        checks.append(_check(f"quadratic_differential_value[{oracle}]", b_err, 1e-7))

    # flat connection family
    pipeline.frames_at(flatness_stencil(pts_nil))
    flat = flatness_residual(
        pipeline.h_at,
        pipeline.potential.Q.eval,
        pipeline.potential.R.eval,
        pts_nil,
        _LAMBDA_THETAS,
    )
    checks.append(_check("flat_connection_residual", flat, 1e-8))

    # Sym gauge invariance under a mu-independent diagonal field
    gauge_err = 0.0
    for s, t in pts:
        c = 0.3 * math.sin(s + 0.7) * math.cos(t - 0.3)
        base = pipeline.surface_at(s, t, theta0)
        gauged = _sym_point(pipeline.frame_at(s, t).loop.scale_columns(math.exp(c)), theta0)
        for u, v in zip(base, gauged):
            gauge_err = max(gauge_err, float(np.abs(u - v).max()))
    checks.append(_check("sym_gauge_invariance", gauge_err, 1e-12))

    # round trip through the normalized potential; with a non-identity
    # initial frame the surface's own normalized data differs from the
    # configured one, so the comparison is only meaningful without it
    if pipeline.initial_frame is None:
        _, rt_err = roundtrip_errors(pipeline, np.linspace(-0.4, 0.4, 5))
        checks.append(_check("normalized_potential_roundtrip", rt_err, 1e-7))

    # oracle surface relations
    if oracle is not None and oracle in ("cylinder", "hyperbolic-cylinder", "horizontal-plane"):
        rel_err = 0.0
        for k in range(len(sg.thetas)):
            for i in range(len(sg.s_grid)):
                for j in range(len(sg.t_grid)):
                    if sg.holes[i, j]:
                        continue
                    s, t = sg.s_grid[i], sg.t_grid[j]
                    if oracle == "horizontal-plane" and not (-1.0 < s * t < 1.0):
                        continue
                    rel_err = max(rel_err, _surface_relation(oracle, sg.nil[k, i, j]))
        tol = 1e-8 if oracle == "horizontal-plane" else 1e-6
        checks.append(_check(f"surface_relation[{oracle}]", rel_err, tol))
        if oracle == "cylinder":
            circ = float(
                np.nanmax(np.abs(sg.l3[..., 0] ** 2 + sg.l3[..., 2] ** 2 - 1.0))
            )
            checks.append(_check("l3_circular_cylinder_relation", circ, 1e-6))

    return {
        "name": oracle or "run",
        "passed": all(c["pass"] for c in checks),
        "checks": checks,
        "holes": int(fg.holes.sum()),
        **run_diagnostics(pipeline),
    }
