"""Verification report: every structural identity the engine promises.

Each check produces {check, value, threshold, pass} (some carry a noise
floor); `run_verification` aggregates them into a JSON-ready dict.  For
builtin potentials the closed-form oracles (surface relations, quadratic
differential values, angle function) are checked as well.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateMetric, GridTooCoarse
from .geometry import (
    _sample,
    _worst,
    _xy_tangents,
    abresch_rosenberg,
    conformal_factor_root,
    first_fundamental_form,
    flatness_residual,
    mean_curvature_L3,
    minimality_residual,
    spinors_and_dirac,
    xy_stencil,
)
from .expressions import eval_rows
from .loopalg import SIGMA3, LoopPair, PCMatrix2, TwistedLoop, _mask, _scale_rows, pair_eval
from .pipeline import Pipeline, _spinor_rows, _sym_rows, extract_normalized_potential

__all__ = ["run_verification", "safe_points", "roundtrip_errors", "run_diagnostics"]

_LAMBDA_THETAS = (0.0, 0.25, -0.25, 0.5, -0.5)


def safe_points(pipeline: Pipeline, count: int = 9, nil_side: bool = False):
    """Interior gridpoints with a hole-free 5x5 neighborhood, downsampled.

    With nil_side=True, only points whose Heisenberg conformal factor e^u at
    the first spectral angle, read exactly from the sweep's spinors, lies
    within a factor 30 of its median are kept, nearest the basepoint first.
    """
    fg = pipeline.frame_grid
    windows = sliding_window_view(np.pad(fg.holes, 2, constant_values=True), (5, 5))  # padding as holes
    i, j = np.nonzero(~windows.any(axis=(2, 3)))  # row-major, as a loop over i then j
    candidates = list(zip(fg.s_grid[i].tolist(), fg.t_grid[j].tolist()))
    if nil_side and candidates:
        nulls = _spinor_rows(*pipeline.frames_at(candidates), pipeline.thetas[0])
        vals = [v**2 for v in conformal_factor_root(nulls).tolist()]
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
    there is no evidence of a genuine violation).  A NaN value or floor fails."""
    ok = bool(value <= threshold)
    entry = {
        "check": name,
        "value": float(value),
        "threshold": float(threshold),
    }
    if floor is not None:
        entry["noise_floor"] = float(floor)
        ok = (ok or bool(value <= 10.0 * floor)) and not math.isnan(floor)
    entry["pass"] = ok
    return entry


_ORACLE_B = {"cylinder": 1.0 / 16.0, "hyperbolic-cylinder": -1.0 / 16.0, "horizontal-plane": 0.0}


def roundtrip_errors(pipeline: Pipeline, axis_values) -> tuple[list[dict], float]:
    """Recover the normalized potential along `axis_values` and compare it
    with the pipeline's own: per-sample f, g, Q, R errors and the worst b/B
    error max(f, g, Q/4, R/4)."""
    rec = extract_normalized_potential(pipeline, axis_values=axis_values)
    pot = pipeline.potential
    values = eval_rows([pot.f, pot.g, pot.Q, pot.R], rec.axis_values)
    errs = {name: np.abs(getattr(rec, name) - v) for name, v in zip("fgQR", values)}
    rows = [
        {"x": float(x), **{name: float(v[k]) for name, v in errs.items()}}
        for k, x in enumerate(rec.axis_values)
    ]
    return rows, _worst(*([r["f"], r["g"], r["Q"] / 4.0, r["R"] / 4.0] for r in rows))


def run_diagnostics(pipeline: Pipeline) -> dict:
    """Worst factorization conditioning, np.linalg.cond's (None when every
    point is a hole), and the relative Laurent tail mass of a run pipeline."""
    return {
        "max_conditioning": pipeline.frame_grid.max_conditioning,
        "tail_relative": pipeline.tail.relative(),
    }


def run_verification(pipeline: Pipeline, oracle: str | None = None) -> dict:
    """Every check on a pipeline that has run.  The finite-difference checks read the
    pipeline's fields as rows, so each stencil a check samples has its frames
    computed in one `frames_at` batch (the Dirac check's Richardson points,
    which depend on the spinor values, form a batch of their own), and its
    surface rows in one `_sym_rows` call."""
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
    # fields read as rows: one `surfaces_at` call, or one `frames_at` batch, per stencil
    nil, l3, normal = (
        SimpleNamespace(rows=lambda stencil, k=k: pipeline.surfaces_at(stencil, theta0)[:, k])
        for k in range(3)
    )
    h = SimpleNamespace(rows=lambda stencil: pipeline.frames_at(stencil)[1])
    # the spinor pair (psi1, psi2) at each angle, as rows of its null components
    spinors = {
        th: SimpleNamespace(rows=lambda stencil, th=th: _spinor_rows(*pipeline.frames_at(stencil), th))
        for th in sorted({theta0, max(thetas)})
    }

    # frame quality: det, para-unitarity, angle function stability in theta
    det_err, reality_err, h_theta_err = [], [], []
    s3 = PCMatrix2.from_real(SIGMA3)
    for c, h_pt in zip(*pipeline.frames_at(pts)):
        loop = TwistedLoop(fg.trunc_n, c, enforce_parity=False)
        pair = LoopPair(loop, loop)
        for th in _LAMBDA_THETAS:
            F = pair_eval(pair, th)
            d = F.det()
            det_err += [d.re - 1.0, d.im]
            inv = F.conj().transpose().inverse()
            reality_err.append(((s3 @ inv @ s3) - F).max_abs())
            f21, f22 = F.entry(1, 0), F.entry(1, 1)
            h_theta = h_pt * (f22 * f22.conj() - f21 * f21.conj()).re
            h_theta_err.append(h_theta - h_pt)
    checks.append(_check("frame_det_unit", _worst(det_err), 1e-10))
    checks.append(_check("frame_reality_condition", _worst(reality_err), 1e-10))
    checks.append(_check("angle_function_theta_independent", _worst(h_theta_err), 1e-9))

    parity = float(np.abs(fg.frames[~fg.holes][:, _mask(fg.trunc_n)]).max())
    checks.append(_check("frame_twisting_parity", parity, 1e-12))

    # spinors and Dirac system (the theta0 field serves the conformal factor)
    for th, spinor_fn in spinors.items():
        sp = spinors_and_dirac(spinor_fn, h, pts_nil, step=1e-3)
        tag = f"theta={th:g}"
        checks.append(_check(f"dirac_residual[{tag}]", sp.dirac, 1e-6))
        checks.append(_check(f"angle_function_spinor_gap[{tag}]", sp.h_gap, 1e-9))
        checks.append(
            _check(f"dirac_potential_purely_imaginary[{tag}]", sp.dirac_potential_re, 1e-9)
        )
        if th == theta0:
            sp0 = sp

    # conformality of the Heisenberg surface and conformal factor consistency
    fff = first_fundamental_form(nil, pts_nil, step=1e-3, space="nil")
    fff_coarse = first_fundamental_form(nil, pts_nil, step=2e-3, space="nil")
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
    fff_l3 = first_fundamental_form(l3, pts, step=1e-3, space="l3")
    h_vals = _sample(h, pts, len(pts))[:, 0]
    l3_scale = max(1.0, float((h_vals**2).max()))
    checks.append(
        _check(
            "l3_conformal_factor_vs_h_squared",
            float(np.abs(fff_l3.E - h_vals**2).max()) / l3_scale,
            1e-5,
        )
    )
    try:
        H = mean_curvature_L3(l3, pts, step=1e-3, normal_fn=normal)
        checks.append(_check("l3_mean_curvature_half", float(np.abs(H - 0.5).max()), 1e-3))
    except DegenerateMetric:
        checks.append(_check("l3_mean_curvature_half", float("inf"), 1e-3))

    # normals: unit, orthogonal to FD tangents; the squares stay numpy-scalar
    # powers (libm pow), which an array's square may differ from in the last bit
    n = _sample(normal, pts, len(pts))[:, 0]
    nn_err = [v[0] ** 2 - v[1] ** 2 + v[2] ** 2 - 1.0 for v in n]
    fx, fy, _ = _xy_tangents(_sample(l3, xy_stencil(pts, 1e-4, "l3"), len(pts)), 1e-4, "l3")
    orth_err = [n[:, 0] * v[:, 0] - n[:, 1] * v[:, 1] + n[:, 2] * v[:, 2] for v in (fx, fy)]
    checks.append(_check("normal_unit_length", _worst(nn_err), 1e-8))
    checks.append(_check("normal_tangency", _worst(*orth_err), 1e-6))

    # structure equations of the generated Heisenberg surface
    mres = minimality_residual(nil, pts_nil, step=1e-3)
    checks.append(_check("minimality_residual", mres.residual, 1e-5, floor=mres.noise_floor))

    # quadratic differential: para-holomorphy and oracle value
    ar = abresch_rosenberg(spinors[theta0], pts_nil, step=1e-2)
    checks.append(_check("quadratic_differential_dzbar", ar.dzbar_residual, 1e-6))
    if oracle in _ORACLE_B and theta0 == 0.0:
        b_err = _worst([b.re - _ORACLE_B[oracle] for b in ar.B], [b.im for b in ar.B])
        checks.append(_check(f"quadratic_differential_value[{oracle}]", b_err, 1e-7))

    # flat connection family
    flat = flatness_residual(
        h,
        pipeline.potential.Q.eval,
        pipeline.potential.R.eval,
        pts_nil,
        _LAMBDA_THETAS,
    )
    checks.append(_check("flat_connection_residual", flat, 1e-8))

    # Sym gauge invariance under a mu-independent diagonal field
    d = np.array([math.exp(0.3 * math.sin(s + 0.7) * math.cos(t - 0.3)) for s, t in pts])
    frames = pipeline.frames_at(pts)[0]
    gauged = np.stack(_sym_rows(_scale_rows(frames, d), theta0), axis=1)
    gauge_err = pipeline.surfaces_at(pts, theta0) - gauged
    checks.append(_check("sym_gauge_invariance", _worst(gauge_err), 1e-12))

    # round trip through the normalized potential; with a non-identity
    # initial frame the surface's own normalized data differs from the
    # configured one, so the comparison is only meaningful without it
    if pipeline.initial_frame is None:
        _, rt_err = roundtrip_errors(pipeline, np.linspace(-0.4, 0.4, 5))
        checks.append(_check("normalized_potential_roundtrip", rt_err, 1e-7))

    # oracle surface relations
    if oracle in _ORACLE_B:
        x, y, z = np.moveaxis(sg.nil, -1, 0)
        rel = {"cylinder": z - x * y / 2.0, "hyperbolic-cylinder": z + x * y / 2.0}.get(oracle, z)
        kept = ~sg.holes
        if oracle == "horizontal-plane":  # only on its strip -1 < st < 1
            st = np.multiply.outer(sg.s_grid, sg.t_grid)
            kept &= (-1.0 < st) & (st < 1.0)
        rel_err = float(np.max(np.abs(rel), where=kept, initial=0.0))
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
