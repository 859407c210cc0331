"""Acceptance criteria, one test per criterion, at their stated tolerances.

Every test computes its figures first, prints one PASS/FAIL line, then
asserts; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from nilweier import (
    LoopPair,
    OutsideBigCell,
    ParaComplex,
    TwistedLoop,
    birkhoff_split,
    iwasawa_double,
    loop_mul,
    mu_log_derivative,
    pair_eval,
    pc_exp,
    pc_log,
    pc_sqrt,
    epsilon_for_sqrt,
)
from nilweier.config import builtin_config
from nilweier.geometry import abresch_rosenberg, mean_curvature_L3, minimality_residual
from nilweier.pipeline import extract_normalized_potential, weierstrass_integral_L3
from nilweier.verify import safe_points

from _oracles import (
    cylinder_frame,
    cylinder_nil,
    frame_error_mod_gauge,
    grid_loop,
    plane_frame,
    random_group_loop,
    random_minus_star_loop,
    random_plus_star_loop,
)

THETAS = (0.0, 0.1, -0.1)


def _report(num, name, ok, detail):
    print(f"\nACCEPT-{num} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def cylinder_run():
    start = time.monotonic()
    pipe = builtin_config("cylinder").make_pipeline().run()
    return pipe, time.monotonic() - start


@pytest.fixture(scope="module")
def hyperbolic_run():
    return builtin_config("hyperbolic-cylinder").make_pipeline().run()


@pytest.fixture(scope="module")
def plane_run():
    return builtin_config("horizontal-plane").make_pipeline().run()


@pytest.fixture(scope="module")
def bscroll_run():
    return builtin_config("bscroll").make_pipeline().run()


def test_criterion_1_cylinder_oracle(cylinder_run):
    pipe, elapsed = cylinder_run
    t0 = time.monotonic()
    fg = pipe.frame_grid
    sg = pipe.surface_grid
    frame_err = 0.0
    for i, s in enumerate(fg.s_grid):
        for j, t in enumerate(fg.t_grid):
            frame_err = max(
                frame_err,
                frame_error_mod_gauge(grid_loop(fg, i, j), cylinder_frame, s, t, THETAS),
            )
    nil_err = float(np.nanmax(np.abs(sg.nil[..., 2] - sg.nil[..., 0] * sg.nil[..., 1] / 2.0)))
    l3_err = float(np.nanmax(np.abs(sg.l3[..., 0] ** 2 + sg.l3[..., 2] ** 2 - 1.0)))
    total = elapsed + (time.monotonic() - t0)
    ok = (
        fg.holes.sum() == 0
        and frame_err <= 1e-8
        and nil_err <= 1e-6
        and l3_err <= 1e-6
        and total <= 30.0
    )
    _report(
        1,
        "cylinder oracle",
        ok,
        f"frame={frame_err:.2e} (<=1e-8) paraboloid={nil_err:.2e} (<=1e-6) "
        f"circle={l3_err:.2e} (<=1e-6) runtime={total:.1f}s (<=30s)",
    )


def test_criterion_2_hyperbolic_cylinder(hyperbolic_run):
    pipe = hyperbolic_run
    sg = pipe.surface_grid
    rel = float(np.nanmax(np.abs(sg.nil[..., 2] + sg.nil[..., 0] * sg.nil[..., 1] / 2.0)))
    pts = safe_points(pipe, count=7)
    ar = abresch_rosenberg(lambda s, t: pipe.spinors_at(s, t, 0.0)[:2], pts)
    b_err = max(max(abs(b.re + 1.0 / 16.0), abs(b.im)) for b in ar.B)
    ok = rel <= 1e-6 and b_err <= 1e-7
    _report(
        2,
        "hyperbolic cylinder oracle",
        ok,
        f"relation={rel:.2e} (<=1e-6) B_err={b_err:.2e} (<=1e-7)",
    )


def test_criterion_3_horizontal_plane(plane_run):
    pipe = plane_run
    fg = pipe.frame_grid
    sg = pipe.surface_grid
    x3_err = frame_err = 0.0
    strip_has_holes = False
    for i, s in enumerate(fg.s_grid):
        for j, t in enumerate(fg.t_grid):
            if -1.0 < s * t < 1.0:
                strip_has_holes = strip_has_holes or bool(fg.holes[i, j])
                x3_err = max(x3_err, float(np.abs(sg.nil[:, i, j, 2]).max()))
            if not fg.holes[i, j]:
                frame_err = max(
                    frame_err,
                    frame_error_mod_gauge(grid_loop(fg, i, j), plane_frame, s, t, THETAS),
                )
    raised = False
    try:
        pipe.frame_at(1.0, -1.0)
    except OutsideBigCell:
        raised = True
    n = 12
    shear_s = TwistedLoop.from_terms(n, {0: np.eye(2), -1: [[0.0, -1.0], [0.0, 0.0]]})
    shear_t = TwistedLoop.from_terms(n, {0: np.eye(2), 1: [[0.0, 0.0], [-1.0, 0.0]]})
    try:
        iwasawa_double(shear_s, shear_t)
    except OutsideBigCell:
        pass
    else:
        raised = False
    ok = (not strip_has_holes) and x3_err <= 1e-8 and frame_err <= 1e-9 and raised
    _report(
        3,
        "horizontal plane oracle",
        ok,
        f"x3={x3_err:.2e} (<=1e-8) frame={frame_err:.2e} (<=1e-9) "
        f"big-cell edge raises={raised}",
    )


def test_criterion_4_mean_curvature_duality(cylinder_run, hyperbolic_run, plane_run):
    worst = 0.0
    for pipe in (cylinder_run[0], hyperbolic_run, plane_run):
        pts = safe_points(pipe, count=7)
        H = mean_curvature_L3(
            lambda s, t: pipe.l3_at(s, t, 0.0),
            pts,
            step=1e-3,
            normal_fn=lambda s, t: pipe.normal_at(s, t, 0.0),
        )
        worst = max(worst, float(np.abs(H - 0.5).max()))
    ok = worst <= 1e-3
    _report(4, "mean curvature 1/2 duality", ok, f"|H-0.5|={worst:.2e} (<=1e-3)")


def test_criterion_5_minimality_and_perturbation(cylinder_run):
    pipe = cylinder_run[0]
    pts = safe_points(pipe, count=7, nil_side=True)
    res = minimality_residual(lambda s, t: pipe.nil_at(s, t, 0.0), pts, step=1e-3)

    def perturbed(s, t):
        p = cylinder_nil(s, t, 0.0)
        return np.array([p[0], p[1], p[2] + p[0] ** 2 / 10.0])

    bad = minimality_residual(perturbed, pts, step=1e-3)
    ok = (
        res.residual <= 1e-5
        and res.residual <= 10.0 * res.noise_floor
        and bad.residual >= 10.0 * max(res.residual, 1e-9)
    )
    _report(
        5,
        "minimality structure equation",
        ok,
        f"residual={res.residual:.2e} (<=1e-5, <=10x floor {res.noise_floor:.2e}) "
        f"perturbed={bad.residual:.2e} (>=10x baseline)",
    )


def test_criterion_6_roundtrip(cylinder_run, hyperbolic_run, plane_run, bscroll_run):
    worst = 0.0
    runs = {
        "cylinder": cylinder_run[0],
        "hyperbolic-cylinder": hyperbolic_run,
        "horizontal-plane": plane_run,
        "bscroll": bscroll_run,
    }
    for name, pipe in runs.items():
        half = 0.4 * min(abs(pipe.s_grid[0]), pipe.s_grid[-1])
        rec = extract_normalized_potential(pipe, axis_values=np.linspace(-half, half, 5))
        pot = pipe.potential
        for k, x in enumerate(rec.axis_values):
            x = float(x)
            err = max(
                abs(rec.f[k] - pot.f.eval(x)),
                abs(rec.g[k] - pot.g.eval(x)),
                abs(rec.Q[k] - pot.Q.eval(x)) / 4.0,
                abs(rec.R[k] - pot.R.eval(x)) / 4.0,
            )
            worst = max(worst, err)
    ok = worst <= 1e-7
    _report(6, "normalized-potential round trip", ok, f"b/B error={worst:.2e} (<=1e-7)")


def test_criterion_7_bscroll(bscroll_run):
    pipe = bscroll_run
    fg = pipe.frame_grid
    err = 0.0
    for i, s in enumerate(fg.s_grid):
        for j, t in enumerate(fg.t_grid):
            phi_t = pipe.phi_t[j]
            c1 = phi_t.coeff(1)[1, 0]
            delta = 1.0 + s * c1 / 4.0
            phi_minus = TwistedLoop.from_terms(
                fg.trunc_n,
                {0: [[1.0 / delta, 0.0], [0.0, delta]], -1: [[0.0, -s / 4.0], [0.0, 0.0]]},
            )
            expected = loop_mul(phi_t, phi_minus)
            d = math.exp(fg.gauge_log[i, j])
            raw = grid_loop(fg, i, j).scale_columns(1.0 / d)
            err = max(err, float(np.abs(raw.c - expected.c).max()))
    ok = fg.holes.sum() == 0 and err <= 1e-9
    _report(7, "B-scroll frame product identity", ok, f"max error={err:.2e} (<=1e-9)")


def test_criterion_8_weierstrass_integral(cylinder_run):
    pipe = cylinder_run[0]
    sv = np.linspace(-1.0, 1.0, 9)
    tv = np.linspace(-1.0, 1.0, 9)
    vals = weierstrass_integral_L3(
        lambda s, t: pipe.spinors_at(s, t, 0.0)[:2], sv, tv
    )
    sym_vals = np.array([[pipe.l3_at(s, t, 0.0) for t in tv] for s in sv])
    diff = vals - sym_vals
    shift = diff[0, 0]
    dev = float(np.abs(diff - shift).max())
    ok = dev <= 1e-6
    _report(8, "integral representation vs Sym", ok, f"deviation={dev:.2e} (<=1e-6)")


def test_criterion_9_property_suites(cylinder_run):
    rng = np.random.default_rng(90)

    # Birkhoff / Iwasawa factor reconstruction, parity, det preservation
    worst_rec = worst_det = worst_parity = 0.0
    for _ in range(100):
        w = random_group_loop(rng, 12)
        order = "minus_star_plus" if rng.uniform() < 0.5 else "plus_star_minus"
        res = birkhoff_split(w, order)
        left, right = res.factors()
        worst_rec = max(worst_rec, (loop_mul(left, right) - w).norm() / w.norm())
        worst_parity = max(worst_parity, left.parity_error(), right.parity_error())
        worst_det = max(
            worst_det,
            abs(left.det_at(1.1) - 1.0),
            abs(right.det_at(0.9) - 1.0),
        )
        phi_s = random_minus_star_loop(rng, 12)
        phi_t = random_plus_star_loop(rng, 12)
        iw = iwasawa_double(phi_s, phi_t)
        worst_rec = max(
            worst_rec,
            (loop_mul(iw.frame, iw.vplus) - phi_s).norm() / phi_s.norm(),
            (loop_mul(iw.frame, iw.vminus) - phi_t).norm() / phi_t.norm(),
        )

    # para-complex domain laws and the square-root unit lemma
    pc_ok = True
    for _ in range(150):
        z = ParaComplex.from_null(rng.uniform(0.01, 5), rng.uniform(0.01, 5))
        w = pc_sqrt(z)
        pc_ok = pc_ok and abs((w * w - z).re) <= 1e-14 * max(1.0, abs(z.re))
        pc_ok = pc_ok and abs((w * w - z).im) <= 1e-14 * max(1.0, abs(z.im))
        u = ParaComplex(rng.normal(), rng.normal())
        pc_ok = pc_ok and pc_log(pc_exp(u)).isclose(u, tol=1e-12)
        x = ParaComplex(rng.normal(), rng.normal())
        y = ParaComplex(rng.normal(), rng.normal())
        prod = x * y
        if prod.p >= 0 and prod.q >= 0:
            eps = epsilon_for_sqrt(x, y)
            pc_sqrt(eps * x)
            pc_sqrt(eps * y)

    # Sym gauge invariance and angle-function spectral independence
    pipe = cylinder_run[0]
    from nilweier.pipeline import _sym_point

    fg = pipe.frame_grid
    worst_gauge = worst_h = 0.0
    for _ in range(100):
        i = int(rng.integers(0, len(fg.s_grid)))
        j = int(rng.integers(0, len(fg.t_grid)))
        theta = float(rng.uniform(-0.3, 0.3))
        c = float(rng.uniform(-0.5, 0.5))
        base = _sym_point(grid_loop(fg, i, j), theta)
        gauged = _sym_point(grid_loop(fg, i, j).scale_columns(math.exp(c)), theta)
        for u, v in zip(base, gauged):
            worst_gauge = max(worst_gauge, float(np.abs(u - v).max()))
        F = pair_eval(LoopPair(grid_loop(fg, i, j), grid_loop(fg, i, j)), theta)
        f21, f22 = F.entry(1, 0), F.entry(1, 1)
        h_theta = fg.h[i, j] * (f22 * f22.conj() - f21 * f21.conj()).re
        worst_h = max(worst_h, abs(h_theta - fg.h[i, j]))

    # exact mu-derivative converges against central differences at order 2
    orders = []
    for _ in range(10):
        P = LoopPair(random_group_loop(rng, 12), random_group_loop(rng, 12))
        exact = mu_log_derivative(P, 0.05)

        def fd_err(d):
            Fp, Fm, F0 = pair_eval(P, 0.05 + d), pair_eval(P, 0.05 - d), pair_eval(P, 0.05)
            dp = (Fp.p - Fm.p) / (2 * d) @ np.linalg.inv(F0.p)
            dq = -(Fp.q - Fm.q) / (2 * d) @ np.linalg.inv(F0.q)
            return max(np.abs(dp - exact.p).max(), np.abs(dq - exact.q).max())

        orders.append(math.log10(fd_err(1e-2) / fd_err(1e-3)))

    ok = (
        worst_rec <= 1e-10
        and worst_parity == 0.0
        and worst_det <= 1e-10
        and pc_ok
        and worst_gauge <= 1e-12
        and worst_h <= 1e-9
        and min(orders) >= 1.9
    )
    _report(
        9,
        "randomized property suites",
        ok,
        f"recon={worst_rec:.2e} (<=1e-10) det={worst_det:.2e} parity={worst_parity:.1e} "
        f"pc_laws={pc_ok} gauge={worst_gauge:.2e} (<=1e-12) h_theta={worst_h:.2e} (<=1e-9) "
        f"fd_order={min(orders):.2f} (>=1.9)",
    )
