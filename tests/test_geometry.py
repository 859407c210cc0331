import math

import numpy as np
import pytest

from nilweier import ParaComplex, ProjectionPole
from nilweier.geometry import (
    abresch_rosenberg,
    first_fundamental_form,
    flatness_residual,
    gauss_from_spinors,
    lie_bracket,
    mean_curvature_L3,
    minimality_residual,
    nil_inv,
    nil_left_translate,
    nil_metric,
    nil_mul,
    pi_l3_minus,
    pi_l3_minus_inv,
    pi_nil_plus,
    spinors_and_dirac,
    sym_bracket,
)
from nilweier.pipeline import Pipeline, translate_potential

from _oracles import cylinder_nil, hyperbolic_nil, plane_nil

PTS = [(0.3, -0.2), (0.0, 0.45), (-0.35, 0.15), (0.25, 0.25), (-0.1, -0.3)]


# -- group structure -----------------------------------------------------------


def test_group_law_and_inverse():
    a = np.array([1.0, 2.0, 0.5])
    b = np.array([-0.5, 1.0, 2.0])
    prod = nil_mul(a, b)
    assert np.allclose(prod, [0.5, 3.0, 0.5 + 2.0 + 0.5 * (1.0 * 1.0 - (-0.5) * 2.0)])
    assert np.allclose(nil_mul(a, nil_inv(a)), 0.0)


def test_group_associativity_randomized():
    rng = np.random.default_rng(41)
    for _ in range(200):
        a, b, c = rng.normal(size=(3, 3))
        assert np.allclose(nil_mul(nil_mul(a, b), c), nil_mul(a, nil_mul(b, c)), atol=1e-13)


def test_metric_and_brackets():
    e1, e2, e3 = np.eye(3)
    assert nil_metric(e1, e1) == -1.0 and np.allclose(sym_bracket(e1, e1), 0.0)
    assert nil_metric(e2, e2) == 1.0 and nil_metric(e3, e3) == 1.0
    assert np.allclose(sym_bracket(e3, e3), 0.0)
    assert np.allclose(sym_bracket(e2, e3), -e1)
    assert np.allclose(sym_bracket(e1, e3), -e2)
    assert np.allclose(sym_bracket(e1, e2), 0.0)
    assert np.allclose(lie_bracket(e1, e2), e3)
    assert np.allclose(lie_bracket(e2, e3), 0.0)


def test_left_translation():
    x = np.array([2.0, -1.0, 0.3])
    v = np.array([0.5, 0.25, 1.0])
    out = nil_left_translate(x, v)
    assert np.allclose(out, [0.5, 0.25, 1.0 + 0.5 * (-1.0 * 0.5 - 2.0 * 0.25)])


# -- minimality residuals ----------------------------------------------------------


def test_horizontal_plane_is_minimal():
    # FD truncation of this closed form grows ~16 |z| away from the
    # basepoint, so the 1e-6 budget at step 1e-3 holds near the origin;
    # residual == noise floor confirms there is no genuine violation
    pts = [(0.05, -0.02), (0.0, 0.1), (-0.08, 0.03)]
    res = minimality_residual(lambda s, t: plane_nil(s, t, 0.0), pts, step=1e-3)
    assert res.residual <= 1e-6
    assert res.residual <= 10.0 * res.noise_floor


def test_generated_paraboloid_is_minimal(cyl_pipe):
    res = minimality_residual(lambda s, t: cyl_pipe.nil_at(s, t, 0.0), PTS, step=1e-3)
    assert res.residual <= 1e-5
    assert res.residual <= 10.0 * res.noise_floor


def test_perturbed_surface_detected():
    def perturbed(s, t):
        p = cylinder_nil(s, t, 0.0)
        return np.array([p[0], p[1], p[2] + p[0] ** 2 / 10.0])

    base = minimality_residual(lambda s, t: cylinder_nil(s, t, 0.0), PTS, step=1e-3)
    bad = minimality_residual(perturbed, PTS, step=1e-3)
    assert bad.residual >= 10.0 * max(base.residual, 1e-7)


# -- mean curvature ------------------------------------------------------------------


def test_mean_curvature_cylinder(cyl_pipe):
    H = mean_curvature_L3(
        lambda s, t: cyl_pipe.l3_at(s, t, 0.0),
        PTS,
        step=1e-3,
        normal_fn=lambda s, t: cyl_pipe.normal_at(s, t, 0.0),
    )
    assert np.abs(H - 0.5).max() < 1e-3


def test_mean_curvature_flat_plane_zero():
    def flat(s, t):
        return np.array([(s + t) / 2.0, (s - t) / 2.0, 0.0])

    H = mean_curvature_L3(flat, PTS, step=1e-3)
    assert np.abs(H).max() < 1e-9


def test_mean_curvature_hyperbolic(hyp_pipe):
    H = mean_curvature_L3(
        lambda s, t: hyp_pipe.l3_at(s, t, 0.0),
        PTS,
        step=1e-3,
        normal_fn=lambda s, t: hyp_pipe.normal_at(s, t, 0.0),
    )
    assert np.abs(H - 0.5).max() < 1e-3


# -- spinors and the Dirac system ------------------------------------------------------


def test_cylinder_spinors_and_dirac(cyl_pipe):
    for theta in (0.0, 0.1):
        sp = spinors_and_dirac(
            lambda s, t: cyl_pipe.spinors_at(s, t, theta)[:2],
            cyl_pipe.h_at,
            PTS,
            step=1e-3,
        )
        assert np.abs(sp.h - 1.0).max() < 1e-9
        assert sp.h_gap < 1e-9
        assert sp.dirac < 1e-6
        assert sp.dirac_potential_re < 1e-9


def test_plane_conformal_factor_from_spinors(plane_pipe):
    sp = spinors_and_dirac(
        lambda s, t: plane_pipe.spinors_at(s, t, 0.0)[:2], plane_pipe.h_at, PTS, step=1e-3
    )
    for (s, t), eu in zip(PTS, sp.eu):
        expect = 4.0 * (1.0 - s * t) / (1.0 + s * t) ** 2
        assert abs(eu - expect) < 1e-9


def test_normals_unit_and_tangent(cyl_pipe, hyp_pipe):
    for pipe in (cyl_pipe, hyp_pipe):
        for s, t in PTS:
            n = pipe.normal_at(s, t, 0.0)
            assert abs(n[0] ** 2 - n[1] ** 2 + n[2] ** 2 - 1.0) < 1e-8
            d = 1e-4
            fx = (np.asarray(pipe.l3_at(s + d, t + d, 0.0)) - pipe.l3_at(s - d, t - d, 0.0)) / (2 * d)
            assert abs(n[0] * fx[0] - n[1] * fx[1] + n[2] * fx[2]) < 1e-6


# -- quadratic differential ---------------------------------------------------------------


def test_quadratic_differential_values(cyl_pipe, hyp_pipe, plane_pipe):
    for pipe, expect in ((cyl_pipe, 1 / 16), (hyp_pipe, -1 / 16), (plane_pipe, 0.0)):
        ar = abresch_rosenberg(lambda s, t: pipe.spinors_at(s, t, 0.0)[:2], PTS)
        for b in ar.B:
            assert abs(b.re - expect) < 1e-7 and abs(b.im) < 1e-7
        assert ar.dzbar_residual < 1e-6


def test_quadratic_differential_spectral_scaling(cyl_pipe):
    theta = 0.1
    ar = abresch_rosenberg(lambda s, t: cyl_pipe.spinors_at(s, t, theta)[:2], PTS[:3])
    mu_sq = ParaComplex.from_null(math.exp(2 * theta), math.exp(-2 * theta))
    for b in ar.B:
        assert (b * mu_sq).isclose(ParaComplex(1 / 16, 0.0), tol=1e-7)


def test_paraholomorphy_residual_second_order():
    pot = translate_potential("1 + 0.2*z", "0.05*z", "0.05 + 0.1*z", "0.04*z")
    pipe = Pipeline(
        pot,
        np.linspace(-0.5, 0.5, 9),
        np.linspace(-0.5, 0.5, 9),
        trunc_n=14,
        steps_per_cell=16,
        thetas=(0.0,),
    ).run()
    pts = [(0.15, -0.1), (0.0, 0.2)]

    def resid(step):
        return abresch_rosenberg(
            lambda s, t: pipe.spinors_at(s, t, 0.0)[:2], pts, step=step, richardson=False
        ).dzbar_residual

    r1, r2 = resid(0.08), resid(0.04)
    assert r1 / r2 > 3.0  # second-order decay under refinement


# -- Gauss map projections -------------------------------------------------------------


def test_projection_examples():
    g = pi_nil_plus(np.array([0.0, 0.0, -1.0]))
    assert g.isclose(0)
    v = pi_l3_minus_inv(ParaComplex(0.0, 0.0))
    assert np.allclose(v, [0.0, 0.0, 1.0])
    with pytest.raises(ProjectionPole):
        pi_nil_plus(np.array([0.3, 0.1, 1.0]))
    with pytest.raises(ProjectionPole):
        pi_l3_minus(np.array([0.3, 0.1, -1.0]))


def test_spinor_gauss_map_composition_randomized():
    # composing the two stereographic projections on the spinor normal
    # reproduces (-2 Im(psi1 psi2), 2 Re(psi1 psi2), n2 + n1) / (n2 - n1)
    rng = np.random.default_rng(42)
    done = 0
    while done < 100:
        psi1 = ParaComplex(rng.normal() * 0.4, rng.normal() * 0.4)
        psi2 = ParaComplex(1.0 + rng.uniform(0, 0.5), rng.normal() * 0.3)
        n1 = (psi1 * psi1.conj()).re
        n2 = (psi2 * psi2.conj()).re
        if n2 - n1 < 0.2 or abs(n2 + n1) < 1e-3 or psi2.is_zero_divisor(1e-6):
            continue
        eu_half = 2.0 * (n2 + n1)
        prod = psi1 * psi2
        normal = np.array([-2.0 * prod.im, 2.0 * prod.re, -(n2 - n1)]) / (eu_half / 2.0)
        g = pi_nil_plus(normal)
        expect_g = gauss_from_spinors(psi1, psi2)
        assert g.isclose(expect_g, tol=1e-10)
        composed = pi_l3_minus_inv(g)
        expect = np.array([-2.0 * prod.im, 2.0 * prod.re, n2 + n1]) / (n2 - n1)
        assert np.allclose(composed, expect, atol=1e-10)
        done += 1


# -- first fundamental form -------------------------------------------------------------


def test_paraboloid_conformal_factor():
    res = first_fundamental_form(
        lambda s, t: cylinder_nil(s, t, 0.0), PTS, step=2e-4, space="nil"
    )
    assert res.residual <= 1e-7
    for (s, t), eu in zip(PTS, res.conformal_factor):
        assert abs(eu - math.cos((s + t) / 2.0) ** 2) <= 1e-7


def test_plane_conformal_factor():
    res = first_fundamental_form(
        lambda s, t: plane_nil(s, t, 0.0), PTS, step=2e-4, space="nil"
    )
    for (s, t), eu in zip(PTS, res.conformal_factor):
        expect = 16.0 * (1.0 - s * t) ** 2 / (1.0 + s * t) ** 4
        assert abs(eu - expect) <= 1e-6 * max(1.0, expect)


def test_flat_l3_plane_conformal_factor():
    def flat(s, t):
        return np.array([(s + t) / 2.0, (s - t) / 2.0, 0.0])

    res = first_fundamental_form(flat, PTS, step=1e-3, space="l3")
    assert np.abs(res.conformal_factor - 1.0).max() < 1e-12
    assert res.residual < 1e-12


# -- flat connection family ----------------------------------------------------------------


def test_flatness_residual_small(cyl_pipe, plane_pipe):
    for pipe in (cyl_pipe, plane_pipe):
        pot = pipe.potential
        pts = [(0.2, -0.15), (0.0, 0.3), (-0.25, 0.1)]
        resid = flatness_residual(
            pipe.h_at, pot.Q.eval, pot.R.eval, pts, (0.0, 0.25, -0.25, 0.5, -0.5)
        )
        assert resid <= 1e-8


def test_hyperbolic_surface_relation(hyp_pipe):
    sg = hyp_pipe.surface_grid
    assert np.nanmax(np.abs(sg.nil[..., 2] + sg.nil[..., 0] * sg.nil[..., 1] / 2.0)) < 1e-10
    for k, theta in enumerate(sg.thetas):
        for i, s in enumerate(sg.s_grid):
            for j, t in enumerate(sg.t_grid):
                assert np.allclose(sg.nil[k, i, j], hyperbolic_nil(s, t, float(theta)), atol=1e-9)
