import dataclasses
import math

import numpy as np
import pytest

from nilweier import DegenerateMetric, ParaComplex, ProjectionPole, geometry
from nilweier.geometry import (
    abresch_rosenberg,
    first_fundamental_form,
    flatness_residual,
    flatness_stencil,
    gauss_from_spinors,
    lie_bracket,
    mean_curvature_L3,
    minimality_residual,
    minimality_stencil,
    nil_inv,
    nil_left_translate,
    nil_metric,
    nil_mul,
    pi_l3_minus,
    pi_l3_minus_inv,
    pi_nil_plus,
    spinors_and_dirac,
    sym_bracket,
    xy_stencil,
)
from nilweier.config import builtin_config
from nilweier.pipeline import Pipeline, translate_potential
from nilweier.verify import _check

from _oracles import (
    abresch_rosenberg_reference,
    cylinder_l3,
    cylinder_nil,
    first_fundamental_form_reference,
    flatness_residual_reference,
    hyperbolic_nil,
    mean_curvature_L3_reference,
    minimality_residual_reference,
    plane_nil,
    resolves_dirac_potential_reference,
    spinors_and_dirac_reference,
)

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


EPS = np.finfo(float).eps


@pytest.mark.parametrize("builtin", ["cylinder", "hyperbolic-cylinder", "bscroll"])
def test_the_spinors_gauss_map_is_the_unit_normal_in_de_sitter_space(builtin):
    """The Gauss map N = pi_l3_minus_inv(gauss_from_spinors(psi1, psi2)) of
    the engine's spinors is the L3 unit normal of the Sym formulas, and lies
    on the de Sitter sphere N1^2 - N2^2 + N3^2 = 1, on a 5x5 patch of
    [-0.8, 0.8]^2 at two spectral angles."""
    pipe = builtin_config(builtin).make_pipeline()
    xs = np.linspace(-0.8, 0.8, 5).tolist()
    points = [(s, t) for s in xs for t in xs]
    pipe.frames_at(points)
    for theta in (0.0, 0.15):
        for s, t in points:
            normal = pipe.normal_at(s, t, theta)
            N = pi_l3_minus_inv(gauss_from_spinors(*pipe.spinors_at(s, t, theta)[:2]))
            scale = max(1.0, float(np.abs(normal).max())) ** 2
            # Round-off bounds, no fit: N and the normal come from the same
            # frame F(lam) by two independent chains, the Sym side through
            # C = M s3 M^-1, the spinor side through the gauge mu^-+1/2
            # sqrt(h/2), the para-complex quotient and the inverse projection.
            # Each chain is at most 32 roundings deep, each of relative size
            # eps on quantities no larger than |N|^2, so they differ by at
            # most 2 * 32 eps |N|^2.  The form adds 5 roundings to the 4 of
            # each projected component, at most 16 eps |N|^2 in all.
            assert np.abs(N - normal).max() <= 64 * EPS * scale, (s, t, theta)
            assert abs(N[0] ** 2 - N[1] ** 2 + N[2] ** 2 - 1.0) <= 16 * EPS * scale, (s, t, theta)


# Central differences of the Gauss map N (the `surfaces_at` normal, which the
# test above shows is the spinors' Gauss map) at three halving steps, on the
# same 5x5 patch and angles.
GAUSS_STEPS = (0.02, 0.01, 0.005)
_PATCH_AXIS = np.linspace(-0.8, 0.8, 5).tolist()
GAUSS_PATCH = [(s, t) for s in _PATCH_AXIS for t in _PATCH_AXIS]
# The slack on a measured convergence order: that of the RK4 order test in
# test_pipeline.py, 0.3 on an order of 4, taken in proportion.
ORDER_SLACK = 0.3 / 4


def _de_sitter_form(a, b):
    """a1 b1 - a2 b2 + a3 b3 row-wise: the form of N1^2 - N2^2 + N3^2 = 1."""
    return a[:, 0] * b[:, 0] - a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _gauss_map_differences(pipe, theta, step):
    """(N, N_s, N_t, N_st, round-off of one N value) at the patch points, from
    each point's 3x3 stencil of the step.  The round-off is the chain bound
    of the test above, 32 eps |N|^2: each N value is one such chain from its
    frame."""
    offsets = [(a, b) for a in (-step, 0.0, step) for b in (-step, 0.0, step)]
    points = [(s + a, t + b) for s, t in GAUSS_PATCH for a, b in offsets]
    N = pipe.surfaces_at(points, theta)[:, 2].reshape(len(GAUSS_PATCH), 3, 3, 3)
    N_s = (N[:, 2, 1] - N[:, 0, 1]) / (2.0 * step)
    N_t = (N[:, 1, 2] - N[:, 1, 0]) / (2.0 * step)
    N_st = (N[:, 2, 2] - N[:, 2, 0] - N[:, 0, 2] + N[:, 0, 0]) / (4.0 * step * step)
    roundoff = 32 * EPS * max(1.0, float(np.abs(N).max())) ** 2
    return N[:, 1, 1], N_s, N_t, N_st, roundoff


@pytest.mark.parametrize(
    "builtin, order", [("cylinder", None), ("hyperbolic-cylinder", None), ("bscroll", 2)]
)
def test_the_gauss_map_is_lorentz_harmonic(builtin, order):
    """N_st + <N_s, N_t> N = 0 in the null coordinates: the tangential part
    of its central-difference value is round-off on the cylinders, and on
    bscroll it falls at the differences' second order, so it vanishes in the
    limit (1.25e-5, 3.1e-6, 7.8e-7 at theta = 0)."""
    pipe = builtin_config(builtin).make_pipeline()
    for theta in (0.0, 0.15):
        residuals = []
        for step in GAUSS_STEPS:
            N, N_s, N_t, N_st, nu = _gauss_map_differences(pipe, theta, step)
            R = N_st + _de_sitter_form(N_s, N_t)[:, None] * N
            tangential = R - _de_sitter_form(R, N)[:, None] * N
            residuals.append(float(np.abs(tangential).max()))
            if order is None:
                # Round-off, no fit: N_st's four values carry nu each over
                # 4 step^2; <N_s, N_t> N carries 3 (|N_s| + |N_t|) |N| nu / step;
                # taking the tangential part multiplies by 1 + 3 |N|^2.
                n, first = np.abs(N).max(), np.abs(N_s).max() + np.abs(N_t).max()
                bound = (nu / step**2 + 3.0 * first * n * nu / step) * (1.0 + 3.0 * n * n)
                assert residuals[-1] <= bound, (theta, step, residuals[-1], bound)
        if order is not None:
            slopes = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
            assert all(abs(slope - order) <= ORDER_SLACK * order for slope in slopes), residuals


@pytest.mark.parametrize(
    "builtin, nonzero",
    [("cylinder", (25, 25)), ("hyperbolic-cylinder", (25, 25)), ("bscroll", (0, 20))],
)
def test_the_gauss_map_is_not_conformal(builtin, nonzero):
    """<N_s, N_s> and <N_t, N_t> are not both 0: the count of patch points at
    which each one is nonzero beyond its error.  They are about +-0.25 on
    the cylinders at theta = 0; on bscroll <N_s, N_s> vanishes and <N_t, N_t>
    vanishes only on the line t = 0 (5 of the 25 points).

    Each is the form of central differences, so its error falls at second
    order or faster in the step (checked where the changes exceed round-off):
    the change between the two finest steps then bounds the finest value's
    error, three times over.  Round-off adds 6 |N_x| nu / step."""
    pipe = builtin_config(builtin).make_pipeline()
    for theta in (0.0, 0.15):
        values, floors = [], []
        for step in GAUSS_STEPS:
            _, N_s, N_t, _, nu = _gauss_map_differences(pipe, theta, step)
            values.append([_de_sitter_form(N_x, N_x) for N_x in (N_s, N_t)])
            floors.append([6.0 * np.abs(N_x).max() * nu / step for N_x in (N_s, N_t)])
        values, floors = np.array(values), np.array(floors)[:, :, None]
        changes = np.abs(np.diff(values, axis=0))
        # the order is read where a change is over twice its two values' round-off
        measured = changes[1] > 2.0 * (floors[1] + floors[2])
        slopes = np.log2(changes[0][measured] / changes[1][measured])
        assert np.all(slopes >= 2.0 * (1.0 - ORDER_SLACK)), (theta, slopes.min())
        error = changes[1] + floors[2]
        counts = tuple(int(n) for n in (np.abs(values[2]) > error).sum(axis=1))
        assert counts == nonzero, (theta, counts)


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


# -- array forms against the point-by-point bodies ---------------------------------
#
# Each residual samples its stencil once and computes on arrays; the scalar
# bodies it replaced, kept in _oracles.py, fix the bits it must reproduce.


def hexed(value):
    """Every float of a result as float.hex: dataclass fields (para-complex
    values included), arrays and lists entry by entry."""
    if dataclasses.is_dataclass(value):
        return {f.name: hexed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [hexed(v) for v in value]
    return float(value).hex()


def _surfaces(pipe, space):
    """A closed-form field and an engine field in `space`, off theta = 0."""
    if space == "nil":
        return [lambda s, t: hyperbolic_nil(s, t, 0.2), lambda s, t: pipe.nil_at(s, t, 0.1)]
    return [lambda s, t: cylinder_l3(s, t, 0.2), lambda s, t: pipe.l3_at(s, t, 0.1)]


def _spinors(s, t):
    return (
        ParaComplex(0.3 * math.sin(s + 2.0 * t), 0.2 + 0.1 * s * t),
        ParaComplex(1.0 + 0.2 * math.cos(s - t), 0.3 * t),
    )


def _angle(s, t):
    return 1.0 + 0.2 * math.sin(s) * math.cos(t)


@pytest.mark.parametrize("space", ["nil", "l3"])
def test_first_fundamental_form_keeps_the_point_by_point_bits(cyl_pipe, space):
    for field in _surfaces(cyl_pipe, space):
        for step in (1e-3, 2e-4):
            got = first_fundamental_form(field, PTS, step=step, space=space)
            assert hexed(got) == hexed(first_fundamental_form_reference(field, PTS, step, space))


def test_minimality_residual_keeps_the_point_by_point_bits(cyl_pipe):
    for field in _surfaces(cyl_pipe, "nil"):
        got = minimality_residual(field, PTS, step=1e-3)
        assert hexed(got) == hexed(minimality_residual_reference(field, PTS, 1e-3))


def test_mean_curvature_keeps_the_point_by_point_bits(cyl_pipe):
    for field in _surfaces(cyl_pipe, "l3"):
        for normal_fn in (None, lambda s, t: cyl_pipe.normal_at(s, t, 0.1)):
            got = mean_curvature_L3(field, PTS, step=1e-3, normal_fn=normal_fn)
            expected = mean_curvature_L3_reference(field, PTS, 1e-3, normal_fn)
            assert hexed(got) == hexed(expected)


def test_spinors_and_dirac_keeps_the_point_by_point_bits(cyl_pipe):
    # the cylinder leaves the Dirac potential unresolved on s = -t
    pts = PTS + [(0.0, 0.0), (0.2, -0.2)]

    def engine(s, t):
        return cyl_pipe.spinors_at(s, t, 0.1)[:2]

    resolved = [resolves_dirac_potential_reference(*engine(s, t)) for s, t in pts]
    assert any(resolved) and not all(resolved)
    for spinor_fn, h_fn in ((_spinors, _angle), (engine, cyl_pipe.h_at)):
        for subset in [pts] + [[p] for p in pts]:
            got = spinors_and_dirac(spinor_fn, h_fn, subset, step=1e-3)
            expected = spinors_and_dirac_reference(spinor_fn, h_fn, subset, 1e-3)
            assert hexed(got) == hexed(expected)


@pytest.mark.parametrize("richardson", [True, False])
def test_abresch_rosenberg_keeps_the_point_by_point_bits(cyl_pipe, richardson):
    for spinor_fn in (_spinors, lambda s, t: cyl_pipe.spinors_at(s, t, 0.1)[:2]):
        got = abresch_rosenberg(spinor_fn, PTS, richardson=richardson)
        expected = abresch_rosenberg_reference(spinor_fn, PTS, richardson=richardson)
        assert hexed(got) == hexed(expected)


def test_flatness_residual_keeps_the_point_by_point_bits(cyl_pipe):
    pot = cyl_pipe.potential
    thetas = (0.0, 0.25, -0.25, 0.5, -0.5)
    closed_form = (_angle, lambda s: 0.1 * s, lambda t: 0.2 - t)
    # one point and one angle at a time too, where fewer entries compete for the max
    runs = [(PTS, thetas)] + [([p], [th]) for p in PTS for th in thetas]
    for fields in (closed_form, (cyl_pipe.h_at, pot.Q.eval, pot.R.eval)):
        for pts, ths in runs:
            got = flatness_residual(*fields, pts, ths)
            assert got.hex() == flatness_residual_reference(*fields, pts, ths).hex()


# -- a NaN field value fails the check -------------------------------------------------


def _nan_at(field, point):
    """`field`, but NaN at `point`."""

    def f(s, t):
        value = np.asarray(field(s, t), float)
        return value * np.nan if (s, t) == point else value

    return f


def test_a_nan_field_value_makes_the_residual_nan():
    """`max(worst, nan)` keeps `worst`, so a NaN at one stencil point once
    left the minimality and flatness residuals finite; each residual that a
    NaN can reach (spinor fields cannot hold one) now returns NaN."""
    nil, l3 = (lambda s, t: cylinder_nil(s, t, 0.0)), (lambda s, t: cylinder_l3(s, t, 0.0))
    point = xy_stencil(PTS, 1e-3, "nil")[7]
    assert math.isnan(first_fundamental_form(_nan_at(nil, point), PTS).residual)
    for k in (7, 30):  # read at step h, and at step 2h only
        res = minimality_residual(_nan_at(nil, minimality_stencil(PTS)[k]), PTS)
        assert math.isnan(res.residual if k < 25 else res.noise_floor)
    H = mean_curvature_L3(_nan_at(l3, xy_stencil(PTS, 1e-3, "l3")[6]), PTS)
    assert np.isnan(H[1]) and not np.isnan(np.delete(H, 1)).any()
    pot = translate_potential("1", "0", "0.0625", "0")
    h_fn = _nan_at(_angle, flatness_stencil(PTS)[40])
    assert math.isnan(flatness_residual(h_fn, pot.Q.eval, pot.R.eval, PTS, (0.0, 0.3)))


def test_a_nan_noise_floor_fails_the_check():
    """`value <= 10 * nan` is False, so a NaN floor once let the check pass on
    `value <= threshold` alone; a NaN that only the 2h sub-stencil reads
    leaves the minimality residual finite and its floor NaN."""
    assert _check("minimality_residual", 1e-7, 1e-5, floor=math.nan)["pass"] is False
    assert _check("minimality_residual", 1e-7, 1e-5, floor=0.0)["pass"] is True
    nil = lambda s, t: cylinder_nil(s, t, 0.0)  # noqa: E731
    res = minimality_residual(_nan_at(nil, minimality_stencil(PTS)[30]), PTS)
    assert math.isfinite(res.residual) and math.isnan(res.noise_floor)
    check = _check("minimality_residual", res.residual, 1e-5, floor=res.noise_floor)
    assert check["pass"] is False


# -- DegenerateMetric names the first bad point -------------------------------------------


def test_vanishing_first_fundamental_form_names_the_first_such_point():
    # constant for s < -0.2, so at PTS[2] = (-0.35, 0.15) and at no earlier point
    def field(s, t):
        return np.zeros(3) if s < -0.2 else np.array([s, 0.0, t])

    with pytest.raises(DegenerateMetric) as err:
        first_fundamental_form(field, PTS, space="l3")
    assert str(err.value) == "first fundamental form vanishes at (s=-0.35, t=0.15)"


def test_singular_first_fundamental_form_names_the_first_such_point():
    # of rank 1 for s < -0.2: f = (2x, 0, 0) in the conformal coordinates
    def field(s, t):
        return np.array([s + t, 0.0, 0.0]) if s < -0.2 else np.array([s, t, 0.0])

    with pytest.raises(DegenerateMetric) as err:
        mean_curvature_L3(field, PTS, normal_fn=lambda s, t: np.array([0.0, 0.0, 1.0]))
    assert str(err.value) == "first fundamental form singular at (s=-0.35, t=0.15)"


def test_a_timelike_automatic_normal_raises():
    # a spacelike plane: its Lorentzian normal e2 is timelike
    with pytest.raises(DegenerateMetric) as err:
        mean_curvature_L3(lambda s, t: np.array([s, 0.0, t]), PTS)
    assert str(err.value) == "surface normal is not spacelike"


# -- a field with a rows hook is read at each whole stencil in one call ---------------


class _Recorder:
    """`fn`, logging each read as ("read", name, point) into `log`; when
    `hooked`, it has a `rows` hook that logs ("rows", name, stencil) and gives
    `fn` at each point of the stencil, a spinor pair as its null components,
    as a hooked spinor field gives them."""

    def __init__(self, fn, name, log, hooked):
        self.fn, self.name, self.log = fn, name, log
        if hooked:

            def rows(stencil):
                log.append(("rows", name, _floats(stencil)))
                values = [fn(s, t) for s, t in stencil]
                if name == "spinors":
                    values = [[c for z in pair for c in (z.p, z.q)] for pair in values]
                return values

            self.rows = rows

    def __call__(self, s, t):
        self.log.append(("read", self.name, (float(s), float(t))))
        return self.fn(s, t)


def _floats(points):
    return [(float(s), float(t)) for s, t in points]


_RESIDUALS = {
    "first_fundamental_form": lambda f: first_fundamental_form(
        f("nil", lambda s, t: hyperbolic_nil(s, t, 0.2)), PTS
    ),
    "minimality_residual": lambda f: minimality_residual(
        f("nil", lambda s, t: hyperbolic_nil(s, t, 0.2)), PTS
    ),
    "mean_curvature_L3": lambda f: mean_curvature_L3(
        f("l3", lambda s, t: cylinder_l3(s, t, 0.2)), PTS
    ),
    "mean_curvature_L3 with normal_fn": lambda f: mean_curvature_L3(
        f("l3", lambda s, t: cylinder_l3(s, t, 0.2)),
        PTS,
        normal_fn=f("normal", lambda s, t: np.array([0.0, 0.0, 1.0])),
    ),
    # the Dirac potential is resolved at some of these points and not at the last
    "spinors_and_dirac": lambda f: spinors_and_dirac(
        f("spinors", _spinors), f("h", _angle), PTS + [(0.0, -1.0 / 3.0)]
    ),
    "abresch_rosenberg": lambda f: abresch_rosenberg(f("spinors", _spinors), PTS),
    "flatness_residual": lambda f: flatness_residual(
        f("h", _angle), lambda s: 0.1 * s, lambda t: 0.2 - t, PTS, (0.0, 0.3)
    ),
}


@pytest.mark.parametrize("residual", sorted(_RESIDUALS))
def test_a_hooked_field_is_handed_each_stencil_before_its_reads(residual, monkeypatch):
    """Each sampler call reads a field with a `rows` hook by one call on the
    sampler's whole stencil, and never point by point; a plain callable is
    read at the same points, in the same order, with the same result."""
    real_sample = geometry._sample
    logs, results = {}, {}
    for hooked in (True, False):
        log = logs[hooked] = []

        def sample(fn, stencil, count, read=None, log=log):
            log.append(("sample", _floats(stencil)))
            return real_sample(fn, stencil, count, read)

        monkeypatch.setattr(geometry, "_sample", sample)
        results[hooked] = _RESIDUALS[residual](
            lambda name, fn: _Recorder(fn, name, log, hooked)  # noqa: B023
        )
    hooked_log, plain_log = logs[True], logs[False]
    samples = [entry for entry in hooked_log if entry[0] == "sample"]
    rows = [entry for entry in hooked_log if entry[0] == "rows"]
    assert len(rows) >= 1
    assert hooked_log == [
        e for (_, stencil), (_, name, _) in zip(samples, rows)
        for e in [("sample", stencil), ("rows", name, stencil)]
    ]
    assert plain_log == [
        e for (_, stencil), (_, name, _) in zip(samples, rows)
        for e in [("sample", stencil)] + [("read", name, p) for p in stencil]
    ]
    assert hexed(results[True]) == hexed(results[False])
