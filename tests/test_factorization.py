import numpy as np
import pytest

from nilweier import OutsideBigCell, TwistedLoop, birkhoff_split, iwasawa_double, loop_mul
from nilweier.loopalg import _inv_triangular, loop_exp

from _oracles import (
    cylinder_frame,
    plane_frame,
    random_group_loop,
    random_minus_star_loop,
    random_plus_star_loop,
)


def _inv_lower(x):
    return _inv_triangular(x, lower=True)


def test_identity_splits_trivially():
    ident = TwistedLoop.identity(8)
    for order in ("minus_star_plus", "plus_star_minus"):
        res = birkhoff_split(ident, order)
        assert (res.minus - ident).norm() < 1e-14
        assert (res.plus - ident).norm() < 1e-14
        assert res.conditioning < 10.0


def test_normalized_factor_constant_term():
    rng = np.random.default_rng(20)
    for _ in range(20):
        w = random_group_loop(rng, 10)
        res = birkhoff_split(w, "minus_star_plus")
        assert np.allclose(res.minus.coeff(0), np.eye(2), atol=1e-11)
        res2 = birkhoff_split(w, "plus_star_minus")
        assert np.allclose(res2.plus.coeff(0), np.eye(2), atol=1e-11)


def test_reconstruction_randomized():
    rng = np.random.default_rng(21)
    for _ in range(100):
        w = random_group_loop(rng, 12)
        order = "minus_star_plus" if rng.uniform() < 0.5 else "plus_star_minus"
        res = birkhoff_split(w, order)
        left, right = res.factors()
        recon = loop_mul(left, right)
        assert (recon - w).norm() <= 1e-10 * w.norm()
        assert left.parity_error() == 0.0 and right.parity_error() == 0.0
        for lam in (0.8, 1.0, 1.25):
            assert abs(left.det_at(lam) - 1.0) < 1e-10
            assert abs(right.det_at(lam) - 1.0) < 1e-10


def test_bscroll_minus_factor_closed_form():
    # For Phi_s = [[1, -lam^{-1} s/4], [0, 1]] and any twisted loop Phi_t in
    # Lambda^+ with identity constant term, the minus factor of
    # W = Phi_s^{-1} Phi_t is the inverse of the shear
    # Phi_minus = [[(1 + s c1/4)^{-1}, -lam^{-1} s/4], [0, 1 + s c1/4]],
    # c1 = lam^1 (2,1)-coefficient of Phi_t.
    rng = np.random.default_rng(23)
    N = 14
    for _ in range(10):
        s = rng.uniform(-1, 1)
        phi_s = TwistedLoop.from_terms(N, {0: np.eye(2), -1: [[0.0, -s / 4.0], [0.0, 0.0]]})
        phi_t = random_plus_star_loop(rng, N)
        c1 = phi_t.coeff(1)[1, 0]
        w = loop_mul(_inv_lower(phi_s), phi_t)
        res = birkhoff_split(w, "plus_star_minus")
        delta = 1.0 + s * c1 / 4.0
        phi_minus = TwistedLoop.from_terms(
            N, {0: [[1.0 / delta, 0.0], [0.0, delta]], -1: [[0.0, -s / 4.0], [0.0, 0.0]]}
        )
        resid = loop_mul(res.minus, phi_minus) - TwistedLoop.identity(N)
        assert resid.norm() < 1e-11


def test_iwasawa_cylinder_closed_form():
    N = 20
    K = np.array([[0.0, -0.25], [0.25, 0.0]])
    s, t = 0.9, 0.4
    phi_s = loop_exp(TwistedLoop.from_terms(N, {-1: s * K}))
    phi_t = loop_exp(TwistedLoop.from_terms(N, {1: t * K}))
    res = iwasawa_double(phi_s, phi_t)
    for lam in (0.8, 1.0, 1.2):
        assert np.abs(res.frame.eval(lam) - cylinder_frame(s, t, lam)).max() < 1e-12
    assert (loop_mul(res.frame, res.vplus) - phi_s).norm() < 1e-11
    assert (loop_mul(res.frame, res.vminus) - phi_t).norm() < 1e-11
    assert np.allclose(res.vplus.coeff(0), np.eye(2), atol=1e-12)


def test_iwasawa_plane_modulo_gauge():
    N = 12
    s, t = 0.7, 0.5
    phi_s = TwistedLoop.from_terms(N, {0: np.eye(2), -1: [[0.0, -s], [0.0, 0.0]]})
    phi_t = TwistedLoop.from_terms(N, {0: np.eye(2), 1: [[0.0, 0.0], [t, 0.0]]})
    res = iwasawa_double(phi_s, phi_t)
    lam = 1.0
    M = res.frame.eval(lam)
    E = plane_frame(s, t, lam)
    d = E[0, 0] / M[0, 0]
    gauged = M.copy()
    gauged[:, 0] *= d
    gauged[:, 1] /= d
    assert np.abs(gauged - E).max() < 1e-12


def test_iwasawa_outside_big_cell():
    N = 12
    s, t = 1.0, -1.0  # shear pair degenerates exactly at s*t = -1
    phi_s = TwistedLoop.from_terms(N, {0: np.eye(2), -1: [[0.0, -s], [0.0, 0.0]]})
    phi_t = TwistedLoop.from_terms(N, {0: np.eye(2), 1: [[0.0, 0.0], [t, 0.0]]})
    with pytest.raises(OutsideBigCell):
        iwasawa_double(phi_s, phi_t)


def test_iwasawa_rejects_a_phi_s_outside_the_minus_group():
    N = 6
    phi_s = TwistedLoop.from_terms(N, {0: np.eye(2), -1: [[0.0, -1.0], [0.0, 0.0]]})
    phi_t = TwistedLoop.from_terms(N, {0: np.eye(2), 1: [[0.0, 0.0], [0.5, 0.0]]})
    iwasawa_double(phi_s, phi_t)
    bad = phi_s + TwistedLoop.from_terms(N, {1: [[0.0, 1e-3], [0.0, 0.0]]})
    with pytest.raises(ValueError, match="positive-degree"):
        iwasawa_double(bad, phi_t)


def test_iwasawa_reconstruction_randomized():
    rng = np.random.default_rng(22)
    for _ in range(100):
        phi_s = random_minus_star_loop(rng, 12)
        phi_t = random_plus_star_loop(rng, 12)
        res = iwasawa_double(phi_s, phi_t)
        err_s = (loop_mul(res.frame, res.vplus) - phi_s).norm()
        err_t = (loop_mul(res.frame, res.vminus) - phi_t).norm()
        scale = max(phi_s.norm(), phi_t.norm())
        assert err_s <= 1e-10 * scale
        assert err_t <= 1e-10 * scale
        assert res.frame.parity_error() == 0.0


def test_conditioning_reported_and_grows_near_boundary():
    N = 10
    conds = []
    for st in (0.0, -0.9, -0.99):
        s, t = 1.0, st
        phi_s = TwistedLoop.from_terms(N, {0: np.eye(2), -1: [[0.0, -s], [0.0, 0.0]]})
        phi_t = TwistedLoop.from_terms(N, {0: np.eye(2), 1: [[0.0, 0.0], [t, 0.0]]})
        conds.append(iwasawa_double(phi_s, phi_t).conditioning)
    assert all(np.isfinite(c) and c >= 1.0 for c in conds)
    assert conds[2] > conds[1] > conds[0]
