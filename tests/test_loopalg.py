import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nilweier import (
    LoopPair,
    ParityViolation,
    TailAccumulator,
    TruncationOverflow,
    TwistedLoop,
    loop_exp,
    loop_inv,
    loop_mul,
    mu_log_derivative,
    pair_eval,
)
from nilweier.loopalg import _mask, star2

from _oracles import convolve_dense, cylinder_frame, random_group_loop


def test_identity_multiplication():
    rng = np.random.default_rng(10)
    x = random_group_loop(rng, 8)
    ident = TwistedLoop.identity(8)
    assert (loop_mul(ident, x) - x).norm() < 1e-15
    assert (loop_mul(x, ident) - x).norm() < 1e-15


def test_single_term_degree_placement():
    K = np.array([[0.0, -0.25], [0.25, 0.0]])
    lk = TwistedLoop.from_terms(6, {1: K})
    sq = loop_mul(lk, lk)
    assert np.allclose(sq.coeff(2), K @ K)
    assert sq.support() == (2, 2)


def test_mul_against_dense_convolution():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = random_group_loop(rng, 6, band=1)
        b = random_group_loop(rng, 6, band=1)
        ref = convolve_dense(a, b)
        got = loop_mul(a, b)
        for k in range(-6, 7):
            assert np.abs(got.coeff(k) - ref[k + 12]).max() < 1e-13


def test_inverse_identity_and_unipotent():
    ident = TwistedLoop.identity(5)
    assert (loop_inv(ident) - ident).norm() < 1e-14
    s = 0.7
    u = TwistedLoop.from_terms(5, {0: np.eye(2), -1: [[0.0, -s], [0.0, 0.0]]})
    uinv = loop_inv(u)
    assert np.allclose(uinv.coeff(-1), [[0.0, s], [0.0, 0.0]])
    assert np.allclose(uinv.coeff(0), np.eye(2))


def test_inverse_rejects_a_two_sided_loop():
    a = random_group_loop(np.random.default_rng(12), 12)
    assert a.support() == (-12, 12) and a.parity_error() == 0.0
    with pytest.raises(ValueError, match="half line"):
        loop_inv(a)


def test_pair_eval_identity():
    P = LoopPair.identity(6)
    for theta in (0.0, 0.4, -1.0):
        F = pair_eval(P, theta)
        assert np.allclose(F.p, np.eye(2)) and np.allclose(F.q, np.eye(2))


def test_pair_eval_cylinder_closed_form():
    # frame pair (F, F) with F = exp((s/lam + t lam) K) reconstructs the
    # rotation-type para-complex matrix [[cos w, -i' sin w], [i' sin w, cos w]]
    K = np.array([[0.0, -0.25], [0.25, 0.0]])
    s, t = 0.8, -0.5
    N = 20
    Fs = loop_exp(TwistedLoop.from_terms(N, {-1: s * K, 1: t * K}))
    P = LoopPair(Fs, Fs)
    for theta in (0.0, 0.2, -0.3):
        F = pair_eval(P, theta)
        w = (s * math.exp(-theta) + t * math.exp(theta)) / 4.0
        assert abs(F.entry(0, 0).re - math.cos(w)) < 1e-12
        assert abs(F.entry(0, 0).im) < 1e-12
        assert abs(F.entry(0, 1).im + math.sin(w)) < 1e-12
        assert abs(F.entry(0, 1).re) < 1e-12
        assert abs(F.entry(1, 0).im - math.sin(w)) < 1e-12
        assert np.allclose(F.p, cylinder_frame(s, t, math.exp(theta)), atol=1e-12)


def test_pair_eval_homomorphism_randomized():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = LoopPair(random_group_loop(rng, 16), random_group_loop(rng, 16))
        b = LoopPair(random_group_loop(rng, 16), random_group_loop(rng, 16))
        theta = rng.uniform(-0.3, 0.3)
        ab = LoopPair(loop_mul(a.slot_s, b.slot_s), loop_mul(a.slot_t, b.slot_t))
        left = pair_eval(ab, theta)
        right = pair_eval(a, theta) @ pair_eval(b, theta)
        assert (left - right).max_abs() < 1e-12


def test_mu_log_derivative_constant_is_zero():
    D = mu_log_derivative(LoopPair.identity(6), 0.3)
    assert D.max_abs() == 0.0


def test_mu_log_derivative_rotation_family():
    # F = cos(mu^-1 c) id + sin(mu^-1 c) J with J = [[0,-i'],[i',0]] has
    # mu-log-derivative -mu^-1 c J; the pair slots are exp(+-lam^{+-1} c Jr)
    c = 0.7
    Jr = np.array([[0.0, -1.0], [1.0, 0.0]])
    S = loop_exp(TwistedLoop.from_terms(16, {-1: c * Jr}))
    T = loop_exp(TwistedLoop.from_terms(16, {1: c * Jr}))
    P = LoopPair(S, T)
    for theta in (0.0, 0.25):
        D = mu_log_derivative(P, theta)
        assert np.abs(D.p + math.exp(-theta) * c * Jr).max() < 1e-13
        assert np.abs(D.q - math.exp(theta) * c * Jr).max() < 1e-13


def test_mu_log_derivative_fd_convergence_order():
    rng = np.random.default_rng(14)
    orders = []
    for _ in range(5):
        P = LoopPair(random_group_loop(rng, 12), random_group_loop(rng, 12))
        theta = 0.1
        exact = mu_log_derivative(P, theta)

        def fd_error(d):
            Fp = pair_eval(P, theta + d)
            Fm = pair_eval(P, theta - d)
            F0 = pair_eval(P, theta)
            dp = (Fp.p - Fm.p) / (2 * d) @ np.linalg.inv(F0.p)
            dq = -(Fp.q - Fm.q) / (2 * d) @ np.linalg.inv(F0.q)
            return max(np.abs(dp - exact.p).max(), np.abs(dq - exact.q).max())

        e1, e2 = fd_error(1e-2), fd_error(1e-3)
        orders.append(math.log10(e1 / e2))
    assert min(orders) >= 1.9


def test_parity_violation_is_hard_failure():
    c = np.zeros((13, 2, 2))
    c[6] = np.eye(2)
    c[7] = np.eye(2)  # odd degree with diagonal entries
    with pytest.raises(ParityViolation):
        TwistedLoop(6, c)


def test_parity_violation_survives_optimized_mode():
    # a degree-0 off-diagonal entry as large as the whole loop; under -O an
    # assert would vanish and the entry would be silently zeroed
    script = (
        "import numpy as np\n"
        "from nilweier import NilWeierError, TwistedLoop\n"
        "c = np.zeros((5, 2, 2))\n"
        "c[2] = [[1.0, 1.0], [0.0, 1.0]]\n"
        "try:\n"
        "    TwistedLoop(2, c)\n"
        "except NilWeierError:\n"
        "    print('raised')\n"
        "else:\n"
        "    print('zeroed')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "raised"


def test_product_operands_are_read_through_the_parity_check():
    rng = np.random.default_rng(21)
    a, b = random_group_loop(rng, 6), random_group_loop(rng, 6)
    noise = _mask(6) * rng.normal(size=a.c.shape)
    loud = TwistedLoop(6, a.c + 1e-6 * noise, enforce_parity=False)
    with pytest.raises(ParityViolation):
        loop_mul(loud, b)
    with pytest.raises(ParityViolation):
        loop_mul(b, loud)
    quiet = TwistedLoop(6, a.c + 1e-13 * noise, enforce_parity=False)
    expected = loop_mul(a, b).c.tobytes()
    assert loop_mul(quiet, b).c.tobytes() == expected
    assert loop_mul(b, quiet).c.tobytes() == loop_mul(b, a).c.tobytes()


def test_constructor_shares_only_a_read_only_array():
    """A writable input is copied, so the loop stays immutable; a read-only
    one cannot change, so it is shared unless the parity check cleans it."""
    rng = np.random.default_rng(22)
    c = random_group_loop(rng, 4).c.copy()
    owned = TwistedLoop(4, c, enforce_parity=False)
    c[4, 0, 0] += 1.0  # degree 0, on parity
    assert not np.shares_memory(owned.c, c) and not np.array_equal(owned.c, c)
    c.setflags(write=False)
    assert TwistedLoop(4, c, enforce_parity=False).c is c
    assert not np.shares_memory(TwistedLoop(4, c).c, c)


def test_truncation_overflow():
    big = TwistedLoop.from_terms(2, {2: np.array([[1.0, 0.0], [0.0, 1.0]])})
    tail = TailAccumulator(bound=1e-9)
    with pytest.raises(TruncationOverflow):
        loop_mul(big, big, tail)


@pytest.mark.parametrize("dropped, kept", [(math.inf, math.inf), (math.nan, 1.0)])
def test_tail_account_rejects_a_nan_relative_mass(dropped, kept):
    tail = TailAccumulator(bound=1e-9)
    with pytest.raises(TruncationOverflow):
        tail.record(dropped, kept)


def test_det_preserved_at_sampled_lambda():
    rng = np.random.default_rng(15)
    for _ in range(20):
        a = random_group_loop(rng, 12)
        for lam in (0.8, 0.9, 1.0, 1.1, 1.25):
            assert abs(a.det_at(lam) - 1.0) < 1e-10


def test_star2_involution():
    rng = np.random.default_rng(16)
    for _ in range(50):
        A = rng.normal(size=(2, 2))
        A = A / math.sqrt(abs(np.linalg.det(A)))
        B = star2(star2(A))
        assert np.allclose(B, A, atol=1e-12)
