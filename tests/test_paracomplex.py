import math

import numpy as np
import pytest

from nilweier import (
    DomainError,
    NoEpsilon,
    ParaComplex,
    ZeroDivisor,
    epsilon_for_sqrt,
    pc_exp,
    pc_log,
    pc_sqrt,
)

I = ParaComplex(0.0, 1.0)


def test_zero_divisor_product():
    assert (ParaComplex(1, 1) * ParaComplex(1, -1)).isclose(0)


def test_inverse_example():
    inv = 1 / ParaComplex(2, 1)
    assert inv.isclose(ParaComplex(2 / 3, -1 / 3))


def test_division_by_null_raises():
    with pytest.raises(ZeroDivisor):
        1 / ParaComplex(1, 1)


def test_conj_multiplicative_and_parts():
    rng = np.random.default_rng(1)
    for _ in range(200):
        z = ParaComplex(rng.normal(), rng.normal())
        w = ParaComplex(rng.normal(), rng.normal())
        lhs = (z * w).conj()
        rhs = z.conj() * w.conj()
        assert lhs.isclose(rhs, tol=1e-12)
        assert math.isclose(z.re, (z.p + z.q) / 2, abs_tol=1e-15)
        assert math.isclose(z.im, (z.p - z.q) / 2, abs_tol=1e-15)


def test_null_pair_roundtrip_and_componentwise_product():
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = ParaComplex(rng.normal(), rng.normal())
        back = ParaComplex.from_null(z.p, z.q)
        assert back.isclose(z, tol=1e-15)
    a, b = ParaComplex.from_null(2.0, 3.0), ParaComplex.from_null(-1.0, 4.0)
    prod = a * b
    assert prod.p == -2.0 and prod.q == 12.0


def test_modulus_form_matches_conj_multiply():
    z = ParaComplex(1.25, -0.5)
    assert math.isclose((z * z.conj()).re, z.modulus_form(), rel_tol=1e-15)
    assert abs((z * z.conj()).im) == 0.0


def test_sqrt_examples():
    assert pc_sqrt(ParaComplex(1, 0)).isclose(1)
    # null components of 5 + 3i' are (8, 2); componentwise roots give
    # (3*sqrt(2) + sqrt(2) i') / 2
    w = pc_sqrt(ParaComplex(5, 3))
    assert w.isclose(ParaComplex(3 * math.sqrt(2) / 2, math.sqrt(2) / 2), tol=1e-14)
    with pytest.raises(DomainError):
        pc_sqrt(I)


def test_sqrt_squares_back_randomized():
    rng = np.random.default_rng(3)
    count = 0
    while count < 10_000:
        p, q = rng.uniform(0, 10, size=2)
        z = ParaComplex.from_null(p, q)
        w = pc_sqrt(z)
        sq = w * w
        scale = max(abs(z.re), abs(z.im), 1e-30)
        assert abs(sq.re - z.re) <= 1e-14 * scale
        assert abs(sq.im - z.im) <= 1e-14 * scale
        count += 1


def test_exp_log_identities():
    assert pc_exp(ParaComplex(0, 0.7)).isclose(
        ParaComplex(math.cosh(0.7), math.sinh(0.7)), tol=1e-15
    )
    assert pc_log(ParaComplex(1, 0)).isclose(0)
    with pytest.raises(DomainError):
        pc_log(ParaComplex(-1, 0))
    rng = np.random.default_rng(4)
    for _ in range(300):
        z = ParaComplex(rng.normal(), rng.normal())
        assert pc_log(pc_exp(z)).isclose(z, tol=1e-12)
        w = ParaComplex.from_null(rng.uniform(0.01, 5), rng.uniform(0.01, 5))
        assert pc_exp(pc_log(w)).isclose(w, tol=1e-12)


def test_epsilon_examples():
    assert epsilon_for_sqrt(1, 1).isclose(1)
    assert epsilon_for_sqrt(I, I).isclose(I)
    assert epsilon_for_sqrt(-1, -1).isclose(ParaComplex(-1, 0))


def test_epsilon_brute_force_agreement():
    # independent oracle: try all four candidates in order
    candidates = [ParaComplex(1, 0), ParaComplex(-1, 0), I, ParaComplex(0, -1)]

    def brute(x, y):
        for eps in candidates:
            ex, ey = eps * x, eps * y
            if ex.p >= 0 and ex.q >= 0 and ey.p >= 0 and ey.q >= 0:
                return eps
        return None

    rng = np.random.default_rng(5)
    found = 0
    while found < 150:
        x = ParaComplex(rng.normal(), rng.normal())
        y = ParaComplex(rng.normal(), rng.normal())
        prod = x * y
        if prod.p < 0 or prod.q < 0:
            with pytest.raises(NoEpsilon):
                epsilon_for_sqrt(x, y)
            continue
        eps = epsilon_for_sqrt(x, y)
        assert eps.isclose(brute(x, y))
        pc_sqrt(eps * x)
        pc_sqrt(eps * y)
        found += 1


def test_nan_rejected():
    with pytest.raises(ValueError):
        ParaComplex(float("nan"), 0.0)
    with pytest.raises(ValueError):
        ParaComplex(0.0, float("inf"))
