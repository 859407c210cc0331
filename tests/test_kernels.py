"""The batched loop kernels against their batch-of-one calls and against the
point-by-point algorithms they replace, bit for bit, on random twisted loops
and on a swept frame grid."""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilweier import loop_mul
from nilweier.config import BUILTINS, load_config
from nilweier import factorization
from nilweier.factorization import (
    COND_FAIL,
    COND_WARN,
    _cond_slack,
    _iwasawa_rows,
    _normalized_factor_inverses,
    _solve,
    _split_rows,
    _systems,
)
from nilweier.loopalg import (
    TailAccumulator,
    TwistedLoop,
    _clean_parity,
    _Effects,
    _inv_rows,
    _expand,
    _mask,
    _mul_rows,
    _parity_swap,
    _play,
    _shift_compact,
    _shift_masses,
    _slots,
)
from nilweier.errors import (
    GaugeFailure,
    NilWeierError,
    OutsideBigCell,
    ParityViolation,
    SingularLoop,
)
from nilweier.geometry import _sample_null
from nilweier.pipeline import _spinor_rows, _spinors, _sym_point, _sym_rows

from _oracles import (
    block_toeplitz_reference,
    grid_loop,
    normalized_factor_inverse_reference,
    random_group_loop,
    random_minus_star_loop,
    random_plus_star_loop,
    record_reference,
    shift_mul_reference,
    sym_point_reference,
)

stacks = settings(max_examples=20, deadline=None)
sizes = dict(
    N=st.sampled_from([1, 4, 9]), B=st.sampled_from([1, 3, 7]), seed=st.integers(0, 2**32 - 1)
)


def _random_stack(seed, N, B, kinds=("group", "minus", "plus")):
    """B random twisted loops; mixing kinds leaves some degrees zero in some
    items only, which the products' stack-wide zero skip must handle."""
    rng = np.random.default_rng(seed)
    make = {
        "group": random_group_loop, "minus": random_minus_star_loop, "plus": random_plus_star_loop
    }
    return np.stack([make[kinds[rng.integers(len(kinds))]](rng, N).c for _ in range(B)])


def _effects(fx, b):
    """Item b's effects in a batch of one's order: its (dropped, kept) records
    before its failure, its warnings at their places among them, then its
    error as (type name, message)."""
    effects = [tuple(r) for r in fx.records[b, : fx.ends[b]].tolist()]
    for column, message in reversed(fx.warnings[b]):
        effects.insert(column, message)
    exc = fx.failures[b]
    return effects + ([] if exc is None else [(type(exc).__name__, str(exc))])


def _one_by_one(kernel, *stacks):
    """Run `kernel` once per item, on each stack's item as a batch of one."""
    outs = []
    for b in range(len(stacks[0])):
        fx = _Effects(1)
        outs.append((kernel(*(x[b : b + 1] for x in stacks), fx), fx))
    return outs


def _reference_mul(a, b):
    """The point-by-point Cauchy product: one einsum per nonzero degree of a."""
    n = len(a)
    N = n // 2
    full = np.zeros((2 * n - 1, 2, 2))
    for m in range(n):
        if a[m].any():
            full[m : m + n] += np.einsum("ij,kjl->kil", a[m], b)
    kept = full[N : N + n]
    dropped = float(np.sqrt((full[:N] ** 2).sum() + (full[N + n :] ** 2).sum()))
    out = kept.copy()
    out[_mask(N)] = 0.0
    return out, dropped, float(np.sqrt((kept**2).sum()))


def _reference_inv(x, lower):
    """The point-by-point triangular recursion of 2x2 products."""
    N = len(x) // 2
    y = np.zeros_like(x)
    y0 = np.linalg.inv(x[N])
    y[N] = y0
    sign = -1 if lower else 1
    for k in range(1, N + 1):
        acc = np.zeros((2, 2))
        for j in range(1, k + 1):
            acc += x[N + sign * j] @ y[N + sign * (k - j)]
        y[N + sign * k] = -y0 @ acc
    y[_mask(N)] = 0.0
    return y


@stacks
@given(**sizes)
def test_cauchy_product_batch_equals_batch_of_one(N, B, seed):
    a = _random_stack(seed, N, B)
    b = _random_stack(seed + 1, N, B)
    for left in (a, np.broadcast_to(a[0], a.shape)):  # the second: one loop times every item
        fx = _Effects(B)
        out = _mul_rows(left, b, fx)
        for i, (one, fx1) in enumerate(_one_by_one(_mul_rows, left, b)):
            assert np.array_equal(out[i], one[0])
            assert _effects(fx, i) == _effects(fx1, 0)
            ref, dropped, kept = _reference_mul(left[i], b[i])
            assert np.array_equal(out[i], ref)
            assert _effects(fx, i) == [(dropped, kept)]
    # the scalar product is the batch of one
    prod = loop_mul(TwistedLoop(N, a[0]), TwistedLoop(N, b[0]))
    assert np.array_equal(prod.c, _reference_mul(a[0], b[0])[0])


@stacks
@given(**sizes, lower=st.booleans())
def test_triangular_inverse_batch_equals_batch_of_one(N, B, seed, lower):
    x = _random_stack(seed, N, B, kinds=("minus",) if lower else ("plus",))
    fx = _Effects(B)
    out = _inv_rows(x, lower, fx)
    for i, (one, fx1) in enumerate(_one_by_one(lambda v, f: _inv_rows(v, lower, f), x)):
        assert np.array_equal(out[i], one[0])
        assert np.array_equal(out[i], _reference_inv(x[i], lower))
        assert _effects(fx, i) == _effects(fx1, 0) == []


def _shear_stack(seed, N, B, lower):
    """B products of diag(d, +-1/d) and up to three shears (I + a lam^k E),
    k in sign*{1, 3}: inverses and products of such loops have exact zeros
    on parity, whose signs the kernels must keep."""
    rng = np.random.default_rng(seed)
    E = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    sign = -1 if lower else 1
    out = []
    for _ in range(B):
        d = rng.choice([-1.0, 1.0]) * np.exp(0.3 * rng.normal())
        loop = TwistedLoop.from_terms(N, {0: np.diag([d, rng.choice([-1.0, 1.0]) / d])})
        for _ in range(rng.integers(0, 4)):
            k = sign * (3 if N >= 3 and rng.random() < 0.5 else 1)
            shear = TwistedLoop.from_terms(N, {0: np.eye(2), k: rng.normal() * E[rng.integers(2)]})
            loop = loop_mul(shear, loop) if rng.random() < 0.5 else loop_mul(loop, shear)
        out.append(loop.c)
    return np.stack(out)


@pytest.mark.parametrize("N", [16, 20, 48])
def test_kernels_at_the_workloads_truncations_equal_the_dense_references(N):
    """At the truncations the workloads run, where the sums over j hold more
    than 8 terms, the bytes (values and signs of zeros) of each item are
    those of the point-by-point dense algorithms."""
    for seed in range(2):
        a = np.concatenate([_random_stack(seed, N, 4), _shear_stack(seed, N, 2, seed == 0)])
        b = np.concatenate(
            [_random_stack(seed + 7, N, 4), _shear_stack(seed + 7, N, 2, seed == 1)]
        )
        for left in (a, np.broadcast_to(a[0], a.shape)):
            fx = _Effects(len(b))
            out = _mul_rows(left, b, fx)
            for i in range(len(b)):
                ref, dropped, kept = _reference_mul(left[i], b[i])
                assert out[i].tobytes() == ref.tobytes()
                assert _effects(fx, i) == [(dropped, kept)]
        for lower in (True, False):
            kinds = ("minus",) if lower else ("plus",)
            x = np.concatenate(
                [_random_stack(seed, N, 3, kinds=kinds), _shear_stack(seed, N, 3, lower)]
            )
            out = _inv_rows(x, lower, _Effects(len(x)))
            for i in range(len(x)):
                assert out[i].tobytes() == _reference_inv(x[i], lower).tobytes()


@stacks
@given(**sizes, level=st.sampled_from([1e-13, 1e-9, 1e-6]))
def test_parity_clean_batch_equals_batch_of_one(N, B, seed, level):
    rng = np.random.default_rng(seed)
    c = _random_stack(seed, N, B)
    # off-parity noise around the tolerance, of a different size per item
    c = c + _mask(N) * rng.normal(size=c.shape) * level * rng.uniform(0.1, 10.0, size=(B, 1, 1, 1))
    fx = _Effects(B)
    out = _clean_parity(c, N, fx)
    for i, (one, fx1) in enumerate(_one_by_one(lambda v, f: _clean_parity(v, N, f), c)):
        assert np.array_equal(out[i], one[0])
        assert _effects(fx, i) == _effects(fx1, 0)
        assert fx.alive[i] == fx1.alive[0]
    assert not out[:, _mask(N)].any()


@stacks
@given(**sizes, sign=st.sampled_from([-1, 1]))
def test_normalized_factor_inverse_batch_equals_batch_of_one(N, B, seed, sign):
    w = _random_stack(seed, N, B, kinds=("group",))
    fx = _Effects(B)
    u, conds = _normalized_factor_inverses(w, sign, fx)
    for i, ((u1, c1), fx1) in enumerate(
        _one_by_one(lambda v, f: _normalized_factor_inverses(v, sign, f), w)
    ):
        assert np.array_equal(u[i], u1[0])
        assert conds[i] == c1[0]
        assert _effects(fx, i) == _effects(fx1, 0)


def _nearly_singular(rng, delta, N):
    """A twisted loop whose block-Toeplitz systems have cond of order 1/delta:
    w_0 = diag(a, delta*b), w_{+-2} = diag(c, delta*d) and w_{+-1} of size
    delta, so that every row (k, J = 1) of a system is of size delta."""
    r = lambda: 0.3 * rng.normal()  # noqa: E731
    w = np.zeros((2 * N + 1, 2, 2))
    w[N] = np.diag([1.0 + r(), delta * (1.0 + r())])
    for k in (-1, 1):
        w[N + k] = [[0.0, delta * r()], [delta * r(), 0.0]]
    for k in (-2, 2):
        w[N + k] = np.diag([r(), delta * r()])
    return w


def _mixed_stack(N=4):
    """Healthy loops between items that fail or warn, each in its own way.
    Returns (stack, {index: kind})."""
    rng = np.random.default_rng(5)
    healthy = [random_group_loop(rng, N).c for _ in range(4)]
    nan = healthy[0].copy()
    nan[N + 1, 0, 1] = np.nan
    zero = np.zeros((2 * N + 1, 2, 2))
    singular = np.zeros((2 * N + 1, 2, 2))
    singular[N] = np.diag([1.0, 0.0])
    above_fail = _nearly_singular(rng, 1e-15, N)
    above_warn = _nearly_singular(rng, 1e-12, N)
    off_parity = healthy[2].copy()
    off_parity[N, 0, 1] = 1e-3
    items = [
        healthy[0], nan, healthy[1], zero, singular, healthy[2], above_fail, above_warn,
        healthy[3], off_parity,
    ]
    kinds = {1: "nan", 3: "zero", 4: "singular", 6: "above_fail", 7: "above_warn", 9: "off_parity"}
    return np.stack(items), kinds


# the effects of the mixed stack's items, recorded with one np.linalg.cond and
# one np.linalg.solve per item, before the systems were conditioned from their
# parity blocks and solved as one stack
_SINGULAR_INF = [("OutsideBigCell", "block-Toeplitz system is singular (cond=inf)")]
_MIXED_EFFECTS = {
    -1: {
        "nan": _SINGULAR_INF,
        "zero": _SINGULAR_INF,
        "singular": _SINGULAR_INF,
        "above_fail": [("OutsideBigCell", "block-Toeplitz system is singular (cond=1.512e+15)")],
        "above_warn": ["factorization near big-cell boundary: cond=2.821e+12"],
        "off_parity": [
            ("ParityViolation", "twisting parity violated: off-parity mass 7.694e-06 vs scale 1.000e+00")
        ],
    },
    +1: {
        "nan": _SINGULAR_INF,
        "zero": _SINGULAR_INF,
        "singular": _SINGULAR_INF,
        "above_fail": [("OutsideBigCell", "block-Toeplitz system is singular (cond=1.533e+15)")],
        "above_warn": ["factorization near big-cell boundary: cond=2.821e+12"],
        "off_parity": [
            ("ParityViolation", "twisting parity violated: off-parity mass 4.384e-05 vs scale 1.000e+00")
        ],
    },
}


@pytest.mark.parametrize("sign", [-1, 1])
def test_failing_items_leave_the_stack_as_their_batches_of_one(sign):
    """A NaN item fails a stacked SVD, a singular one a stacked solve, and a
    zero block's half-block ratio is 0/0: none of them may change another
    item, and each keeps the effects one np.linalg.cond per item gave."""
    w, kinds = _mixed_stack()
    n = w.shape[1] - 1
    fx = _Effects(len(w))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from 0/0 or inf
        u, conds = _normalized_factor_inverses(w, sign, fx)
    for i, ((u1, c1), fx1) in enumerate(
        _one_by_one(lambda v, f: _normalized_factor_inverses(v, sign, f), w)
    ):
        assert u[i].tobytes() == u1[0].tobytes()
        assert conds[i] == c1[0]
        assert _effects(fx, i) == _effects(fx1, 0)
        ref_u, ref_cond = normalized_factor_inverse_reference(w[i], sign)
        if i in kinds:
            assert _effects(fx, i) == _MIXED_EFFECTS[sign][kinds[i]]
            assert conds[i] == ref_cond  # np.linalg.cond's own value
        else:
            assert _effects(fx, i) == []
            assert abs(1.0 / conds[i] - 1.0 / ref_cond) <= _cond_slack(n)
        if not _effects(fx, i) or kinds.get(i) == "above_warn":
            assert u[i].tobytes() == ref_u.tobytes()
    assert COND_WARN < conds[7] < COND_FAIL < conds[6] < np.inf


def test_a_singular_item_does_not_fail_the_stacked_solve():
    rng = np.random.default_rng(2)
    loops = [random_group_loop(rng, 3).c for _ in range(3)]
    systems, rhs = map(np.stack, zip(*(block_toeplitz_reference(w, -1) for w in loops)))
    systems[1, :, 0] = 0.0  # exactly singular
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(systems, rhs)
    sol, singular = _solve(systems, rhs)
    assert singular.tolist() == [False, True, False]
    for b in (0, 2):
        assert sol[b].tobytes() == np.linalg.solve(systems[b], rhs[b]).tobytes()


@pytest.mark.parametrize("sign", [-1, 1])
def test_the_solve_fails_its_singular_and_non_finite_items_only(sign, monkeypatch):
    """One batch with an item past COND_FAIL, an item the stacked solve flags
    as singular (a wrapped `_solve` marks its system: no finite system at
    cond <= COND_FAIL is singular), an item whose degree sign*N coefficient
    is infinite (it enters the right-hand side but no system, so the solve
    gives non-finite values), an item past a patched COND_WARN, and healthy
    items.  Each failure has its message and conditioning and leaves
    U = id, the warning sits at its column, and every other item is its
    batch of one, bit for bit."""
    N = 4
    rng = np.random.default_rng(11)
    healthy = [random_group_loop(rng, N).c for _ in range(4)]
    infinite = random_group_loop(rng, N).c.copy()
    infinite[N + sign * N, 0, 0] = np.inf  # an even degree: diagonal
    w = np.stack([
        _nearly_singular(rng, 1e-15, N), healthy[0], random_group_loop(rng, N).c, healthy[1],
        infinite, _nearly_singular(rng, 1e-6, N), healthy[2], healthy[3],
    ])
    fatal, marked, inf_item, warned = 0, 2, 4, 5
    marked_system = _systems(w[marked : marked + 1], sign)[0][0]

    def marking(systems, rhs):
        sol, singular = _solve(systems, rhs)
        return sol, singular | np.array([np.array_equal(x, marked_system) for x in systems], bool)

    monkeypatch.setattr(factorization, "_solve", marking)
    monkeypatch.setattr(factorization, "COND_WARN", 1e3)
    fx = _Effects(len(w))
    fx.record(np.zeros(len(w)), np.ones(len(w)))  # so that the warning's column is 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, conds = _normalized_factor_inverses(w, sign, fx)
    failures = {
        fatal: f"block-Toeplitz system is singular (cond={conds[fatal]:.3e})",
        marked: "block-Toeplitz system is singular",
        inf_item: "block-Toeplitz solve produced non-finite values",
    }
    assert conds[fatal] > COND_FAIL and np.isfinite(conds[[marked, inf_item]]).all()
    assert np.flatnonzero(~fx.alive).tolist() == sorted(failures)
    for b, message in failures.items():
        exc = fx.failures[b]
        assert type(exc) is OutsideBigCell and str(exc) == message
        assert exc.conditioning == conds[b] and fx.ends[b] == 1
        assert u[b].tobytes() == TwistedLoop.identity(N).c.tobytes()
    message = f"factorization near big-cell boundary: cond={conds[warned]:.3e}"
    assert [b for b in range(len(w)) if fx.warnings[b]] == [warned]
    assert fx.warnings[warned] == [(1, message)]
    for i, ((u1, c1), fx1) in enumerate(
        _one_by_one(lambda v, f: _normalized_factor_inverses(v, sign, f), w)
    ):
        assert conds[i] == c1[0]
        assert (type(fx.failures[i]), str(fx.failures[i])) == (
            type(fx1.failures[0]), str(fx1.failures[0])
        )
        if i not in failures:
            assert u[i].tobytes() == u1[0].tobytes()
            assert fx.warnings[i] == [(1, m) for _, m in fx1.warnings[0]]


def test_iwasawa_rows_pair_each_item_with_its_own_phi_s():
    """Nine Phi_t against four distinct Phi_s, indexed per item: every output
    and effect of an item equals its batch of one, the four are inverted as
    one stack, and an inverse that fails (a singular degree-0 coefficient,
    an off-parity entry) fails exactly the items that share that Phi_s."""
    rng = np.random.default_rng(3)
    N = 4
    phi_s = np.stack([random_minus_star_loop(rng, N).c for _ in range(4)])
    phi_s[1, N, 0, 0] = 0.0
    phi_s[2, N - 1, 0, 0] = 1e-3  # odd degrees hold no diagonal entry
    phi_t = np.stack([random_plus_star_loop(rng, N).c for _ in range(9)])
    index = np.array([0, 1, 2, 3, 1, 0, 2, 3, 0])
    inversions = []

    def counted(x, lower, fx):
        if lower:
            inversions.append(len(x))
        return _inv_rows(x, lower, fx)

    fx = _Effects(len(phi_t))
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        mp.setattr(factorization, "_inv_rows", counted)
        stacked = _iwasawa_rows(phi_s, index, phi_t, fx)
    assert inversions == [4]
    for b, p in enumerate(index):
        one = _Effects(1)
        alone = _iwasawa_rows(phi_s[p : p + 1], np.zeros(1, int), phi_t[b : b + 1], one)
        assert [x[b].tobytes() for x in stacked] == [x[0].tobytes() for x in alone]
        assert _effects(fx, b) == _effects(one, 0)
    failed = {b: _effects(fx, b)[-1][0] for b in np.flatnonzero(~fx.alive)}
    assert failed == {
        1: "SingularLoop", 4: "SingularLoop", 2: "ParityViolation", 6: "ParityViolation"
    }


def _factorable_stack(seed, N, B):
    """B loops M D P: M a product of up to N twisted shears (I + a lam^-1 E),
    D = diag(d, 1/d), P a product of up to N shears (I + a lam E).  Both
    factors and their inverses are polynomials of degree <= N, so the split
    is exact within the truncation."""
    rng = np.random.default_rng(seed)
    E = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    out = []
    for _ in range(B):
        d = np.exp(0.3 * rng.normal())
        loop = TwistedLoop.from_terms(N, {0: np.diag([d, 1.0 / d])})
        for _ in range(rng.integers(0, N + 1)):
            shear = {0: np.eye(2), -1: 0.5 * rng.normal() * E[rng.integers(2)]}
            loop = loop_mul(TwistedLoop.from_terms(N, shear), loop)
        for _ in range(rng.integers(0, N + 1)):
            shear = {0: np.eye(2), 1: 0.5 * rng.normal() * E[rng.integers(2)]}
            loop = loop_mul(loop, TwistedLoop.from_terms(N, shear))
        out.append(loop.c)
    return np.stack(out)


@stacks
@given(**sizes, sign=st.sampled_from([-1, 1]))
def test_birkhoff_factors_multiply_back(N, B, seed, sign):
    w = _factorable_stack(seed, N, B)
    fx = _Effects(B)
    minus, plus, _ = _split_rows(w, sign, fx)
    assert fx.alive.all()
    for i in range(B):
        left, right = (minus[i], plus[i]) if sign < 0 else (plus[i], minus[i])
        recon = loop_mul(TwistedLoop(N, left), TwistedLoop(N, right))
        loop = TwistedLoop(N, w[i])
        assert (recon - loop).norm() <= 1e-10 * loop.norm()


@stacks
@given(N=st.sampled_from([1, 4, 8, 20]), seed=sizes["seed"], deg=st.sampled_from([-1, 1]))
def test_shift_mul_equals_one_einsum(N, seed, deg):
    """`TwistedLoop.shift_mul`, a `loop_mul` by the single-term loop
    lam^deg A, gives the values, signs of zeros and tail masses of one
    `np.einsum` product; the loop and the off-diagonal A hold +0.0 and -0.0.
    An A that is not twisted at deg, or a nonzero one past the truncation,
    raises as `TwistedLoop.from_terms` does."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(2 * N + 1, 2, 2))
    c[rng.random(c.shape) < 0.2] = 0.0
    c[rng.random(c.shape) < 0.5] *= -1.0
    c[_mask(N)] = 0.0
    loop = TwistedLoop(N, c)
    A = np.zeros((2, 2))
    A[0, 1], A[1, 0] = rng.normal(size=2) * (rng.random(2) < 0.7)
    A[rng.random(A.shape) < 0.5] *= -1.0
    tail = TailAccumulator(bound=math.inf)
    out = loop.shift_mul(A, deg, tail).c
    ref, ref_dropped, ref_kept = shift_mul_reference(loop.c, A, deg)
    assert out.tobytes() == ref.tobytes() and np.array_equal(np.signbit(out), np.signbit(ref))
    assert (tail.dropped, tail.kept) == (ref_dropped, ref_kept)
    with pytest.raises(ParityViolation):
        loop.shift_mul(np.diag([1.0, -2.0]), deg)
    with pytest.raises(ValueError, match=f"degree {N + 1} outside truncation"):
        loop.shift_mul(np.array([[0.0, 1.0], [0.0, 0.0]]), N + 1)


@pytest.mark.parametrize(
    "where, bad",
    [(None, None), ("overflow", 1e300)]
    + [(w, v) for w in ("dropped", "kept", "A") for v in (np.inf, -np.inf, np.nan)],
)
@stacks
@given(**sizes)
def test_compact_shift_equals_shift_rows(where, bad, N, B, seed):
    """One stack of items shifted by lam^-1, stored in ascending degrees, and
    by lam^+1, stored in descending ones: `_shift_compact`'s entries are the
    shifted rows of `shift_mul_reference`, one `np.einsum` product per item,
    as bytes, and `_shift_masses` its masses, as float.hex.  Entries and A
    hold +0.0 and -0.0; an inf or NaN placed only in item 0's dropped degree,
    only in one of its kept degrees, or in its A makes the dense product's
    masses NaN where its off-parity entries are; finite entries whose
    products overflow (1e300 in a kept degree and in A) make them inf, not
    NaN."""
    rng = np.random.default_rng(seed)
    n = 2 * N + 1
    c = rng.normal(size=(B, n, 2, 2))
    c[rng.random(c.shape) < 0.2] = 0.0
    c[rng.random(c.shape) < 0.5] *= -1.0
    c[:, _mask(N)] = 0.0
    A = np.zeros((B, 2, 2))
    A[:, 0, 1], A[:, 1, 0] = rng.normal(size=(2, B)) * (rng.random((2, B)) < 0.8)
    A[rng.random(A.shape) < 0.3] *= -1.0
    deg = rng.choice([-1, 1], B)
    e = int(rng.integers(2))
    if where in ("A", "overflow"):
        A[0, e, 1 - e] = A[0, 1 - e, e] = bad
    if where not in (None, "A"):  # the dropped degree is -N for lam^-1, N for lam^+1
        k = (0 if deg[0] < 0 else n - 1) if where == "dropped" else int(rng.integers(1, n - 1))
        c[0, k] = np.where(_mask(N)[k], 0.0, bad)
    order = [slice(None, None, -d) for d in deg]
    x = np.stack([c[b].reshape(4 * n)[_slots(n, -N)].reshape(n, 2)[order[b]] for b in range(B)])
    a = A.reshape(B, 4)[:, 1:3]
    kept, dropped = np.zeros((B, n, 2)), np.empty((B, 2))
    at = np.stack([_slots(n, -N).reshape(n, 2)[o].ravel() for o in order]) + 4 * n * np.arange(B)[:, None]
    with np.errstate(all="ignore"):
        _shift_compact(x, a[:, _parity_swap(n)], kept, dropped)
        masses = _shift_masses(kept, dropped, at, np.zeros((B, 4 * n)), lambda: (x, a))
        refs = [shift_mul_reference(c[b], A[b], deg[b]) for b in range(B)]
    for b, (out, ref_dropped, ref_kept) in enumerate(refs):
        assert [m.hex() for m in masses[b]] == [ref_dropped.hex(), ref_kept.hex()]
        assert kept[b, -1].tobytes() == np.zeros(2).tobytes()
        shifted = _expand(kept[b : b + 1, order[b]], -N)[0]
        if b or where in (None, "overflow"):  # the dense product has +0.0 off parity
            assert shifted.tobytes() == out.tobytes()
        else:
            assert shifted[~_mask(N)].tobytes() == out[~_mask(N)].tobytes()
    if where == "overflow":
        assert np.isinf(masses[0, 1]) and not np.isnan(masses[0]).any()
    elif where is not None:
        assert np.isnan(masses[0]).any() and (where != "A" or np.isnan(masses[0]).all())


@pytest.mark.parametrize("N", [16, 20, 48])
@pytest.mark.parametrize("builtin, holes", [("horizontal-plane", 26), ("cylinder", 0)])
def test_sym_map_equals_the_scalar_sym_formulas(builtin, holes, N):
    """`sym_map`'s one `_sym_rows` call per angle gives, gridpoint by
    gridpoint, the bytes of the scalar Sym evaluation, and NaN at the holes;
    so does `_sym_point`, its batch of one.  The plane is that of the pinned
    verify reports, with 26 holes; its frames have degrees -1..1 only, so the
    cylinder, whose frames fill every degree, is what pins the order of the
    lam-sums."""
    thetas = [0.0, 0.1, -0.1, 0.19, -0.19]
    config = {
        "potential": {"builtin": builtin},
        "domain": {"sMin": -2.0, "sMax": 2.0, "tMin": -2.0, "tMax": 2.0, "ns": 11, "nt": 11},
        "truncationN": N,
        "thetas": thetas,
    }
    pipe = load_config(config).make_pipeline().run()
    fg, sg = pipe.frame_grid, pipe.surface_grid
    assert fg.holes.sum() == holes
    for k, theta in enumerate(thetas):
        for (i, j), hole in np.ndenumerate(fg.holes):
            got = [sg.nil[k, i, j], sg.l3[k, i, j], sg.normals[k, i, j]]
            if hole:
                assert [x.tobytes() for x in got] == [np.full(3, np.nan).tobytes()] * 3
                continue
            expected = sym_point_reference(grid_loop(fg, i, j), theta)
            got += _sym_point(grid_loop(fg, i, j), theta)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in expected * 2]


@pytest.mark.parametrize("N", [1, 16])
def test_kernels_take_an_empty_stack(N):
    """Each row kernel maps a stack of B = 0 items to empty stacks of the
    shapes it gives for B > 0, with no effect and no error."""
    empty = np.zeros((0, 2 * N + 1, 2, 2))
    fx = _Effects(0)
    outputs = {
        "mul": _mul_rows(empty, empty, fx),
        "inv lower": _inv_rows(empty, True, fx),
        "inv upper": _inv_rows(empty, False, fx),
        "clean parity": _clean_parity(empty, N, fx),
        "split -1": _split_rows(empty, -1, fx),
        "split +1": _split_rows(empty, +1, fx),
        "iwasawa": _iwasawa_rows(empty, np.zeros(0, int), empty, fx),
        "sym": _sym_rows(empty, 0.1),
    }
    for name, out in outputs.items():
        for item in out if isinstance(out, tuple) else (out,):
            assert isinstance(item, np.ndarray) and len(item) == 0, name
    assert fx.records.shape[0] == len(fx.failures) == len(fx.warnings) == 0 and not fx.alive.size


def _effect_calls(big=None):
    """Kernel effect calls on a batch of 6: warnings on items 1 and 4, holes
    at items 2 and 3 whose later records are NaN, a fatal error at item 5,
    and one large dropped mass at (item, column) `big`, if given."""
    dropped = np.full((4, 6), 1e-12)
    dropped[1:, 2] = dropped[2:, 3] = np.nan  # recorded after the item failed
    if big is not None:
        dropped[big[1], big[0]] = 1.0
    rows = [("record", dropped[k], np.full(6, 2.0 + k)) for k in range(4)]
    return [
        rows[0],
        ("warn", 1, "item 1 before column 1"),
        ("fail", 2, OutsideBigCell("item 2 is outside the big cell")),
        rows[1],
        ("warn", 4, "item 4 before column 2"),
        ("fail", 3, GaugeFailure("item 3 has no gauge")),
        rows[2],
        ("warn", 1, "item 1 before column 3"),
        ("warn", 3, "item 3 after its failure"),
        ("fail", 5, ParityViolation("item 5 breaks parity")),
        rows[3],
    ]


def _play_reference(calls, lo, hi, tail, holes, named):
    """Items lo..hi-1 one at a time, each as a batch of one performs its
    calls: its records one by one, its warnings, up to its failure, which is
    returned if of a type in `holes` and raised otherwise.  The item an error
    is raised at goes to `named`."""
    failures = []
    for b in range(lo, hi):
        failure = None
        for kind, *args in calls:
            if failure is not None:
                break
            if kind == "record" and tail is not None:
                try:
                    record_reference(tail, float(args[0][b]), float(args[1][b]))
                except NilWeierError:
                    named.append(b)
                    raise
            elif kind == "warn" and args[0] == b:
                warnings.warn(args[1])
            elif kind == "fail" and args[0] == b:
                failure = args[1]
        if failure is not None and not isinstance(failure, holes):
            named.append(b)
            raise failure
        failures.append(failure)
    return failures


def _play_outcome(play, tail):
    """(failures, error, warnings, account as float.hex) of one play."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            failures, error = play(), None
        except NilWeierError as exc:
            failures, error = None, (type(exc).__name__, str(exc))
    account = None if tail is None else (tail.dropped.hex(), tail.kept.hex())
    return failures, error, [str(w.message) for w in caught], account


@pytest.mark.parametrize("big", [None, (0, 0), (4, 1), (4, 2), (2, 2)])
@pytest.mark.parametrize("lo, hi", [(0, 6), (0, 5), (2, 5), (1, 2), (3, 3)])
@pytest.mark.parametrize("holes", [(OutsideBigCell, GaugeFailure), ()], ids=["holes", "fatal"])
@pytest.mark.parametrize("bound", [1e-9, None], ids=["bound", "no-tail"])
def test_a_play_performs_its_items_as_batches_of_one(big, lo, hi, holes, bound):
    """One play of a range of items leaves the failures, the first error and
    the item it names, the warnings in order and the account (as float.hex)
    of the items performed one at a time: records after an item's failure,
    NaN here, stay out, and a crossing stops the play at its record."""
    calls = _effect_calls(big)
    outcomes = []
    for reference in (False, True):
        fx = _Effects(6)
        for kind, *args in calls:
            getattr(fx, kind)(*args)
        tail = None if bound is None else TailAccumulator(bound)
        named = []
        if reference:
            play = lambda: _play_reference(calls, lo, hi, tail, holes, named)  # noqa: E731
        else:

            @contextlib.contextmanager
            def naming(b):
                try:
                    yield
                except NilWeierError:
                    named.append(b)
                    raise

            play = lambda: fx.play(lo, hi, tail, holes, naming)  # noqa: E731
        outcomes.append((_play_outcome(play, tail), named))
    assert outcomes[0] == outcomes[1]
    (failures, error, messages, account), named = outcomes[0]
    assert len(named) == (error is not None) and "nan" not in str(account)
    if (big, lo, hi, holes, bound) == (None, 0, 6, (OutsideBigCell, GaugeFailure), 1e-9):
        assert error == ("ParityViolation", "item 5 breaks parity") and named == [5]
        assert messages == [
            "item 1 before column 1", "item 1 before column 3", "item 4 before column 2"
        ]
    if (big, lo, hi, holes) == ((4, 1), 0, 6, (OutsideBigCell, GaugeFailure)) and bound:
        assert error[0] == "TruncationOverflow" and named == [4]
        assert messages == ["item 1 before column 1", "item 1 before column 3"]


_PART_MASS = st.one_of(
    st.sampled_from([0.0, 1.0, math.nan, math.inf]), st.floats(0.0, 1e-6), st.floats(0.0, 10.0)
)
_PART_FAILURES = {
    "hole": lambda i: OutsideBigCell(f"part {i} is outside the big cell"),
    "gauge": lambda i: GaugeFailure(f"part {i} has no gauge"),
    "parity": lambda i: ParityViolation(f"part {i} breaks parity"),
    "value": lambda i: ValueError(f"part {i} is not finite"),
}


@st.composite
def _ragged_parts(draw):
    """Parts no `_Effects` batch makes: empty ones, NaN and infinite masses,
    warnings at any column (in kernel order), hole-type and fatal failures."""
    parts = []
    for i in range(draw(st.integers(0, 6))):
        masses = draw(st.lists(st.tuples(_PART_MASS, _PART_MASS), max_size=5))
        columns = sorted(draw(st.lists(st.integers(0, len(masses)), max_size=3)))
        failure = draw(st.sampled_from([None, None, *_PART_FAILURES]))
        parts.append((
            np.array(masses, dtype=float).reshape(-1, 2),
            [(c, f"part {i} warns before column {c} ({k})") for k, c in enumerate(columns)],
            None if failure is None else _PART_FAILURES[failure](i),
        ))
    return parts


def _perform_reference(parts, tail, holes, naming):
    """Part after part: its masses one `record` at a time, each warning before
    the mass at its column, then its failure, returned if of a type in
    `holes` and raised otherwise; an error is raised inside `naming(part)`."""
    failures = []
    for i, (masses, warns, failure) in enumerate(parts):
        pending = list(warns)
        for k, (dropped, kept) in enumerate(masses.tolist()):
            while pending and pending[0][0] <= k:
                warnings.warn(pending.pop(0)[1])
            if tail is not None:
                with naming(i):
                    tail.record(dropped, kept)
        for _, message in pending:
            warnings.warn(message)
        if failure is not None and not isinstance(failure, holes):
            with naming(i):
                raise failure
        failures.append(failure)
    return failures


@settings(max_examples=300, deadline=None)
@given(
    parts=_ragged_parts(),
    holes=st.sampled_from([(OutsideBigCell, GaugeFailure), ()]),
    bound=st.sampled_from([None, 0.0, 1e-9, 1e-3, math.inf]),
    start=st.tuples(st.floats(0.0, 1e-8), st.floats(1e-3, 10.0)),
)
def test_a_play_of_ragged_parts_performs_them_one_after_another(parts, holes, bound, start):
    """`_play` leaves the failures, the warnings in order, the account (as
    float.hex), and the error with the part `naming` received, of performing
    the parts one after another with `record`, `warnings.warn` and `raise`;
    a crossing may fall inside a part."""
    outcomes = []
    for perform in (_play, _perform_reference):
        tail = None if bound is None else TailAccumulator(bound)
        if tail is not None:
            tail.dropped, tail.kept = start
        named = []

        @contextlib.contextmanager
        def naming(i):
            try:
                yield
            except Exception:
                named.append(i)
                raise

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                failures, error = perform(list(parts), tail, holes, naming), None
            except (NilWeierError, ValueError) as exc:
                failures, error = None, (type(exc).__name__, str(exc))
        account = None if tail is None else (tail.dropped.hex(), tail.kept.hex())
        outcomes.append((failures, error, named, [str(w.message) for w in caught], account))
    assert outcomes[0] == outcomes[1]
    failures, error, named, _, _ = outcomes[0]
    assert len(named) == (error is not None) and (failures is None) == (error is not None)
    if error is not None and error[0] == "TruncationOverflow":
        assert bound is not None


def _small_pipeline(builtin):
    """The builtin's potential on a 9x9 grid of [-0.8, 0.8]^2 at N = 12."""
    domain = {"sMin": -0.8, "sMax": 0.8, "tMin": -0.8, "tMax": 0.8, "ns": 9, "nt": 9}
    return load_config(
        {"potential": {"builtin": builtin}, "domain": domain, "truncationN": 12}
    ).make_pipeline().run()


def _hexed_rows(rows):
    return [[x.hex() for x in row] for row in np.asarray(rows).tolist()]


@pytest.mark.parametrize("builtin", BUILTINS)
def test_spinor_rows_have_the_bits_of_the_spinors_loop(builtin):
    """`_spinor_rows` gives, item for item, the float.hex of the null
    components `_sample_null` reads from `_spinors` of the same frames: at
    gridpoints and off the grid, at angles of both signs, in batches of 0, 1
    and 7 frames."""
    pipe = _small_pipeline(builtin)
    fg = pipe.frame_grid
    gridpoints = [(float(fg.s_grid[i]), float(fg.t_grid[j])) for i, j in ((1, 2), (4, 4), (7, 3))]
    off_grid = [(0.3125, -0.2175), (-0.4375, 0.1325), (0.05, 0.55), (-0.61, -0.33)]
    points = [p for pair in zip(off_grid, gridpoints + [(0.0, 0.0)]) for p in pair][:7]
    frames, h = pipe.frames_at(points)
    index = {p: k for k, p in enumerate(points)}
    assert not fg.holes.any() and len(index) == 7
    for theta in (0.0, 0.23, -0.41):
        for batch in (points[:0], points[3:4], points):
            rows = [index[p] for p in batch]
            got = _spinor_rows(frames[rows], h[rows], theta)
            assert got.shape == (len(batch), 4) and got.dtype == float
            if batch:
                field = lambda s, t: _spinors(pipe.frame_at(s, t), pipe.h_at(s, t), theta)[:2]  # noqa: E731, B023
                expected = _sample_null(field, batch, len(batch))[:, 0]
                assert _hexed_rows(got) == _hexed_rows(expected)


def test_spinor_rows_raise_the_first_error_of_the_spinors_loop():
    """Frames with det 0 or a NaN coefficient and points with h = -1 or NaN:
    in any order among good frames, the kernel raises the exception type and
    message of the `_spinors` loop, that of the first item that fails."""
    pipe = _small_pipeline("cylinder")
    N = pipe.trunc_n
    frames, h = pipe.frames_at([(0.3125, -0.2175), (0.2, 0.4), (-0.1, 0.6)])
    good = list(zip(frames, h.tolist()))
    nan_coeff = frames[0].copy()
    nan_coeff[N + 2, 0, 1] = np.nan
    bad = {
        "det 0": (np.zeros((2 * N + 1, 2, 2)), 1.0),
        "NaN coefficient": (nan_coeff, good[0][1]),
        "h = -1": (frames[1], -1.0),
        "h = NaN": (frames[1], float("nan")),
    }
    seen = set()
    for one in bad.values():
        for other in bad.values():
            batch = [good[0], one, good[1], other, good[2]]
            stack, hs = np.array([c for c, _ in batch]), np.array([h for _, h in batch])
            for theta in (0.17, -0.29):
                with pytest.raises(Exception) as loop:
                    [_spinors(TwistedLoop(N, c, enforce_parity=False), h, theta) for c, h in batch]
                with pytest.raises(Exception) as kernel:
                    _spinor_rows(stack, hs, theta)
                assert (kernel.type, str(kernel.value)) == (loop.type, str(loop.value))
                seen.add((loop.type, str(loop.value)))
    assert seen == {
        (SingularLoop, "involution of a singular matrix"),
        (ValueError, "math domain error"),
        (ValueError, "para-complex components must be finite"),
    }
