import copy
import gc
import math
import warnings

import numpy as np
import pytest

from nilweier import (
    DegeneratePotential,
    EvalDomain,
    GaugeFailure,
    LoopPair,
    OutsideBigCell,
    ParaComplex,
    TruncationOverflow,
    TwistedLoop,
    loop_exp,
    loop_inv,
    loop_mul,
    pair_eval,
)
from nilweier import NilWeierError, factorization
from nilweier import pipeline as pipeline_module
from nilweier.loopalg import TailAccumulator, _play
from nilweier.pipeline import (
    Pipeline,
    PotentialSpec,
    _AxisFlow,
    _integrate,
    build_extended_frames,
    extract_normalized_potential,
    integrate_weierstrass_path,
    pair_potential,
    solve_frame_ode,
    translate_potential,
    weierstrass_integral_L3,
)

from _oracles import (
    FromZeroAxisFlow,
    block_toeplitz_reference,
    full_cond,
    cylinder_frame,
    frame_point_reference,
    cylinder_nil,
    extraction_reference,
    frame_error_mod_gauge,
    grid_loop,
    nil_translate_to,
    plane_frame,
    plane_nil,
    solve_axes_from_zero,
)
from nilweier.config import BUILTINS, builtin_config
from nilweier.geometry import nil_mul
from nilweier.verify import roundtrip_errors


# -- potential translation ----------------------------------------------------


def test_translate_cylinder_data():
    pot = translate_potential("1", "0", "0.0625", "0")
    for x in (-1.0, 0.0, 0.7):
        assert math.isclose(pot.f.eval(x), 1.0)
        assert math.isclose(pot.g.eval(x), 1.0)
        assert math.isclose(pot.Q.eval(x), 0.25)
        assert math.isclose(pot.R.eval(x), 0.25)
    assert np.allclose(pot.xi_s(0.3), [[0.0, -0.25], [0.25, 0.0]])
    assert np.allclose(pot.xi_t(0.3), [[0.0, -0.25], [0.25, 0.0]])


def test_translate_plane_data():
    pot = translate_potential("4", "0", "0", "0")
    assert pot.f.eval(0.2) == 4.0 and pot.g.eval(-0.4) == 4.0
    assert pot.Q.eval(0.1) == 0.0 and pot.R.eval(0.1) == 0.0
    assert np.allclose(pot.xi_s(0.0), [[0.0, -1.0], [0.0, 0.0]])
    assert np.allclose(pot.xi_t(0.0), [[0.0, 0.0], [1.0, 0.0]])


def test_translate_balanced_B_kills_R():
    # Re B = Im B makes R vanish, so the R-entry of xi_t dies
    pot = translate_potential("1", "0", "0.1", "0.1")
    assert pot.R.eval(0.5) == 0.0
    assert pot.Q.eval(0.5) == 0.8
    assert pot.xi_t(0.5)[0, 1] == 0.0


def test_degenerate_potential_rejected():
    pot = pair_potential("s", "1", "0", "0")  # f vanishes at s = 0
    with pytest.raises(DegeneratePotential) as exc:
        solve_frame_ode(pot, np.linspace(-1, 1, 5), np.linspace(-1, 1, 5), 4, 8)
    assert exc.value.gridpoint == (0.0, 0.0)


# -- holomorphic frame ODE -----------------------------------------------------


def test_ode_constant_coefficient_matches_series_exponential():
    pot = translate_potential("1", "0", "0.0625", "0")
    phi_s, _, _, _ = solve_frame_ode(
        pot, np.linspace(-1, 1, 11), np.linspace(-1, 1, 11), steps_per_cell=8, trunc_n=20
    )
    K = np.array([[0.0, -0.25], [0.25, 0.0]])
    exact = loop_exp(TwistedLoop.from_terms(20, {-1: 1.0 * K}))
    assert (phi_s[-1] - exact).norm() < 1e-10


def test_ode_nilpotent_case_exact():
    pot = translate_potential("4", "0", "0", "0")
    phi_s, phi_t, _, _ = solve_frame_ode(
        pot, np.linspace(-2, 2, 9), np.linspace(-2, 2, 9), steps_per_cell=8, trunc_n=8
    )
    s = 2.0
    expect = TwistedLoop.from_terms(8, {0: np.eye(2), -1: [[0.0, -s], [0.0, 0.0]]})
    assert (phi_s[-1] - expect).norm() < 1e-13
    expect_t = TwistedLoop.from_terms(8, {0: np.eye(2), 1: [[0.0, 0.0], [s, 0.0]]})
    assert (phi_t[-1] - expect_t).norm() < 1e-13


def test_zero_one_form_integrates_to_identity():
    flow = _AxisFlow(lambda xs: np.zeros((len(xs), 2, 2)), lambda x: np.zeros((2, 2)), -1, 6, 16.0)
    for x in (0.0, 0.5, -1.2):
        (loop,) = _loops(flow, [x])
        assert (loop - TwistedLoop.identity(6)).norm() == 0.0


# a potential that varies along both axes, so every step position matters
VARYING = translate_potential("1 + z^2/4", "z/8", "cos(z)/16", "z/32")
UNIFORM_41 = np.linspace(-2, 2, 41)
# every nonzero node has its own step size: no two share a chain
DISTINCT_H = np.array([-1.17, -0.73, -0.31, 0.0, 0.29, 0.83, 1.37])


def _state(flow, x, tail=None):
    """The coefficients at x of a `FromZeroAxisFlow` (its own account if tail
    is None), or of an `_AxisFlow`, which integrates x if it must, plays its
    node's part into `tail` (an unbounded account of its own if None) and
    hands the node out."""
    if not isinstance(flow, _AxisFlow):
        return flow.at(x, tail).c
    x = float(x)
    _integrate((flow, [x]))
    _play([flow.part(x)], TailAccumulator(math.inf) if tail is None else tail)
    flow.hand_out(x)
    return flow.state(x)


def _loops(flow, xs):
    """`TwistedLoop`s sharing an `_AxisFlow`'s states at xs, as `solve_frame_ode` builds them."""
    return [TwistedLoop(flow.N, _state(flow, x), enforce_parity=False) for x in xs]


def _handed_out(flow):
    """Whether every node of an `_AxisFlow` has been handed out once."""
    return all(records is None for _, records, *_ in flow._nodes.values())


def _chains(grid, steps_per_cell):
    """{step size h: longest step count} over the nonzero nodes of a grid."""
    spu = steps_per_cell / np.diff(grid).min()
    chains = {}
    for x in grid[grid != 0.0]:
        n = max(1, math.ceil(abs(x) * spu - 1e-12))
        chains[x / n] = max(chains.get(x / n, 0), n)
    return chains


@pytest.mark.parametrize(
    "grid, n_chains", [(UNIFORM_41, 9), (DISTINCT_H, 6)], ids=["uniform", "distinct-h"]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_axis_flow_equals_from_zero_reference(grid, n_chains, seed):
    """Chained node values and tail records equal the from-0 integration in any
    evaluation order, with off-grid calls (into another account) in between."""
    assert len(_chains(grid, 8)) == n_chains
    spu = 8 / np.diff(grid).min()
    rng = np.random.default_rng(seed)
    for coeff_rows, coeff_fn, deg in (
        (VARYING.xi_s_rows, VARYING.xi_s, -1),
        (VARYING.xi_t_rows, VARYING.xi_t, +1),
    ):
        tails = [TailAccumulator(), TailAccumulator()]  # each flow's own account
        flows = [
            _AxisFlow(coeff_rows, coeff_fn, deg, 12, spu),
            FromZeroAxisFlow(coeff_fn, deg, 12, spu, tails[1]),
        ]
        point_tails = [TailAccumulator(), TailAccumulator()]
        _integrate((flows[0], grid))
        calls = [(float(x), False) for x in rng.permutation(grid)]
        for k, x in enumerate(rng.uniform(-2.0, 2.0, 8)):
            calls.insert(int(rng.integers(0, len(calls) + 1)), (float(x), k % 2 == 0))
        calls += calls[:5]  # cached values record nothing
        for x, own_account in calls:
            new, ref = (
                _state(flow, x, point_tail if own_account else tail)
                for flow, tail, point_tail in zip(flows, tails, point_tails)
            )
            assert np.array_equal(new, ref), x
            for new_tail, ref_tail in (tails, point_tails):
                assert (new_tail.dropped, new_tail.kept) == (ref_tail.dropped, ref_tail.kept)
        assert tails[0].kept > 0.0 and point_tails[0].kept > 0.0
        assert _handed_out(flows[0])  # every chain state was handed out once


@pytest.mark.parametrize("grid", [UNIFORM_41, DISTINCT_H], ids=["uniform", "distinct-h"])
def test_solve_frame_ode_equals_from_zero_reference(grid):
    tail = TailAccumulator()
    phi_s, phi_t, _, _ = solve_frame_ode(VARYING, grid, grid, 8, 12, tail)
    ref_tail = TailAccumulator()
    ref = solve_axes_from_zero(VARYING, grid, grid, 8, 12, ref_tail)
    nodes = [(float(x), 0.0) for x in grid] + [(0.0, float(x)) for x in grid]
    assert [point for point, _ in ref] == nodes
    for new, (_, loop) in zip(phi_s + phi_t, ref, strict=True):
        assert np.array_equal(new.c, loop.c)
    assert (tail.dropped, tail.kept) == (ref_tail.dropped, ref_tail.kept)


EXP_POTENTIAL = translate_potential("exp(3*z)", "0", "exp(3*z)/4", "0")


@pytest.mark.parametrize(
    "pot, grid, bound, node",
    [
        # the potential of test_truncation_overflow_propagates: the first node
        # is its chain's longest, and the bound is crossed inside its records
        (EXP_POTENTIAL, np.linspace(-3, 3, 13), 1e-9, (-3.0, 0.0)),
        # the second node of the chain 0.5, 1.0, ..., 3.0 crosses the bound
        (EXP_POTENTIAL, np.linspace(0, 3, 7), 1e-3, (1.0, 0.0)),
        # f has no value at s = 0.15625, a mid-step of the chain 0.5, 1.0
        (
            translate_potential("2 + sqrt(100*(z-0.25)^2 - 1)", "0", "0", "0"),
            np.linspace(-1, 1, 5),
            1e-9,
            (0.5, 0.0),
        ),
    ],
    ids=["overflow-first-node", "overflow-second-node", "eval-domain-mid-step"],
)
def test_axis_errors_match_from_zero_reference(pot, grid, bound, node):
    """An error inside a chain surfaces at the first node in grid order whose
    own integration from 0 raises it, naming that node, with the same tail."""
    ref_tail = TailAccumulator(bound)
    ref_point, ref_exc = solve_axes_from_zero(pot, grid, grid, 8, 4, ref_tail)[-1]
    assert isinstance(ref_exc, (TruncationOverflow, EvalDomain)) and ref_point == node
    tail = TailAccumulator(bound)
    with pytest.raises(type(ref_exc)) as exc:
        solve_frame_ode(pot, grid, grid, 8, 4, tail)
    assert exc.value.gridpoint == node
    assert str(exc.value) == f"{ref_exc} at gridpoint (s={node[0]}, t={node[1]})"
    assert (tail.dropped, tail.kept) == (ref_tail.dropped, ref_tail.kept)


def test_potential_error_at_an_off_grid_point_names_it():
    # f has no value for |s - 0.3| < 1e-3, between the grid's step positions
    pot = translate_potential("2 + sqrt(1e6*(z-0.3)^2 - 1)", "0", "0", "0")
    grid = np.linspace(-1, 1, 5)
    pipe = Pipeline(pot, grid, grid, trunc_n=8, steps_per_cell=4).run()
    with pytest.raises(EvalDomain) as exc:
        pipe.frame_at(0.3, 0.5)
    assert exc.value.gridpoint == (0.3, 0.5)
    assert str(exc.value).endswith("at gridpoint (s=0.3, t=0.5)")


def test_axis_ode_integrates_each_chain_once(monkeypatch):
    """Each axis evaluates its potential at 3 positions per step of each
    chain's longest node (824 steps on 41 nodes), not per step of every node
    (3,360), through one row call for all its chains and no scalar `xi`
    call."""
    calls = {name: [] for name in ("xi_s", "xi_t", "xi_s_rows", "xi_t_rows")}
    for name in calls:
        original = getattr(PotentialSpec, name)

        def counted(self, x, name=name, original=original):
            calls[name].append(np.size(x))
            return original(self, x)

        monkeypatch.setattr(PotentialSpec, name, counted)
    solve_frame_ode(VARYING, UNIFORM_41, UNIFORM_41, 8, 12)
    chains = _chains(UNIFORM_41, 8)
    steps = sum(chains.values())
    assert steps == 824
    assert calls["xi_s"] == calls["xi_t"] == []
    for name in ("xi_s_rows", "xi_t_rows"):
        assert calls[name] == [3 * steps]


def _counted(coeff_rows, calls):
    def counted(xs):
        calls.extend(xs.tolist())
        return coeff_rows(xs)

    return counted


def test_stacked_stepper_equals_from_zero_reference():
    """One stack of the 41-node grid's chains and off-grid abscissae of other
    h and n: every value and tail record equals the from-0 integration, each
    chain steps once to its longest abscissa, at the from-0 positions (+0.0
    first, for either sign of h), and finished items stop."""
    spu = 8 / np.diff(UNIFORM_41).min()
    rng = np.random.default_rng(5)
    off_grid = [float(x) for x in rng.uniform(-2.0, 2.0, 12)] + [0.013, -1.9999]
    xs = [float(x) for x in UNIFORM_41] + off_grid
    for coeff_rows, coeff_fn, deg in (
        (VARYING.xi_s_rows, VARYING.xi_s, -1),
        (VARYING.xi_t_rows, VARYING.xi_t, +1),
    ):
        calls = []
        flow, tail = _AxisFlow(_counted(coeff_rows, calls), coeff_fn, deg, 12, spu), TailAccumulator()
        ref = FromZeroAxisFlow(coeff_fn, deg, 12, spu, TailAccumulator())
        _integrate((flow, xs))
        lengths = {}
        for x in xs:
            if x != 0.0:
                n = max(1, math.ceil(abs(x) * spu - 1e-12))
                lengths[x / n] = max(lengths.get(x / n, 0), n)
        positions = []
        for h, n in lengths.items():
            for k in range(n):
                pos = k * h if k else 0.0
                positions += [pos, pos + h / 2.0, pos + h]
        assert sorted(x.hex() for x in calls) == sorted(x.hex() for x in positions)
        for x in rng.permutation(xs):
            new, old = _state(flow, x, tail), ref.at(x)
            assert np.array_equal(new, old.c), x
            assert (tail.dropped, tail.kept) == (ref.tail.dropped, ref.tail.kept)
        assert _handed_out(flow) and len(calls) == 3 * sum(lengths.values())


@pytest.mark.parametrize("bound", [math.inf, 1e-9])
@pytest.mark.parametrize(
    "f, Q, records",
    [
        ("1", "1e150", {"inf", "nan"}),
        ("1", "1e300", {"inf", "nan"}),
        ("1", "1e30*s^20", {"inf"}),
        ("1e-10", "1e300", {"nan"}),  # Q/f overflows: A itself is not finite
    ],
    ids=["1e150", "1e300", "1e30*s^20", "Q/f-overflows"],
)
def test_overflowing_states_equal_the_from_zero_reference(f, Q, records, bound):
    """Potentials whose s-axis states overflow, so that a chain's tail
    records reach inf or NaN: each abscissa's value (as bytes) or error text,
    and its own account (as float.hex), equal the from-0 integration's."""
    pot = pair_potential(f, "1", Q, "0")
    xs = [0.1, 0.3, 0.7, 1.0, -0.2, -0.55, 2.0]
    flow = _AxisFlow(pot.xi_s_rows, pot.xi_s, -1, 8, 16.0)
    ref = FromZeroAxisFlow(pot.xi_s, -1, 8, 16.0, TailAccumulator(bound))
    _integrate((flow, xs))
    reached = set()
    for x in xs:
        _, masses, chain, steps, _ = flow._nodes[x]
        masses = masses[:steps, :, chain]
        reached |= {"inf"} if np.isinf(masses).any() else set()
        reached |= {"nan"} if np.isnan(masses).any() else set()
        outcomes = []
        for evaluated in (flow, ref):
            tail = TailAccumulator(bound)
            try:
                with np.errstate(all="ignore"):  # the reference's dense arithmetic overflows
                    outcome = _state(evaluated, x, tail).tobytes()
            except TruncationOverflow as exc:
                outcome = str(exc)
            outcomes.append((outcome, tail.dropped.hex(), tail.kept.hex()))
        assert outcomes[0] == outcomes[1], x
    assert reached == records


def test_stacked_stepper_drops_an_item_whose_potential_raises():
    """f has no value for |s - 0.25| < 0.1: the items that step into that gap
    drop out of the stack mid-way, `at` raises their error at the same step
    after the same tail records, and the other items keep exact values."""
    pot = translate_potential("2 + sqrt(100*(z-0.25)^2 - 1)", "0", "0", "0")
    xs = [0.1, 0.149, 0.3, 0.6, 1.0, -0.2, -0.75, -1.5]
    flow, tail = _AxisFlow(pot.xi_s_rows, pot.xi_s, -1, 8, 16.0), TailAccumulator()
    ref = FromZeroAxisFlow(pot.xi_s, -1, 8, 16.0, TailAccumulator())
    _integrate((flow, xs))
    raised = []
    for x in [-1.5, 0.6, 0.1, 0.3, -0.75, 1.0, -0.2, 0.149, 0.6]:
        outcomes = []
        for f, account in ((flow, tail), (ref, ref.tail)):
            try:
                outcomes.append(_state(f, x, account))
            except EvalDomain as exc:
                outcomes.append(str(exc))
        new, old = outcomes
        if isinstance(old, str):
            raised.append(x)
            assert new == old
        else:
            assert np.array_equal(new, old), x
        assert (tail.dropped, tail.kept) == (ref.tail.dropped, ref.tail.kept)
    assert raised == [0.6, 0.3, 1.0, 0.6] and tail.kept > 0.0


def test_both_axes_step_as_one_stack_while_t_chains_drop_out():
    """g has no value for |t - 0.25| < 0.1: the t chains that step into that
    gap drop out of the stack while the s chains and the other t chains keep
    stepping with them.  Each potential is read in one row call; a stopped t
    node's error comes from scalar `xi_t` reads at its stopped step's
    positions, up to the first that raises, and no other scalar read is
    made.  Values, errors and the shared tail account equal the from-0
    integration in an interleaved order of s and t abscissae."""
    pot = pair_potential("1 + s^2/4", "2 + sqrt(100*(t-0.25)^2 - 1)", "cos(s)/16", "t/32")
    xs = [0.1, 0.149, 0.3, 0.6, 1.0, -0.2, -0.75, -1.5]
    tail, ref_tail = TailAccumulator(), TailAccumulator()
    calls = {"s": [], "t": [], "xi_s": [], "xi_t": []}

    def sized(coeff_rows, sizes):
        return lambda positions: sizes.append(len(positions)) or coeff_rows(positions)

    def scalar(coeff, reads):
        return lambda x: reads.append(x) or coeff(x)

    flows = {
        "s": _AxisFlow(sized(pot.xi_s_rows, calls["s"]), scalar(pot.xi_s, calls["xi_s"]), -1, 8, 16.0),
        "t": _AxisFlow(sized(pot.xi_t_rows, calls["t"]), scalar(pot.xi_t, calls["xi_t"]), +1, 8, 16.0),
    }
    refs = {
        "s": FromZeroAxisFlow(pot.xi_s, -1, 8, 16.0, ref_tail),
        "t": FromZeroAxisFlow(pot.xi_t, +1, 8, 16.0, ref_tail),
    }
    _integrate((flows["s"], xs), (flows["t"], xs))
    chains = {}  # h: longest step count
    for x in xs:
        n = math.ceil(abs(x) * 16.0 - 1e-12)
        chains[x / n] = max(chains.get(x / n, 0), n)
    steps = sum(chains.values())
    assert calls["s"] == calls["t"] == [3 * steps]  # every position in one row call

    def stop_reads(x):  # the positions of x's first step that raises, up to the first that does
        n = math.ceil(abs(x) * 16.0 - 1e-12)
        h = x / n
        for k in range(n):
            step = [k * h if k else 0.0, k * h + h / 2.0, k * h + h]
            for j, position in enumerate(step):
                try:
                    pot.xi_t(position)
                except EvalDomain:
                    return step[: j + 1]

    raised, reads = [], []
    rng = np.random.default_rng(3)
    order = [(axis, x) for axis in "st" for x in xs]
    for axis, x in [order[i] for i in rng.permutation(len(order))] + order[:4]:
        outcomes = []
        for flow, account in ((flows[axis], tail), (refs[axis], ref_tail)):
            try:
                outcomes.append(_state(flow, x, account))
            except EvalDomain as exc:
                outcomes.append(str(exc))
        new, old = outcomes
        if isinstance(old, str):
            raised.append((axis, x))
            reads += stop_reads(x)
            assert new == old
        else:
            assert np.array_equal(new, old), (axis, x)
        assert (tail.dropped, tail.kept) == (ref_tail.dropped, ref_tail.kept)
    assert sorted(raised) == [("t", 0.3), ("t", 0.6), ("t", 1.0)] and tail.kept > 0.0
    assert calls["xi_s"] == [] and [x.hex() for x in calls["xi_t"]] == [x.hex() for x in reads]


def test_det_drift_bounded():
    pot = translate_potential("1", "0", "0.0625", "0")
    phi_s, _, _, _ = solve_frame_ode(
        pot, np.linspace(-2, 2, 21), np.linspace(-2, 2, 21), steps_per_cell=8, trunc_n=20
    )
    for phi, s in zip(phi_s, np.linspace(-2, 2, 21)):
        assert abs(phi.det_at(1.0) - 1.0) <= 1e-10 * (1.0 + abs(s))


def test_truncation_overflow_propagates():
    pot = translate_potential("exp(3*z)", "0", "exp(3*z)/4", "0")
    with pytest.raises(TruncationOverflow):
        solve_frame_ode(pot, np.linspace(-3, 3, 13), np.linspace(-3, 3, 13), 8, trunc_n=4)


@pytest.mark.parametrize(
    "pot, first",
    [
        (translate_potential("1", "0", "0.0625", "0"), (-1.0, 0.0)),
        # a nilpotent s-flow drops nothing, so the t axis overflows first
        (pair_potential("1", "1", "0", "1"), (0.0, -1.0)),
    ],
    ids=["s-axis", "t-axis"],
)
def test_truncation_overflow_on_an_axis_names_its_point(pot, first):
    grid = np.linspace(-1, 1, 5)
    with pytest.raises(TruncationOverflow) as exc:
        Pipeline(pot, grid, grid, trunc_n=8, steps_per_cell=4, tail_bound=1e-27)
    assert exc.value.gridpoint == first
    assert str(exc.value).endswith(f"at gridpoint (s={first[0]}, t={first[1]})")


# -- measured convergence ---------------------------------------------------------


def test_rk4_converges_at_fourth_order_in_steps_per_cell():
    pot = translate_potential("1", "0", "0.0625", "0")
    grid = np.linspace(-2, 2, 5)
    K = np.array([[0.0, -0.25], [0.25, 0.0]])
    exact = loop_exp(TwistedLoop.from_terms(20, {-1: 2.0 * K}))
    errors = []
    for steps in (1, 2, 4, 8):
        phi_s, _, _, _ = solve_frame_ode(pot, grid, grid, steps_per_cell=steps, trunc_n=20)
        errors.append((phi_s[-1] - exact).norm())
    slopes = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(3.7 <= slope <= 4.3 for slope in slopes), (errors, slopes)


def test_truncation_tail_tracks_the_closed_form_and_decays_geometrically():
    """Phi_s(2) = exp(2 lam^-1 K) has degree -k coefficient (2K)^k / k!, of
    Frobenius mass sqrt(2) (1/2)^k / k!; the axis ODE's relative tail stays within
    a factor 2 of that frame's dropped/kept mass above degree N."""
    pot = translate_potential("1", "0", "0.0625", "0")
    grid = np.linspace(-2, 2, 5)
    mass = [math.sqrt(2.0) * 0.5**k / math.factorial(k) for k in range(40)]
    relative = []
    for n in range(2, 7):
        pipe = Pipeline(pot, grid, grid, trunc_n=n, steps_per_cell=8, tail_bound=math.inf)
        relative.append(pipe.tail.relative())
        closed = math.hypot(*mass[n + 1 :]) / math.hypot(*mass[: n + 1])
        assert 0.5 <= relative[-1] / closed <= 2.0, (n, relative[-1], closed)
    assert all(a >= 5.0 * b for a, b in zip(relative, relative[1:])), relative


def _reference_sweep(phi_s, phi_t, pot, s_grid, t_grid, initial=None, bound=1e-9):
    """The sweep point by point: `frame_point_reference` calls in row order, one
    tail account per row merged in row order.  Returns (frames, h, gauge_log,
    conditioning, holes, hole_errors, tail); a TruncationOverflow names the
    gridpoint it arose at."""
    ns, nt = len(s_grid), len(t_grid)
    frames = np.empty((ns, nt), dtype=object)
    h, gauge_log, cond = (np.full((ns, nt), np.nan) for _ in range(3))
    holes = np.zeros((ns, nt), dtype=bool)
    errors, row_tails = [], []
    for i, s in enumerate(s_grid):
        row_tails.append(TailAccumulator(bound))
        for j, t in enumerate(t_grid):
            gridpoint = (float(s), float(t))
            try:
                loop, h_ij, log_ij, cond_ij = frame_point_reference(
                    phi_s[i], phi_t[j], pot.f.eval(float(s)), pot.g.eval(float(t)), initial,
                    row_tails[-1], gridpoint,
                )
            except TruncationOverflow as exc:
                raise TruncationOverflow(str(exc), gridpoint=gridpoint) from exc
            except (OutsideBigCell, GaugeFailure) as exc:
                holes[i, j] = True
                errors.append((i, j, type(exc).__name__, str(exc)))
                continue
            frames[i, j] = loop
            h[i, j], gauge_log[i, j], cond[i, j] = h_ij, log_ij, cond_ij
    tail = TailAccumulator(bound)
    for row_tail in row_tails:
        tail.merge(row_tail)
    return frames, h, gauge_log, cond, holes, errors, tail


def test_truncation_overflow_in_sweep_names_gridpoint():
    pot = translate_potential("1", "0", "0.0625", "0")
    for grid, bound, first in (
        (np.linspace(-1, 1, 5), 1e-300, (-1.0, -1.0)),
        # the corner is not the worst point here: the first overflow is mid-row
        (np.linspace(-0.5, 1.5, 5), 1e-13, (-0.5, 1.0)),
    ):
        phi_s, phi_t, _, _ = solve_frame_ode(pot, grid, grid, steps_per_cell=4, trunc_n=8)
        with pytest.raises(TruncationOverflow) as ref:
            _reference_sweep(phi_s, phi_t, pot, grid, grid, bound=bound)
        with pytest.raises(TruncationOverflow) as exc:
            build_extended_frames(phi_s, phi_t, pot, grid, grid, tail=TailAccumulator(bound=bound))
        assert exc.value.gridpoint == ref.value.gridpoint == first
        s, t = first
        assert str(exc.value) == f"{ref.value} at gridpoint (s={s}, t={t})"


def _umbrella_initial(N=12):
    from nilweier.config import _umbrella_frame

    A = _umbrella_frame(0.5)
    return TwistedLoop.from_terms(N, {k: A.coeff(k) for k in range(-4, 5)})


def _near_boundary_plane(initial):
    """Plane frames on a grid with both hole causes and two points whose
    factorization is near the big-cell boundary (cond above COND_WARN)."""
    pot = translate_potential("4", "0", "0", "0")
    _, _, flow_s, flow_t = solve_frame_ode(
        pot, np.linspace(-2, 2, 9), np.linspace(-2, 2, 9), steps_per_cell=4, trunc_n=12
    )
    s_grid = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    t_grid = np.array([-2.0, -1.0, -0.999999999999, -0.5, -0.4999999999998, 0.0, 0.5, 1.0, 2.0])
    initial = _umbrella_initial() if initial else None
    phi_s = _loops(flow_s, s_grid)
    phi_t = _loops(flow_t, t_grid)
    return phi_s, phi_t, pot, s_grid, t_grid, initial


def _near_boundary_warnings(caught):
    return [str(w.message) for w in caught if "near big-cell boundary" in str(w.message)]


def _rows_per_batch(monkeypatch, rows, nt, trunc_n):
    """Set the split budget to the systems of `rows` grid rows of nt points."""
    monkeypatch.setattr(pipeline_module, "_BATCH_BYTES", rows * nt * (2 * trunc_n) ** 2 * 8)


def _split_calls(monkeypatch):
    """(distinct Phi_s, items) of each `_iwasawa_rows` call from `nilweier.pipeline`."""
    calls = []
    real = pipeline_module._iwasawa_rows

    def iwasawa_rows(phi_s, index, phi_t, fx):
        calls.append((len(phi_s), len(phi_t)))
        return real(phi_s, index, phi_t, fx)

    monkeypatch.setattr(pipeline_module, "_iwasawa_rows", iwasawa_rows)
    return calls


def _merged_accounts(monkeypatch):
    """(dropped, kept) as float.hex of each account merged into another: the
    row accounts, in the sweep and in `_reference_sweep` alike."""
    merged = []
    real = TailAccumulator.merge

    def merge(self, other):
        merged.append((other.dropped.hex(), other.kept.hex()))
        real(self, other)

    monkeypatch.setattr(TailAccumulator, "merge", merge)
    return merged


@pytest.mark.parametrize(
    "initial, rows",
    [(False, None), (True, None), (False, 3), (True, 3)],
    ids=["plain", "umbrella", "plain-3-rows", "umbrella-3-rows"],
)
def test_sweep_equals_point_by_point_reference(initial, rows, monkeypatch):
    """The 7 grid rows split in one batch, or 3 rows per batch: then the
    rows s = -1 and s = 1, with holes of both causes (and s = 1 a
    near-boundary warning), are the second row of the first batch and the
    third of the second.  Everything, each row account as float.hex
    included, is the point-by-point sweep's."""
    phi_s, phi_t, pot, s_grid, t_grid, initial = _near_boundary_plane(initial)
    merged = _merged_accounts(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = _reference_sweep(phi_s, phi_t, pot, s_grid, t_grid, initial)
    ref_warnings = _near_boundary_warnings(caught)
    ref_rows, merged[:] = merged[:], []
    if rows:
        _rows_per_batch(monkeypatch, rows, len(t_grid), phi_s[0].N)
    calls = _split_calls(monkeypatch)
    inverted = []
    real_inv = factorization._inv_rows

    def counted_inv(x, lower, fx):
        if lower:  # the split's own inverses are upper
            inverted.extend(x)
        return real_inv(x, lower, fx)

    monkeypatch.setattr(factorization, "_inv_rows", counted_inv)
    tail = TailAccumulator()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fg = build_extended_frames(phi_s, phi_t, pot, s_grid, t_grid, initial=initial, tail=tail)
    # each grid row's Phi_s is inverted once, not once per gridpoint
    assert np.array_equal(np.stack(inverted), np.stack([phi.c for phi in phi_s]))
    assert calls == ([(3, 27), (3, 27), (1, 9)] if rows else [(7, 63)])
    assert merged == ref_rows and len(merged) == len(s_grid)
    frames, h, gauge_log, cond, holes, errors, ref_tail = ref
    assert {e[2] for e in errors} == {"OutsideBigCell", "GaugeFailure"}
    assert len(ref_warnings) == 2
    assert np.array_equal(fg.holes, holes)
    for (i, j), loop in np.ndenumerate(frames):
        assert (grid_loop(fg, i, j) is None) == (loop is None)
        if loop is not None:
            assert np.array_equal(grid_loop(fg, i, j).c, loop.c)
    assert np.array_equal(fg.h, h, equal_nan=True)
    assert np.array_equal(fg.gauge_log, gauge_log, equal_nan=True)
    assert np.array_equal(fg.conditioning, cond, equal_nan=True)
    assert fg.hole_errors == errors
    assert (tail.dropped, tail.kept) == (ref_tail.dropped, ref_tail.kept)
    assert _near_boundary_warnings(caught) == ref_warnings


def _sweep_outcome(sweep, *args, **kwargs):
    """(result, error as (type, text, gridpoint), warning texts) of one sweep;
    result or error is None."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = sweep(*args, **kwargs), None
        except NilWeierError as exc:
            result, error = None, (type(exc), str(exc), getattr(exc, "gridpoint", None))
    return result, error, [str(w.message) for w in caught]


def test_a_row_with_a_warning_then_a_hole_plays_as_point_by_point():
    """The row s = 1 holds a near-boundary warning, an OutsideBigCell hole, a
    kept point, a second warning, a GaugeFailure hole and a kept point; the
    row s = 0.5 a hole among kept points.  Each row's one play leaves the
    holes, their errors, the warnings in order and the tail account (as
    float.hex) of the point-by-point sweep."""
    pot = translate_potential("4", "0", "0", "0")
    nodes = np.linspace(-2, 2, 9)
    _, _, flow_s, flow_t = solve_frame_ode(pot, nodes, nodes, steps_per_cell=4, trunc_n=12)
    s_grid = np.array([0.5, 1.0])
    t_grid = np.array([-0.999999999999, -1.0, -0.5, -0.9999999999995, -2.0, 0.5])
    args = _loops(flow_s, s_grid), _loops(flow_t, t_grid), pot, s_grid, t_grid
    tail = TailAccumulator()
    fg, error, messages = _sweep_outcome(build_extended_frames, *args, tail=tail)
    ref, ref_error, ref_messages = _sweep_outcome(_reference_sweep, *args)
    assert error is ref_error is None
    assert messages == ref_messages and len(messages) == 2
    assert [m.startswith("factorization near big-cell boundary") for m in messages] == [True] * 2
    assert np.array_equal(fg.holes, ref[4]) and fg.hole_errors == ref[5]
    assert [(i, j, kind) for i, j, kind, _ in fg.hole_errors] == [
        (0, 4, "OutsideBigCell"), (1, 1, "OutsideBigCell"), (1, 4, "GaugeFailure")
    ]
    assert (tail.dropped.hex(), tail.kept.hex()) == (ref[6].dropped.hex(), ref[6].kept.hex())
    assert tail.kept > 0.0


def test_a_row_crossing_the_bound_after_a_warning_plays_as_point_by_point(monkeypatch):
    """With COND_WARN below the cylinder's conditioning, the first point of
    the row s = -0.5 warns, its fourth crosses the tail bound, and its fifth
    would warn again: the row's one play issues the first warning only and
    raises the point-by-point sweep's error, named by the fourth point."""
    monkeypatch.setattr(factorization, "COND_WARN", 1.5)
    pot = translate_potential("1", "0", "0.0625", "0")
    grid = np.linspace(-0.5, 1.5, 5)
    phi_s, phi_t, _, _ = solve_frame_ode(pot, grid, grid, steps_per_cell=4, trunc_n=8)
    args = phi_s, phi_t, pot, grid, grid
    new = _sweep_outcome(build_extended_frames, *args, tail=TailAccumulator(bound=1e-13))
    ref = _sweep_outcome(_reference_sweep, *args, bound=1e-13)
    (kind, text, gridpoint), messages = ref[1:]
    assert kind is TruncationOverflow and gridpoint == (-0.5, 1.0)
    assert new[1:] == ((kind, f"{text} at gridpoint (s=-0.5, t=1.0)", gridpoint), messages)
    assert messages == ["factorization near big-cell boundary: cond=1.600e+00"]
    # without the bound, the row's fifth point warns as well
    assert len(_sweep_outcome(build_extended_frames, *args)[2]) > len(messages)


def test_a_crossing_in_a_later_row_of_a_batch_plays_as_point_by_point(monkeypatch):
    """Three grid rows per batch, COND_WARN patched so that most points warn,
    and a tail bound that only the row s = 0.75 crosses, at its fourth
    point; that row is the second of the second batch.  The sweep merges the
    four rows before it, as the point-by-point sweep finds their accounts
    (as float.hex), issues the warnings before the crossing and raises the
    point-by-point sweep's error, named by that point; the batch's third row
    is split but never played."""
    monkeypatch.setattr(factorization, "COND_WARN", 1.5)
    pot = pair_potential("1", "1", "64*s*s*s*s", "0.25")
    nodes = np.linspace(-1, 1, 9)
    _, _, flow_s, flow_t = solve_frame_ode(
        pot, nodes, nodes, steps_per_cell=4, trunc_n=8, tail=TailAccumulator(math.inf)
    )
    s_grid = np.array([0.25, 0.0, 0.5, 1.0, 0.75, 0.0])
    t_grid = np.array([0.5, 0.0, -1.0, 1.0, -0.5])
    args = _loops(flow_s, s_grid), _loops(flow_t, t_grid), pot, s_grid, t_grid
    merged = _merged_accounts(monkeypatch)
    with pytest.warns(UserWarning, match="near big-cell boundary"):
        _reference_sweep(*args, bound=math.inf)  # every row's account
    ref_rows, merged[:] = merged[:], []
    ref = _sweep_outcome(_reference_sweep, *args, bound=9e-13)
    _rows_per_batch(monkeypatch, 3, len(t_grid), 8)
    calls = _split_calls(monkeypatch)
    new = _sweep_outcome(build_extended_frames, *args, tail=TailAccumulator(bound=9e-13))
    (kind, text, gridpoint), messages = ref[1:]
    assert kind is TruncationOverflow and gridpoint == (0.75, 1.0)
    assert new[1:] == ((kind, f"{text} at gridpoint (s=0.75, t=1.0)", gridpoint), messages)
    assert calls == [(3, 15), (3, 15)]
    assert merged == ref_rows[:4]
    # the warnings of the four rows before it, then some of its row's
    before = _sweep_outcome(build_extended_frames, args[0][:4], args[1], pot, s_grid[:4], t_grid)[2]
    assert messages[: len(before)] == before and len(before) < len(messages)
    assert len(_sweep_outcome(build_extended_frames, *args)[2]) > len(messages)


def _conditioning_case(name):
    """(Phi_s list, Phi_t list, potential, s grid, t grid) of the cylinder on
    the grids of the sweep-cylinder and deep-trunc benchmark workloads, or of
    `_near_boundary_plane`."""
    if name == "near-boundary-plane":
        return _near_boundary_plane(False)[:5]
    from nilweier.config import load_config

    side, trunc_n = {"sweep-cylinder": (15, 20), "deep-trunc": (9, 48)}[name]
    domain = {"sMin": -2.0, "sMax": 2.0, "tMin": -2.0, "tMax": 2.0, "ns": side, "nt": side}
    config = {"potential": {"builtin": "cylinder"}, "domain": domain, "truncationN": trunc_n}
    pipe = load_config(config).make_pipeline()
    return pipe.phi_s, pipe.phi_t, pipe.potential, pipe.s_grid, pipe.t_grid


@pytest.mark.parametrize("name", ["sweep-cylinder", "deep-trunc", "near-boundary-plane"])
def test_frame_grid_conditioning_against_the_full_svd(name, monkeypatch):
    """np.linalg.cond runs on the assembled system of every point whose
    half-block value is above the cutoff.  Each kept point's conditioning is
    np.linalg.cond's value there, and within the stated slack of it below;
    the grid's max_conditioning is np.linalg.cond's largest value exactly."""
    phi_s, phi_t, pot, s_grid, t_grid = _conditioning_case(name)
    conditioned = set()
    real_cond = np.linalg.cond

    def spy(system):
        conditioned.add(system.tobytes())
        return real_cond(system)

    monkeypatch.setattr(np.linalg, "cond", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fg = build_extended_frames(phi_s, phi_t, pot, s_grid, t_grid)
    monkeypatch.undo()
    slack = factorization._cond_slack(2 * fg.trunc_n)
    cutoff = 1.0 / (1.0 / factorization.COND_WARN + slack)
    full, above = [], 0
    for (i, j), hole in np.ndenumerate(fg.holes):
        w = loop_mul(loop_inv(phi_s[i]), phi_t[j])
        system = block_toeplitz_reference(w.c, +1)[0]
        c = full_cond(system)
        if not factorization._half_conds(w.c[None], +1)[0] <= cutoff:
            assert system.tobytes() in conditioned
            above += 1
        if hole:
            assert np.isnan(fg.conditioning[i, j])
            continue
        h = fg.conditioning[i, j]
        if h > cutoff:
            assert h == c
        else:
            assert abs(1.0 / h - 1.0 / c) <= slack
        full.append(c)
    assert fg.max_conditioning == max(full)
    # the plane's two near-boundary points and its six singular systems
    assert above == {"near-boundary-plane": 2 + 6}.get(name, 0)


def test_holes_leave_no_reference_cycles(plane_pipe):
    """A hole's error is raised from the batch's kept effects; it must not
    keep them alive through its traceback, or every sweep and point
    evaluation leaves cyclic garbage behind."""
    pot = translate_potential("4", "0", "0", "0")
    grid = np.linspace(-2, 2, 9)
    phi_s, phi_t, _, _ = solve_frame_ode(pot, grid, grid, steps_per_cell=4, trunc_n=8)
    gc.collect()
    gc.disable()
    try:
        fg = build_extended_frames(phi_s, phi_t, pot, grid, grid)
        for s, t in ((1.0, -1.0), (1.5, -1.5)):
            with pytest.raises((OutsideBigCell, GaugeFailure)):
                plane_pipe.frame_at(s, t)
        assert fg.holes.sum() > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- extended frames -----------------------------------------------------------


def test_cylinder_angle_function_is_one(cyl_pipe):
    fg = cyl_pipe.frame_grid
    assert fg.holes.sum() == 0
    assert np.nanmax(np.abs(fg.h - 1.0)) < 1e-11


def test_cylinder_frame_matches_closed_form(cyl_pipe):
    fg = cyl_pipe.frame_grid
    err = 0.0
    for i, s in enumerate(fg.s_grid):
        for j, t in enumerate(fg.t_grid):
            err = max(
                err,
                frame_error_mod_gauge(grid_loop(fg, i, j), cylinder_frame, s, t, (0.0, 0.1, -0.1)),
            )
    assert err < 1e-10


def test_plane_angle_function_and_frame(plane_pipe):
    fg = plane_pipe.frame_grid
    for i, s in enumerate(fg.s_grid):
        for j, t in enumerate(fg.t_grid):
            if fg.holes[i, j]:
                assert s * t <= -1.0 + 1e-9
                continue
            assert abs(fg.h[i, j] - 4.0 / (1.0 + s * t)) < 1e-10
            if s * t > -0.9:
                err = frame_error_mod_gauge(grid_loop(fg, i, j), plane_frame, s, t, (0.0, 0.1))
                assert err < 1e-11


def test_plane_big_cell_boundary(plane_pipe):
    with pytest.raises(OutsideBigCell) as exc:
        plane_pipe.frame_at(1.0, -1.0)
    assert exc.value.gridpoint == (1.0, -1.0)


def _no_iwasawa(*args, **kwargs):
    raise AssertionError("Iwasawa split after the sweep")


def test_point_cache_shares_the_read_only_frame_grid(cyl_pipe):
    fg = cyl_pipe.frame_grid
    assert not fg.frames.flags.writeable
    frame = cyl_pipe.frame_at(fg.s_grid[3], fg.t_grid[5])
    assert np.shares_memory(frame.c, fg.frames)


def test_run_builds_no_twisted_loop(monkeypatch):
    """The sweep, the seeding of the point cache and the axis flows build no
    `TwistedLoop`: the cache holds rows of `FrameGrid.frames`, the flows hand
    out read-only arrays, which the grid lists' loops share, and the
    single-point readers build one loop per call."""
    pipe = builtin_config("cylinder").make_pipeline()
    built = []
    real_init = TwistedLoop.__init__

    def counted_init(self, N, *args, **kwargs):
        built.append(N)
        real_init(self, N, *args, **kwargs)

    monkeypatch.setattr(TwistedLoop, "__init__", counted_init)
    pipe.run()
    assert built == [] and len(pipe._point_cache) == int((~pipe.frame_grid.holes).sum()) > 0
    fg = pipe.frame_grid
    pipe.frames_at([(float(fg.s_grid[i]), float(fg.t_grid[j])) for i in (1, 4) for j in (2, 7)])
    assert built == []
    pipe.frames_at([(0.3125, -0.2175), (-0.4375, 0.1325), (0.3125, 1.01)])  # off the grid
    assert built == []
    axes = (pipe._flow_s, pipe.s_grid, pipe.phi_s), (pipe._flow_t, pipe.t_grid, pipe.phi_t)
    for flow, grid, loops in axes:
        for x in (0.3125, -0.4375):
            assert not _state(flow, x).flags.writeable
        for x, loop in zip(grid.tolist(), loops, strict=True):
            state = _state(flow, x)
            assert not state.flags.writeable and np.shares_memory(loop.c, state)
    assert built == []
    pipe.frame_at(fg.s_grid[1], fg.t_grid[2])
    assert built == [pipe.trunc_n]


def test_surfaces_at_has_the_sym_point_bytes(cyl_pipe):
    """`surfaces_at` on a batch that mixes gridpoints with points off the grid
    (read by no other test), and `surface_at` and `nil_at`, `l3_at` and
    `normal_at` at each point, hold `_sym_point`'s bytes at the point's frame."""
    fg = cyl_pipe.frame_grid
    off_grid = [(0.3125, -0.2175), (-0.4375, 0.1325)]
    assert not any(p in cyl_pipe._point_cache for p in off_grid)
    points = [(fg.s_grid[3], fg.t_grid[5]), off_grid[0], (fg.s_grid[1], fg.t_grid[2]), off_grid[1]]
    for theta in (0.1, -0.1):
        rows = cyl_pipe.surfaces_at(points, theta)
        assert rows.shape == (len(points), 3, 3)
        for (s, t), row in zip(points, rows):
            expected = np.array(pipeline_module._sym_point(cyl_pipe.frame_at(s, t), theta))
            readers = (cyl_pipe.surface_at, cyl_pipe.nil_at, cyl_pipe.l3_at, cyl_pipe.normal_at)
            got = [row] + [read(s, t, theta) for read in readers]
            assert [x.tobytes() for x in got] == [x.tobytes() for x in (expected, expected, *expected)]


def test_a_residual_hole_carries_its_conditioning():
    """Near the big-cell boundary of a dense frame (s = 1, t ~ -1.0426 for
    this potential) points fail the factorization residual check at a
    conditioning far below COND_WARN; such a hole reports that conditioning,
    as the cond failures do."""
    pot = translate_potential("4", "0", "0.3", "0")
    grid = np.linspace(-2, 2, 9)
    pipe = Pipeline(pot, grid, grid, trunc_n=12, steps_per_cell=8).run()
    residual = []
    for t in -1.0425682930934575 + np.linspace(-2e-9, 2e-9, 41):
        try:
            pipe.frame_at(1.0, float(t))
        except OutsideBigCell as exc:
            if "factorization residual" in str(exc):
                residual.append(exc)
        except GaugeFailure:
            pass
    assert residual
    for exc in residual:
        assert 1.0 <= exc.conditioning < factorization.COND_WARN


def test_frame_at_reuses_the_sweeps_gridpoint_frames(cyl_pipe, plane_pipe, monkeypatch):
    fg = cyl_pipe.frame_grid
    monkeypatch.setattr("nilweier.pipeline._iwasawa_rows", _no_iwasawa)
    for (i, j), _ in np.ndenumerate(fg.holes):
        if fg.holes[i, j]:
            continue
        frame = cyl_pipe.frame_at(fg.s_grid[i], fg.t_grid[j])
        assert np.array_equal(frame.c, grid_loop(fg, i, j).c)
        assert cyl_pipe.h_at(fg.s_grid[i], fg.t_grid[j]) == fg.h[i, j]
    monkeypatch.undo()
    # holes are not cached: they are recomputed and raise their own error
    with pytest.raises(OutsideBigCell) as exc:
        plane_pipe.frame_at(1.0, -1.0)
    assert exc.value.gridpoint == (1.0, -1.0)


def test_point_evaluations_have_their_own_tail_account():
    pot = translate_potential("1", "0", "0.0625", "0")
    grid = np.linspace(-1, 1, 5)
    pipe = Pipeline(pot, grid, grid, trunc_n=8, steps_per_cell=4).run()
    dropped, kept = pipe.tail.dropped, pipe.tail.kept
    pipe.frame_at(0.15, -0.35)
    assert (pipe.tail.dropped, pipe.tail.kept) == (dropped, kept)
    assert pipe.point_tail.kept > 0.0 and pipe.point_tail.bound == pipe.tail.bound
    pipe.point_tail.bound = 1e-300
    with pytest.raises(TruncationOverflow) as exc:
        pipe.frame_at(0.25, 0.45)
    assert exc.value.gridpoint == (0.25, 0.45)
    assert "gridpoint (s=0.25, t=0.45)" in str(exc.value)
    assert (pipe.tail.dropped, pipe.tail.kept) == (dropped, kept)


def _fresh_plane(initial_frame=None, pot=None, grid=np.linspace(-2, 2, 9)):
    """A plane pipeline with both hole causes: OutsideBigCell where s t = -1,
    GaugeFailure where s t < -1."""
    pot = pot or translate_potential("4", "0", "0", "0")
    return Pipeline(
        pot, grid, grid, trunc_n=12, steps_per_cell=4, initial_frame=initial_frame
    ).run()


def _evaluate(pipe, evaluate):
    """(frames and h, point_tail, warnings, first error) of an evaluation that
    returns a frame stack and its h; the stacks as (shape, bytes) pairs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            frames, error = evaluate(pipe), None
        except NilWeierError as exc:
            frames, error = None, (type(exc), str(exc), getattr(exc, "gridpoint", None))
    if frames is not None:
        assert all(x.flags.c_contiguous and x.dtype == np.float64 for x in frames)
        frames = [(x.shape, x.tobytes()) for x in frames]
    messages = [(w.category, str(w.message)) for w in caught]
    return frames, (pipe.point_tail.dropped, pipe.point_tail.kept), messages, error


def _loop(pipe, points):
    """`frames_at` point by point: a `frame_at` and `h_at` loop, stacked."""
    frames, h = [], []
    for s, t in points:
        frames.append(pipe.frame_at(s, t).c)
        h.append(pipe.h_at(s, t))
    return np.array(frames).reshape(len(points), 2 * pipe.trunc_n + 1, 2, 2), np.array(h, float)


# off-grid points, some sharing s, one near the big-cell boundary (cond above
# COND_WARN), sweep gridpoints and duplicates
_PLANE_POINTS = [
    (0.3, -0.7), (1.0, -0.999999999999), (0.3, 0.45), (-1.5, 0.5), (0.0, 0.25),
    (0.5, 1.0), (1.0, 0.2), (0.3, -0.7), (-0.35, -0.35), (2.0, 2.0), (1.0, -0.4),
]


_AT_SPLIT = translate_potential("2 + 0/(z - 0.65)", "0", "0", "0")


def test_a_miss_whose_f_raises_only_at_its_split_names_it():
    """At 8 steps per unit the last ODE position toward s = 0.65 is
    0.6500000000000001, so the axis frame at 0.65 integrates and only the
    split's scalar read of f raises: Python's float division by zero, where
    numpy's would give NaN and 'is not finite'.  The error leaves no cyclic
    garbage behind."""
    pipe = _fresh_plane(pot=_AT_SPLIT)
    gc.collect()
    gc.disable()
    try:
        message = r"at s=0.65: float division by zero at gridpoint \(s=0.65, t=0.5\)"
        with pytest.raises(EvalDomain, match=message):
            pipe.frames_at([(0.1, 0.2), (0.65, 0.5)])
        assert gc.collect() == 0  # the kept error's tracebacks hold no frame of the split
    finally:
        gc.enable()
    steps = math.ceil(0.65 * 8 - 1e-12)
    assert (steps - 1) * (0.65 / steps) + 0.65 / steps == 0.6500000000000001
    assert pipe._flow_s.state(0.65) is not None and (0.1, 0.2) in pipe._point_cache


_FRAMES_AT_CASES = pytest.mark.parametrize(
    "make, points, errors",
    [
        (_fresh_plane, _PLANE_POINTS, ()),
        (_fresh_plane, _PLANE_POINTS[:4] + [(1.0, -1.0)] + _PLANE_POINTS[4:], (OutsideBigCell,)),
        (
            _fresh_plane,
            _PLANE_POINTS[:6] + [(1.5, -1.5), (1.0, -1.0)] + _PLANE_POINTS[6:],
            (GaugeFailure, OutsideBigCell),
        ),
        (lambda: _fresh_plane(_umbrella_initial()), _PLANE_POINTS, ()),
        (
            # f has no value for |s - 0.3| < 1e-3
            lambda: _fresh_plane(pot=translate_potential("2 + sqrt(1e6*(z-0.3)^2 - 1)", "0", "0", "0")),
            [(0.1, 0.2), (0.7, 0.5), (0.3, 0.5), (0.2, 0.1)],
            (EvalDomain,),
        ),
        (
            # f has no value at s = 0.65 alone, which no ODE position reaches
            # (see test_a_miss_whose_f_raises_only_at_its_split_names_it)
            lambda: _fresh_plane(pot=_AT_SPLIT),
            [(0.1, 0.2), (0.7, 0.5), (0.65, 0.5), (0.2, 0.1)],
            (EvalDomain,),
        ),
    ],
    ids=["off-grid", "outside-big-cell", "gauge-failure", "umbrella", "eval-domain", "eval-domain-at-split"],
)


@_FRAMES_AT_CASES
@pytest.mark.parametrize("seed", [0, 1])
def test_frames_at_equals_a_frame_at_loop(make, points, errors, seed):
    """Frames, h, point_tail, warnings and the first error with its gridpoint
    are those of a frame_at loop, in any order; after an error, the points
    left behind evaluate as the loop's do."""
    rng = np.random.default_rng(seed)
    points = [points[k] for k in rng.permutation(len(points))] if seed else points
    pipes = make(), make()
    new = _evaluate(pipes[0], lambda pipe: pipe.frames_at(points))
    ref = _evaluate(pipes[1], lambda pipe: _loop(pipe, points))
    assert new == ref
    if not errors:
        assert ref[3] is None and any("near big-cell boundary" in m for _, m in ref[2])
        return
    assert ref[3][0] in errors and ref[3][2] in points
    for point in points:
        outcomes = [_evaluate(pipe, lambda pipe: _loop(pipe, [point])) for pipe in pipes]
        assert outcomes[0] == outcomes[1]


@_FRAMES_AT_CASES
def test_frames_at_in_several_miss_batches_equals_a_frame_at_loop(make, points, errors, monkeypatch):
    """With a budget of two points' systems, the misses split in several
    batches of whole rows of common s, some of two rows: the frames,
    point_tail, warnings and first error are still the frame_at loop's."""
    pipes = make(), make()
    monkeypatch.setattr(pipeline_module, "_BATCH_BYTES", 2 * (2 * pipes[0].trunc_n) ** 2 * 8)
    calls = _split_calls(monkeypatch)
    new = _evaluate(pipes[0], lambda pipe: pipe.frames_at(points))
    batches = calls[:]
    ref = _evaluate(pipes[1], lambda pipe: _loop(pipe, points))
    assert new == ref
    assert len(batches) >= 2 and any(rows == 2 for rows, _ in batches)
    assert all(items <= 2 or rows == 1 for rows, items in batches)


def test_frames_at_with_overflowing_points_equals_a_frame_at_loop():
    """Q = R = 4 e^(300 (x - 3)) is tiny on the grid, and the axis states
    overflow past x = 3: a batch that mixes (4.0, 0.5) and (0.5, 4.2) with
    good points gives the frames, point_tail, warnings and first error of a
    frame_at loop, and each point alone evaluates as the loop's.  The splits
    of the overflowing frames emit no numpy RuntimeWarning, so a batch, which
    splits every miss before it plays one, warns in the loop's order."""
    pot = translate_potential("4", "0", "exp(300*(z-3))", "0")
    points = _PLANE_POINTS[:3] + [(4.0, 0.5)] + _PLANE_POINTS[3:6] + [(0.5, 4.2)]
    pipes = _fresh_plane(pot=pot), _fresh_plane(pot=pot)
    new = _evaluate(pipes[0], lambda pipe: pipe.frames_at(points))
    ref = _evaluate(pipes[1], lambda pipe: _loop(pipe, points))
    assert new == ref
    assert ref[3][0] is TruncationOverflow and ref[3][2] == (4.0, 0.5)
    assert ref[2] and all(category is not RuntimeWarning for category, _ in ref[2])
    for point in points:
        new, ref = (_evaluate(pipe, lambda pipe: _loop(pipe, [point])) for pipe in pipes)
        assert new == ref


@pytest.mark.parametrize("initial", [False, True], ids=["plain", "umbrella"])
def test_frames_at_equals_the_point_by_point_reference(initial):
    """Against the scalar algorithm: each axis integrated from 0, then
    `frame_point_reference`, all performing their effects into one account in
    the order s axis, t axis, split."""
    pot = translate_potential("1 + z/5", "0.1", "0.0625", "z/9")
    grid = np.linspace(-1, 1, 5)
    initial = _umbrella_initial() if initial else None
    pipe = _fresh_plane(initial, pot=pot, grid=grid)
    points = [(0.15, -0.35), (0.15, 0.4), (-0.6, 0.4), (0.5, 0.5), (0.15, -0.35), (0.7, -0.9)]
    frames, hs = pipe.frames_at(points)
    spu = 4 / 0.5
    ref_tail = TailAccumulator()
    flows = [FromZeroAxisFlow(pot.xi_s, -1, 12, spu, ref_tail), FromZeroAxisFlow(pot.xi_t, +1, 12, spu, ref_tail)]
    for flow in flows:
        for x in grid:  # the sweep's nodes, which the point evaluator finds cached
            flow.at(x, TailAccumulator())
    # the sweep's gridpoints are read from the sweep, and each point is split once
    gridpoints = {(float(s), float(t)) for s in grid for t in grid}
    done = set(gridpoints)
    for (s, t), frame, h_pt in zip(points, frames, hs.tolist(), strict=True):
        # a cached row is read-only: a view of the sweep's frames at a
        # gridpoint, else of its miss batch's frame stack
        row, cached_h = pipe._point_cache[(s, t)]
        assert not row.flags.writeable and cached_h == h_pt
        assert np.shares_memory(row, pipe.frame_grid.frames) == ((s, t) in gridpoints)
        assert frame.tobytes() == row.tobytes() and np.shares_memory(pipe.frame_at(s, t).c, row)
        if (s, t) in done:
            continue
        done.add((s, t))
        phi_s, phi_t = flows[0].at(s), flows[1].at(t)
        loop, h, _, _ = frame_point_reference(
            phi_s, phi_t, pot.f.eval(s), pot.g.eval(t), initial, ref_tail, (s, t)
        )
        assert np.array_equal(frame, loop.c) and h_pt == h
    assert (pipe.point_tail.dropped, pipe.point_tail.kept) == (ref_tail.dropped, ref_tail.kept)
    assert ref_tail.dropped > 0.0


def test_frames_at_names_a_point_tail_overflow():
    cylinder = translate_potential("1", "0", "0.0625", "0")
    pipes = [_fresh_plane(pot=cylinder, grid=np.linspace(-1, 1, 5)) for _ in range(2)]
    for pipe in pipes:
        pipe.point_tail.bound = 1e-300
    points = [(0.0, 0.5), (0.15, -0.35), (0.25, 0.45)]
    new = _evaluate(pipes[0], lambda pipe: pipe.frames_at(points))
    ref = _evaluate(pipes[1], lambda pipe: _loop(pipe, points))
    assert new == ref
    assert ref[3][0] is TruncationOverflow and ref[3][2] == (0.15, -0.35)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["s", "t"])
def test_frames_at_raises_at_a_non_finite_point_as_the_loop_does(axis, x):
    """A point that is not finite raises ValueError naming it at its turn:
    the points before it are replayed and cached, the points after it are
    not, and `point_tail` holds what the frame_at loop leaves."""
    bad = (x, 0.0) if axis == "s" else (0.0, x)
    points = [(0.33, 0.21), bad, (0.4, -0.3)]
    outcomes = []
    for evaluate in (lambda pipe: pipe.frames_at(points), lambda pipe: [pipe.frame_at(*p) for p in points]):
        pipe = builtin_config("horizontal-umbrella").make_pipeline().run()
        with pytest.raises(ValueError) as exc:
            evaluate(pipe)
        tail = (pipe.point_tail.dropped.hex(), pipe.point_tail.kept.hex())
        outcomes.append((str(exc.value), tail, set(pipe._point_cache)))
    assert outcomes[0] == outcomes[1]
    message, (_, kept), cached = outcomes[0]
    assert message == f"point (s={bad[0]}, t={bad[1]}) is not finite"
    assert float.fromhex(kept) > 0.0 and (0.33, 0.21) in cached and (0.4, -0.3) not in cached


def test_frames_at_raises_at_an_abscissa_too_large_to_integrate_as_the_loop_does():
    """An abscissa whose step count has no record array (1e300) fails the
    stack's allocation; its point raises that error at its turn, after the
    points before it are replayed and cached, as in the frame_at loop."""
    points = [(0.33, 0.21), (0.0, 1e300), (0.4, -0.3)]
    outcomes = []
    for evaluate in (lambda pipe: pipe.frames_at(points), lambda pipe: [pipe.frame_at(*p) for p in points]):
        pipe = builtin_config("horizontal-umbrella").make_pipeline().run()
        with pytest.raises(ValueError) as exc:
            evaluate(pipe)
        tail = (pipe.point_tail.dropped.hex(), pipe.point_tail.kept.hex())
        outcomes.append((str(exc.value), tail, set(pipe._point_cache)))
    assert outcomes[0] == outcomes[1]
    message, (_, kept), cached = outcomes[0]
    assert message == "Maximum allowed dimension exceeded"
    assert float.fromhex(kept) > 0.0 and (0.33, 0.21) in cached and (0.4, -0.3) not in cached


def test_the_point_readers_take_an_empty_list(cyl_pipe):
    """`frames_at`, `surfaces_at` and the spinor row kernel map no points to
    empty results of the shapes they give for some."""
    frames, h = cyl_pipe.frames_at([])
    assert frames.shape == (0, 2 * cyl_pipe.trunc_n + 1, 2, 2) and h.shape == (0,)
    assert frames.dtype == h.dtype == np.float64
    assert cyl_pipe.surfaces_at([], 0.1).shape == (0, 3, 3)
    assert pipeline_module._spinor_rows(frames, h, -0.1).shape == (0, 4)


def test_frame_det_and_reality_at_sampled_spectra(cyl_pipe):
    fg = cyl_pipe.frame_grid
    rng = np.random.default_rng(31)
    for _ in range(40):
        i = rng.integers(0, len(fg.s_grid))
        j = rng.integers(0, len(fg.t_grid))
        pair = LoopPair(grid_loop(fg, i, j), grid_loop(fg, i, j))
        for theta in (-0.5, -0.25, 0.0, 0.25, 0.5):
            F = pair_eval(pair, theta)
            d = F.det()
            assert abs(d.re - 1.0) < 1e-10 and abs(d.im) < 1e-10
            lam = math.exp(theta)
            assert abs(grid_loop(fg, i, j).det_at(lam) - 1.0) < 1e-10


def test_bscroll_frame_product_identity(bscroll_pipe):
    fg = bscroll_pipe.frame_grid
    err = 0.0
    for i, s in enumerate(fg.s_grid):
        for j, t in enumerate(fg.t_grid):
            phi_t = bscroll_pipe.phi_t[j]
            c1 = phi_t.coeff(1)[1, 0]
            delta = 1.0 + s * c1 / 4.0
            phi_minus = TwistedLoop.from_terms(
                fg.trunc_n,
                {0: [[1.0 / delta, 0.0], [0.0, delta]], -1: [[0.0, -s / 4.0], [0.0, 0.0]]},
            )
            expected = loop_mul(phi_t, phi_minus)
            d = math.exp(fg.gauge_log[i, j])
            raw = grid_loop(fg, i, j).scale_columns(1.0 / d)
            err = max(err, (raw - expected).norm())
    assert err < 1e-12


# -- Sym formulas ----------------------------------------------------------------


def test_sym_cylinder_point_values(cyl_pipe):
    sg = cyl_pipe.surface_grid
    i0 = list(sg.s_grid).index(0.0)
    j0 = list(sg.t_grid).index(0.0)
    assert np.allclose(sg.l3[0, i0, j0], [0.0, 0.0, -1.0], atol=1e-12)
    assert np.allclose(sg.nil[0, i0, j0], [0.0, 0.0, 0.0], atol=1e-12)


def test_sym_cylinder_surface_relations(cyl_pipe):
    sg = cyl_pipe.surface_grid
    assert np.nanmax(np.abs(sg.l3[..., 0] ** 2 + sg.l3[..., 2] ** 2 - 1.0)) < 1e-10
    assert np.nanmax(np.abs(sg.nil[..., 2] - sg.nil[..., 0] * sg.nil[..., 1] / 2.0)) < 1e-10


def test_sym_matches_closed_form_surfaces(cyl_pipe, plane_pipe):
    for pipe, closed in ((cyl_pipe, cylinder_nil), (plane_pipe, plane_nil)):
        sg = pipe.surface_grid
        for k, theta in enumerate(sg.thetas):
            for i, s in enumerate(sg.s_grid):
                for j, t in enumerate(sg.t_grid):
                    if sg.holes[i, j]:
                        continue
                    assert np.allclose(
                        sg.nil[k, i, j], closed(s, t, float(theta)), atol=1e-9
                    )


def test_sym_original_surface_up_to_left_translation(cyl_pipe):
    # at theta = 0 the generated surface and the closed form differ by one
    # constant group translation (here the identity, but fit it anyway)
    sg = cyl_pipe.surface_grid
    ref = cylinder_nil(sg.s_grid[2], sg.t_grid[3], 0.0)
    shift = nil_translate_to(ref, sg.nil[0, 2, 3])
    for i, s in enumerate(sg.s_grid):
        for j, t in enumerate(sg.t_grid):
            moved = nil_mul(shift, sg.nil[0, i, j])
            assert np.allclose(moved, cylinder_nil(s, t, 0.0), atol=1e-9)


def test_sym_gauge_invariance_randomized(cyl_pipe):
    from nilweier.pipeline import _sym_point

    fg = cyl_pipe.frame_grid
    rng = np.random.default_rng(32)
    for _ in range(100):
        i = rng.integers(0, len(fg.s_grid))
        j = rng.integers(0, len(fg.t_grid))
        theta = float(rng.uniform(-0.2, 0.2))
        c = float(rng.uniform(-0.5, 0.5))
        base = _sym_point(grid_loop(fg, i, j), theta)
        gauged = _sym_point(grid_loop(fg, i, j).scale_columns(math.exp(c)), theta)
        for u, v in zip(base, gauged):
            assert np.abs(u - v).max() <= 1e-12


def test_angle_function_theta_independent(cyl_pipe, plane_pipe):
    rng = np.random.default_rng(33)
    for pipe in (cyl_pipe, plane_pipe):
        fg = pipe.frame_grid
        count = 0
        while count < 100:
            i = int(rng.integers(0, len(fg.s_grid)))
            j = int(rng.integers(0, len(fg.t_grid)))
            if fg.holes[i, j]:
                continue
            theta = float(rng.uniform(-0.4, 0.4))
            F = pair_eval(LoopPair(grid_loop(fg, i, j), grid_loop(fg, i, j)), theta)
            f21, f22 = F.entry(1, 0), F.entry(1, 1)
            h_theta = fg.h[i, j] * (f22 * f22.conj() - f21 * f21.conj()).re
            assert abs(h_theta - fg.h[i, j]) <= 1e-9
            count += 1


def test_initial_frame_prepends(plane_pipe):
    from nilweier.config import _umbrella_frame

    pot = translate_potential("4", "0", "0", "0")
    pipe = Pipeline(
        pot,
        np.linspace(-0.5, 0.5, 5),
        np.linspace(-0.5, 0.5, 5),
        trunc_n=16,
        steps_per_cell=8,
        thetas=(0.0,),
        initial_frame=_umbrella_frame(0.5),
    ).run()
    # frame at the basepoint is the initial loop itself (gauge d = 1 there)
    f0 = pipe.frame_at(0.0, 0.0)
    A = _umbrella_frame(0.5)
    diff = f0 - TwistedLoop.from_terms(16, {k: A.coeff(k) for k in range(-4, 5)})
    assert diff.norm() < 1e-12


def test_an_initial_frame_past_the_truncation_keeps_only_its_nonzero_degrees():
    """An initial frame of a larger truncation whose degrees past `trunc_n`
    vanish runs as the same frame at `trunc_n`, bit for bit; a nonzero
    coefficient past `trunc_n` raises, naming its degree."""
    pot, grid = translate_potential("4", "0", "0", "0"), np.linspace(-0.5, 0.5, 5)

    def run(initial_frame):
        return Pipeline(pot, grid, grid, trunc_n=4, steps_per_cell=4, initial_frame=initial_frame)

    wide = run(TwistedLoop.from_terms(8, {0: np.eye(2)})).run()
    plain = run(TwistedLoop.identity(4)).run()
    for a, b in ((wide.frame_grid, plain.frame_grid), (wide.surface_grid, plain.surface_grid)):
        for key, value in vars(a).items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == getattr(b, key).tobytes(), key
    tails = [(p.tail.dropped.hex(), p.tail.kept.hex()) for p in (wide, plain)]
    assert tails[0] == tails[1]
    with pytest.raises(ValueError, match=r"^degree -6 outside truncation \[-4, 4\]$"):
        run(TwistedLoop.from_terms(8, {0: np.eye(2), -6: 0.1 * np.eye(2)}))


def test_umbrella_is_plane_graph():
    from nilweier.config import builtin_config

    pipe = builtin_config("horizontal-umbrella").make_pipeline().run()
    sg = pipe.surface_grid
    pts = sg.nil[0][~sg.holes]
    A = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    coef, *_ = np.linalg.lstsq(A, pts[:, 2], rcond=None)
    assert np.abs(A @ coef - pts[:, 2]).max() < 1e-9
    assert np.hypot(coef[0], coef[1]) > 1e-2  # genuinely tilted, not the plane


# -- normalized potential extraction ----------------------------------------------


def test_extraction_cylinder(cyl_pipe):
    rec = extract_normalized_potential(cyl_pipe, axis_values=np.linspace(-0.5, 0.5, 5))
    for b, B in zip(rec.b_hat, rec.B_hat):
        assert b.isclose(ParaComplex(0.0, -0.25), tol=1e-9)
        assert B.isclose(ParaComplex(0.0625, 0.0), tol=1e-9)


def test_extraction_plane(plane_pipe):
    rec = extract_normalized_potential(plane_pipe, axis_values=np.linspace(-0.4, 0.4, 5))
    for b, B in zip(rec.b_hat, rec.B_hat):
        assert b.isclose(ParaComplex(0.0, -1.0), tol=1e-9)
        assert B.isclose(ParaComplex(0.0, 0.0), tol=1e-9)


def test_extraction_recovers_angle_function_square(cyl_pipe, plane_pipe):
    # the l-component of -4 i' b-hat must equal h(s,0)^2 / h(0,0)
    for pipe in (cyl_pipe, plane_pipe):
        rec = extract_normalized_potential(pipe, axis_values=np.linspace(-0.4, 0.4, 5))
        h00 = pipe.h_at(0.0, 0.0)
        for x, fv in zip(rec.axis_values, rec.f):
            expect = pipe.h_at(float(x), 0.0) ** 2 / h00
            assert abs(fv - expect) < 1e-7


def _polynomial_pipe():
    pot = translate_potential(
        "1 + 0.3*z - 0.15*z^2", "0.1*z + 0.05*z^2", "0.08 - 0.04*z", "0.02*z"
    )
    return Pipeline(
        pot,
        np.linspace(-0.5, 0.5, 11),
        np.linspace(-0.5, 0.5, 11),
        trunc_n=16,
        steps_per_cell=16,
        thetas=(0.0,),
    ).run()


def test_extraction_roundtrip_polynomial_potential():
    pipe = _polynomial_pipe()
    pot = pipe.potential
    rec = extract_normalized_potential(pipe, axis_values=np.linspace(-0.3, 0.3, 7))
    for k, x in enumerate(rec.axis_values):
        x = float(x)
        assert abs(rec.f[k] - pot.f.eval(x)) < 1e-7
        assert abs(rec.g[k] - pot.g.eval(x)) < 1e-7
        assert abs(rec.Q[k] - pot.Q.eval(x)) < 4e-7
        assert abs(rec.R[k] - pot.R.eval(x)) < 4e-7


@pytest.mark.parametrize("name", [*BUILTINS, "polynomial"])
def test_extraction_equals_the_point_by_point_reference(name):
    """f, Q, g, R and the point evaluator's tail account are the scalar
    extraction's (birkhoff_split, loop_inv, loop_mul), float.hex for float.hex."""
    if name == "polynomial":
        pipe, xs = _polynomial_pipe(), np.linspace(-0.3, 0.3, 7)
    else:
        pipe, xs = builtin_config(name).make_pipeline().run(), np.linspace(-0.4, 0.4, 5)
    ref_pipe = copy.deepcopy(pipe)
    rec = extract_normalized_potential(pipe, axis_values=xs)
    got = [[v.hex() for v in getattr(rec, key).tolist()] for key in "fQgR"]
    assert got == [[v.hex() for v in col.tolist()] for col in extraction_reference(ref_pipe, xs)]
    tails = [(p.point_tail.dropped.hex(), p.point_tail.kept.hex()) for p in (pipe, ref_pipe)]
    assert tails[0] == tails[1] and pipe.point_tail.kept > 0.0


def test_extraction_warns_and_raises_as_the_point_by_point_reference():
    """Frames outside the big cell at x1's s-stencil and at x0's t-stencil,
    and one near its boundary at (x0, 0): the extraction warns and raises as
    the scalar one, at x0's t-split, not at the first failure in stack order
    (x1's s-split).  The frame at (x0, 0) enters no difference; its split's
    warning is kept all the same."""

    def planted(a, eps):  # its splits' cond is a / eps
        terms = {-1: [[0.0, a], [0.0, 0.0]], 0: eps * np.eye(2), 1: [[0.0, 0.0], [-1.0 / a, 0.0]]}
        return TwistedLoop.from_terms(16, terms).c, 1.0  # a read-only row and its h

    x0, x1, delta = -0.2, 0.2, 1e-2
    frames = {
        (x0, 0.0): planted(3.0, 1e-13),
        (x1 - 2 * delta, 0.0): planted(1.0, 1e-15),
        (0.0, x0 + 2 * delta): planted(2.0, 1e-15),
    }
    outcomes = []
    for extract in (extract_normalized_potential, extraction_reference):
        pipe = _polynomial_pipe()
        pipe._point_cache.update(frames)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(NilWeierError) as info:
            warnings.simplefilter("always")
            extract(pipe, [x0, x1])
        outcomes.append(([str(w.message) for w in caught], type(info.value), str(info.value)))
    assert outcomes[0] == outcomes[1] == (
        ["factorization near big-cell boundary: cond=3.000e+13"],
        OutsideBigCell,
        "block-Toeplitz system is singular (cond=2.000e+15)",
    )


def test_extraction_of_no_abscissae_is_empty(cyl_pipe):
    rec = extract_normalized_potential(cyl_pipe, axis_values=[])
    for key in ("axis_values", "f", "Q", "g", "R"):
        assert getattr(rec, key).dtype == np.float64 and getattr(rec, key).shape == (0,)
    assert rec.b_hat == [] and rec.B_hat == []
    assert roundtrip_errors(cyl_pipe, []) == ([], 0.0)


# -- Minkowski integral representation ----------------------------------------------


def test_weierstrass_constant_spinors_flat_plane():
    def spinors(s, t):
        return ParaComplex(0.0, 0.0), ParaComplex(1.0, 0.0)

    sv = np.linspace(-1, 1, 5)
    tv = np.linspace(-1, 1, 5)
    vals = weierstrass_integral_L3(spinors, sv, tv)
    for i, s in enumerate(sv):
        for j, t in enumerate(tv):
            # d f = Phi dz + conj(Phi) dzbar with constant Phi = (1, i', 0)
            assert np.allclose(vals[i, j], [s + t, s - t, 0.0], atol=1e-12)


def test_weierstrass_path_independence(cyl_pipe):
    def spinors(s, t):
        return cyl_pipe.spinors_at(s, t, 0.1)[:2]

    a = integrate_weierstrass_path(spinors, [(0.0, 0.0), (0.8, 0.0), (0.8, 0.6)])
    b = integrate_weierstrass_path(spinors, [(0.0, 0.0), (0.0, 0.6), (0.8, 0.6)])
    assert np.abs(a - b).max() < 1e-9


def test_weierstrass_reproduces_sym_surface(cyl_pipe):
    theta = 0.0
    sv = np.linspace(-0.8, 0.8, 5)
    tv = np.linspace(-0.8, 0.8, 5)
    vals = weierstrass_integral_L3(
        lambda s, t: cyl_pipe.spinors_at(s, t, theta)[:2], sv, tv
    )
    sym_vals = np.array([[cyl_pipe.l3_at(s, t, theta) for t in tv] for s in sv])
    diff = vals - sym_vals
    shift = diff[0, 0]
    assert np.abs(diff - shift).max() < 1e-7
