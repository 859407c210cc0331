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
    loop_mul,
    pair_eval,
)
from nilweier import NilWeierError, factorization
from nilweier import pipeline as pipeline_module
from nilweier.loopalg import TailAccumulator
from nilweier.pipeline import (
    Pipeline,
    PotentialSpec,
    _AxisFlow,
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
    cylinder_frame,
    frame_point_reference,
    cylinder_nil,
    frame_error_mod_gauge,
    grid_loop,
    nil_translate_to,
    plane_frame,
    plane_nil,
    solve_axes_from_zero,
)
from nilweier.geometry import nil_mul


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
    flow = _AxisFlow(lambda x: np.zeros((2, 2)), -1, 6, 16.0, TailAccumulator())
    for x in (0.0, 0.5, -1.2):
        assert (flow.at(x) - TwistedLoop.identity(6)).norm() == 0.0


# a potential that varies along both axes, so every step position matters
VARYING = translate_potential("1 + z^2/4", "z/8", "cos(z)/16", "z/32")
UNIFORM_41 = np.linspace(-2, 2, 41)
# every nonzero node has its own step size: no two share a chain
DISTINCT_H = np.array([-1.17, -0.73, -0.31, 0.0, 0.29, 0.83, 1.37])


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
    for coeff_fn, deg in ((VARYING.xi_s, -1), (VARYING.xi_t, +1)):
        flows = [
            cls(coeff_fn, deg, 12, spu, TailAccumulator()) for cls in (_AxisFlow, FromZeroAxisFlow)
        ]
        point_tails = [TailAccumulator(), TailAccumulator()]
        flows[0].integrate_nodes(grid)
        calls = [(float(x), False) for x in rng.permutation(grid)]
        for k, x in enumerate(rng.uniform(-2.0, 2.0, 8)):
            calls.insert(int(rng.integers(0, len(calls) + 1)), (float(x), k % 2 == 0))
        calls += calls[:5]  # cached values record nothing
        for x, own_account in calls:
            new, ref = (
                flow.at(x, point_tail if own_account else None)
                for flow, point_tail in zip(flows, point_tails)
            )
            assert np.array_equal(new.c, ref.c), x
            for new_tail, ref_tail in ((flows[0].tail, flows[1].tail), point_tails):
                assert (new_tail.dropped, new_tail.kept) == (ref_tail.dropped, ref_tail.kept)
        assert flows[0].tail.kept > 0.0 and point_tails[0].kept > 0.0
        assert flows[0]._nodes == {}  # every chain state was handed out once


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
    """Each axis evaluates its potential 3 times per step of each chain's
    longest node (824 steps on 41 nodes), not per step of every node (3,360)."""
    calls = {"xi_s": 0, "xi_t": 0}
    for name in calls:
        original = getattr(PotentialSpec, name)

        def counted(self, x, name=name, original=original):
            calls[name] += 1
            return original(self, x)

        monkeypatch.setattr(PotentialSpec, name, counted)
    solve_frame_ode(VARYING, UNIFORM_41, UNIFORM_41, 8, 12)
    steps = sum(_chains(UNIFORM_41, 8).values())
    assert steps == 824
    assert calls == {"xi_s": 3 * steps, "xi_t": 3 * steps}


def _counted(coeff_fn, calls):
    def counted(x):
        calls.append(x)
        return coeff_fn(x)

    return counted


def test_stacked_stepper_equals_from_zero_reference():
    """One stack of the 41-node grid's chains and off-grid abscissae of other
    h and n: every value and tail record equals the from-0 integration, each
    chain steps once to its longest abscissa, and finished items stop."""
    spu = 8 / np.diff(UNIFORM_41).min()
    rng = np.random.default_rng(5)
    off_grid = [float(x) for x in rng.uniform(-2.0, 2.0, 12)] + [0.013, -1.9999]
    xs = [float(x) for x in UNIFORM_41] + off_grid
    for coeff_fn, deg in ((VARYING.xi_s, -1), (VARYING.xi_t, +1)):
        calls = []
        flow = _AxisFlow(_counted(coeff_fn, calls), deg, 12, spu, TailAccumulator())
        ref = FromZeroAxisFlow(coeff_fn, deg, 12, spu, TailAccumulator())
        flow.integrate_nodes(xs)
        lengths = {}
        for x in xs:
            if x != 0.0:
                n = max(1, math.ceil(abs(x) * spu - 1e-12))
                lengths[x / n] = max(lengths.get(x / n, 0), n)
        assert len(calls) == 3 * sum(lengths.values())
        for x in rng.permutation(xs):
            new, old = flow.at(x), ref.at(x)
            assert np.array_equal(new.c, old.c), x
            assert (flow.tail.dropped, flow.tail.kept) == (ref.tail.dropped, ref.tail.kept)
        assert flow._nodes == {} and len(calls) == 3 * sum(lengths.values())


def test_stacked_stepper_drops_an_item_whose_potential_raises():
    """f has no value for |s - 0.25| < 0.1: the items that step into that gap
    drop out of the stack mid-way, `at` raises their error at the same step
    after the same tail records, and the other items keep exact values."""
    pot = translate_potential("2 + sqrt(100*(z-0.25)^2 - 1)", "0", "0", "0")
    xs = [0.1, 0.149, 0.3, 0.6, 1.0, -0.2, -0.75, -1.5]
    flow = _AxisFlow(pot.xi_s, -1, 8, 16.0, TailAccumulator())
    ref = FromZeroAxisFlow(pot.xi_s, -1, 8, 16.0, TailAccumulator())
    flow.integrate_nodes(xs)
    raised = []
    for x in [-1.5, 0.6, 0.1, 0.3, -0.75, 1.0, -0.2, 0.149, 0.6]:
        outcomes = []
        for f in (flow, ref):
            try:
                outcomes.append(f.at(x).c)
            except EvalDomain as exc:
                outcomes.append(str(exc))
        new, old = outcomes
        if isinstance(old, str):
            raised.append(x)
            assert new == old
        else:
            assert np.array_equal(new, old), x
        assert (flow.tail.dropped, flow.tail.kept) == (ref.tail.dropped, ref.tail.kept)
    assert raised == [0.6, 0.3, 1.0, 0.6] and flow.tail.kept > 0.0


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
    phi_s = [flow_s.at(s) for s in s_grid]
    phi_t = [flow_t.at(t) for t in t_grid]
    return phi_s, phi_t, pot, s_grid, t_grid, initial


def _near_boundary_warnings(caught):
    return [str(w.message) for w in caught if "near big-cell boundary" in str(w.message)]


@pytest.mark.parametrize("initial", [False, True], ids=["plain", "umbrella"])
def test_sweep_equals_point_by_point_reference(initial, monkeypatch):
    phi_s, phi_t, pot, s_grid, t_grid, initial = _near_boundary_plane(initial)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = _reference_sweep(phi_s, phi_t, pot, s_grid, t_grid, initial)
    ref_warnings = _near_boundary_warnings(caught)
    inversions = []
    real_inv = factorization._inv_triangular

    def counted_inv(x, lower):
        inversions.append(x)
        return real_inv(x, lower)

    monkeypatch.setattr(factorization, "_inv_triangular", counted_inv)
    tail = TailAccumulator()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fg = build_extended_frames(phi_s, phi_t, pot, s_grid, t_grid, initial=initial, tail=tail)
    # Phi_s is inverted once per row, not once per gridpoint
    assert len(inversions) == len(s_grid)
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
    pt = cyl_pipe.frame_at(fg.s_grid[3], fg.t_grid[5])
    assert np.shares_memory(pt.loop.c, fg.frames)


def test_surface_at_keeps_each_angle_once(cyl_pipe, monkeypatch):
    """nil_at, l3_at and normal_at at one point and angle run the Sym formulas
    once; the kept rows are read-only and hold `_sym_point`'s bytes."""
    real = pipeline_module._sym_point
    calls = []

    def counted(loop, theta):
        calls.append(theta)
        return real(loop, theta)

    monkeypatch.setattr(pipeline_module, "_sym_point", counted)
    s, t = 0.3125, -0.2175  # off the grid, read by no other test
    nil = cyl_pipe.nil_at(s, t, 0.1)
    l3, normal = cyl_pipe.l3_at(s, t, 0.1), cyl_pipe.normal_at(s, t, 0.1)
    cyl_pipe.surface_at(s, t, -0.1)
    assert calls == [0.1, -0.1]
    expected = real(cyl_pipe.frame_at(s, t).loop, 0.1)
    assert [x.tobytes() for x in (nil, l3, normal)] == [x.tobytes() for x in expected]
    assert not any(x.flags.writeable for x in (nil, l3, normal))


def test_frame_at_reuses_the_sweeps_gridpoint_frames(cyl_pipe, plane_pipe, monkeypatch):
    fg = cyl_pipe.frame_grid
    monkeypatch.setattr("nilweier.pipeline._iwasawa_rows", _no_iwasawa)
    for (i, j), _ in np.ndenumerate(fg.holes):
        if fg.holes[i, j]:
            continue
        pt = cyl_pipe.frame_at(fg.s_grid[i], fg.t_grid[j])
        assert np.array_equal(pt.loop.c, grid_loop(fg, i, j).c)
        assert pt.h == fg.h[i, j]
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
    """(frames, point_tail, warnings, first error) of an evaluation."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            frames, error = evaluate(pipe), None
        except NilWeierError as exc:
            frames, error = None, (type(exc), str(exc), getattr(exc, "gridpoint", None))
    if frames is not None:
        frames = [(pt.loop.c, pt.h) for pt in frames]
    messages = [(w.category, str(w.message)) for w in caught]
    return frames, (pipe.point_tail.dropped, pipe.point_tail.kept), messages, error


def _assert_same(new, ref):
    frames, tail, messages, error = new
    assert (tail, messages, error) == ref[1:]
    assert (frames is None) == (ref[0] is None)
    for (c, *values), (ref_c, *ref_values) in zip(frames or [], ref[0] or [], strict=True):
        assert np.array_equal(c, ref_c) and values == ref_values


# off-grid points, some sharing s, one near the big-cell boundary (cond above
# COND_WARN), sweep gridpoints and duplicates
_PLANE_POINTS = [
    (0.3, -0.7), (1.0, -0.999999999999), (0.3, 0.45), (-1.5, 0.5), (0.0, 0.25),
    (0.5, 1.0), (1.0, 0.2), (0.3, -0.7), (-0.35, -0.35), (2.0, 2.0), (1.0, -0.4),
]


@pytest.mark.parametrize(
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
    ],
    ids=["off-grid", "outside-big-cell", "gauge-failure", "umbrella", "eval-domain"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_frames_at_equals_a_frame_at_loop(make, points, errors, seed):
    """Frames, h, point_tail, warnings and the first error with its gridpoint
    are those of a frame_at loop, in any order; after an error, the points
    left behind evaluate as the loop's do."""
    rng = np.random.default_rng(seed)
    points = [points[k] for k in rng.permutation(len(points))] if seed else points
    pipes = make(), make()
    new = _evaluate(pipes[0], lambda pipe: pipe.frames_at(points))
    ref = _evaluate(pipes[1], lambda pipe: [pipe.frame_at(s, t) for s, t in points])
    _assert_same(new, ref)
    if not errors:
        assert ref[3] is None and any("near big-cell boundary" in m for _, m in ref[2])
        return
    assert ref[3][0] in errors and ref[3][2] in points
    for point in points:
        outcomes = [_evaluate(pipe, lambda pipe: [pipe.frame_at(*point)]) for pipe in pipes]
        _assert_same(*outcomes)


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
    frames = pipe.frames_at(points)
    spu = 4 / 0.5
    ref_tail = TailAccumulator()
    flows = [FromZeroAxisFlow(pot.xi_s, -1, 12, spu, ref_tail), FromZeroAxisFlow(pot.xi_t, +1, 12, spu, ref_tail)]
    for flow in flows:
        for x in grid:  # the sweep's nodes, which the point evaluator finds cached
            flow.at(x, TailAccumulator())
    # the sweep's gridpoints are read from the sweep, and each point is split once
    done = {(float(s), float(t)) for s in grid for t in grid}
    for (s, t), pt in zip(points, frames, strict=True):
        if (s, t) in done:
            continue
        done.add((s, t))
        phi_s, phi_t = flows[0].at(s), flows[1].at(t)
        loop, h, _, _ = frame_point_reference(
            phi_s, phi_t, pot.f.eval(s), pot.g.eval(t), initial, ref_tail, (s, t)
        )
        assert np.array_equal(pt.loop.c, loop.c) and pt.h == h
        assert pipe.frame_at(s, t) is pt
    assert (pipe.point_tail.dropped, pipe.point_tail.kept) == (ref_tail.dropped, ref_tail.kept)
    assert ref_tail.dropped > 0.0


def test_frames_at_names_a_point_tail_overflow():
    cylinder = translate_potential("1", "0", "0.0625", "0")
    pipes = [_fresh_plane(pot=cylinder, grid=np.linspace(-1, 1, 5)) for _ in range(2)]
    for pipe in pipes:
        pipe.point_tail.bound = 1e-300
    points = [(0.0, 0.5), (0.15, -0.35), (0.25, 0.45)]
    new = _evaluate(pipes[0], lambda pipe: pipe.frames_at(points))
    ref = _evaluate(pipes[1], lambda pipe: [pipe.frame_at(s, t) for s, t in points])
    _assert_same(new, ref)
    assert ref[3][0] is TruncationOverflow and ref[3][2] == (0.15, -0.35)


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
    diff = f0.loop - TwistedLoop.from_terms(16, {k: A.coeff(k) for k in range(-4, 5)})
    assert diff.norm() < 1e-12


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


def test_extraction_roundtrip_polynomial_potential():
    pot = translate_potential(
        "1 + 0.3*z - 0.15*z^2", "0.1*z + 0.05*z^2", "0.08 - 0.04*z", "0.02*z"
    )
    pipe = Pipeline(
        pot,
        np.linspace(-0.5, 0.5, 11),
        np.linspace(-0.5, 0.5, 11),
        trunc_n=16,
        steps_per_cell=16,
        thetas=(0.0,),
    ).run()
    rec = extract_normalized_potential(pipe, axis_values=np.linspace(-0.3, 0.3, 7))
    for k, x in enumerate(rec.axis_values):
        x = float(x)
        assert abs(rec.f[k] - pot.f.eval(x)) < 1e-7
        assert abs(rec.g[k] - pot.g.eval(x)) < 1e-7
        assert abs(rec.Q[k] - pot.Q.eval(x)) < 4e-7
        assert abs(rec.R[k] - pot.R.eval(x)) < 4e-7


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
