"""End-to-end generalized Weierstrass representation.

Pipeline stages, all over the real pair (null coordinate) picture:

  1. A potential (f(s), g(t), Q(s), R(t)) defines the 1-form pair
         xi_s = lam^{-1} [[0, -f/4], [Q/f, 0]] ds,
         xi_t = lam      [[0, -R/g], [g/4, 0]] dt.
  2. RK4 integrates  d Phi_s = Phi_s xi_s,  d Phi_t = Phi_t xi_t  from 0,
     so Phi_s lives in Lambda^-_* and Phi_t in Lambda^+_*.
  3. Per gridpoint the Iwasawa decomposition produces the unitary-type frame
     F = Phi_s V_+^{-1} with V_+(0) = id, then a diagonal gauge diag(d, 1/d)
     with d^4 = f/(g d22^2) normalizes the off-diagonal lam^{-+1} Maurer-
     Cartan coefficients to (-h/4, h/4), where d22 is the constant diagonal
     of V_- and the angle function is h = sqrt(f g) * d22 > 0.
  4. Sym-type formulas evaluated exactly from Laurent coefficients give the
     Minkowski surface (CMC 1/2), its unit normal and the Heisenberg-group
     minimal surface, per spectral angle theta (mu = e^(i' theta)).

The reverse direction (normalized-potential extraction) Birkhoff-splits the
frame along the coordinate axes and differentiates the normalized factors,
one stack per axis through the same row kernels as the sweep.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import factorization
from .errors import (
    DegeneratePotential,
    DegenerateSpinors,
    EvalDomain,
    GaugeFailure,
    OutsideBigCell,
    SingularLoop,
    TruncationOverflow,
)
from .expressions import (
    Expression,
    combine,
    const_times,
    parse_expression,
    rename_variable,
)
from .factorization import (
    _full_conds,
    _iwasawa_rows,
    _loops,
    _near_max,
    _split_rows,
    birkhoff_split,  # noqa: F401  perfbench/tracer.py binds this name
    iwasawa_double,  # noqa: F401  perfbench/tracer.py binds this name
)
from .loopalg import (
    SIGMA3,
    LoopPair,
    TailAccumulator,
    TwistedLoop,
    _Effects,
    _expand,
    _mul_rows,
    _parity_swap,
    _play,
    _scale_rows,
    _shift_compact,
    _shift_masses,
    _slots,
    loop_inv,  # noqa: F401  perfbench/tracer.py binds this name
    loop_mul,  # noqa: F401  perfbench/tracer.py binds this name
    pair_eval,
)
from .paracomplex import ParaComplex

__all__ = [
    "PotentialSpec",
    "translate_potential",
    "pair_potential",
    "solve_frame_ode",
    "build_extended_frames",
    "sym_map",
    "extract_normalized_potential",
    "weierstrass_integral_L3",
    "FrameGrid",
    "SurfaceGrid",
    "Pipeline",
]

_VANISH_TOL = 1e-12
_NOTHING = (np.zeros((0, 2)), (), None)  # a `_play` part with no effect


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialSpec:
    """Para-holomorphic potential in real-pair form.

    The four coefficient functions are f(s), g(t), Q(s), R(t).  For
    normalized data (b, B) f = Re b + Im b, g = Re b - Im b,
    Q = 4(Re B + Im B), R = 4(Re B - Im B), all read on the real axis.
    """

    f: Expression
    g: Expression
    Q: Expression
    R: Expression

    def xi_s(self, s: float) -> np.ndarray:
        fv = self.f.eval(s)
        if abs(fv) < _VANISH_TOL:
            raise DegeneratePotential(f"f vanishes at s={s}")
        return np.array([[0.0, -fv / 4.0], [self.Q.eval(s) / fv, 0.0]])

    def xi_t(self, t: float) -> np.ndarray:
        gv = self.g.eval(t)
        if abs(gv) < _VANISH_TOL:
            raise DegeneratePotential(f"g vanishes at t={t}")
        return np.array([[0.0, -self.R.eval(t) / gv], [gv / 4.0, 0.0]])

    def xi_s_rows(self, xs: np.ndarray) -> np.ndarray:
        """`np.stack([self.xi_s(x) for x in xs])` for a float64 array xs, from
        the row forms of f and Q: the same bits, and NaN where `xi_s` raises."""
        return _xi_rows(self.f.rows(xs), self.Q.rows(xs), lambda f, q: (-f / 4.0, q / f))

    def xi_t_rows(self, xs: np.ndarray) -> np.ndarray:
        """`np.stack([self.xi_t(x) for x in xs])`, as `xi_s_rows`."""
        return _xi_rows(self.g.rows(xs), self.R.rows(xs), lambda g, r: (-r / g, g / 4.0))


def _xi_rows(lead: np.ndarray, other: np.ndarray, entries) -> np.ndarray:
    """The (L, 2, 2) stack whose off-diagonal entries are `entries` of the row
    values of the leading coefficient and the other one; NaN where either is
    marked or the leading one vanishes, since the scalar `xi` raises there."""
    out = np.zeros((len(lead), 2, 2))
    with np.errstate(all="ignore"):  # Python's float division overflows quietly; marks are set below
        out[:, 0, 1], out[:, 1, 0] = entries(lead, other)
    out[np.isnan(other) | ~(np.abs(lead) >= _VANISH_TOL)] = np.nan
    return out


def translate_potential(b_re: str, b_im: str, B_re: str, B_im: str) -> PotentialSpec:
    """Build the real-pair potential from normalized data b(z), B(z).

    The arguments are expression sources in the neutral axis variable `z`
    (the real-axis restriction of the para-holomorphic functions); the
    translated coefficients read them on the s-axis and the t-axis.
    """
    bre = parse_expression(b_re, "z")
    bim = parse_expression(b_im, "z")
    Bre = parse_expression(B_re, "z")
    Bim = parse_expression(B_im, "z")
    return PotentialSpec(
        f=rename_variable(combine("+", bre, bim), "s"),
        g=rename_variable(combine("-", bre, bim), "t"),
        Q=rename_variable(const_times(4.0, combine("+", Bre, Bim)), "s"),
        R=rename_variable(const_times(4.0, combine("-", Bre, Bim)), "t"),
    )


def pair_potential(f: str, g: str, Q: str, R: str) -> PotentialSpec:
    return PotentialSpec(
        f=parse_expression(f, "s"),
        g=parse_expression(g, "t"),
        Q=parse_expression(Q, "s"),
        R=parse_expression(R, "t"),
    )


# ---------------------------------------------------------------------------
# holomorphic frame ODE
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _naming(gridpoint):
    """Re-raise a truncation or potential error as one naming its gridpoint;
    a split's error is given the gridpoint."""
    try:
        yield
    except (OutsideBigCell, GaugeFailure) as exc:
        exc.gridpoint = gridpoint
        raise
    except (TruncationOverflow, EvalDomain, DegeneratePotential) as exc:
        s, t = gridpoint
        raise type(exc)(f"{exc} at gridpoint (s={s}, t={t})", gridpoint=gridpoint) from exc


class _AxisFlow:
    """RK4 flow of d Phi = Phi * (lam^deg A(x)) dx, deg = -1 or +1, from the
    basepoint x = 0.

    The value at x is n = ceil(|x| * steps_per_unit) RK4 steps of size
    h = x / n from Phi(0) = id.  Step k evaluates A at k h, k h + h/2 and
    (k + 1) h, so the state after m steps is a function of (h, m) alone, and
    abscissae that share h lie on one chain of states.  `_integrate` runs
    each chain once, to its longest abscissa, in one stack with the chains of
    other flows, and keeps every abscissa's read-only state with its chain's
    prefix of the stack's tail records.  `part` hands the records over, with
    the potential's error where a step's read is marked, for `_play` to
    perform, until `hand_out` drops them.  So every value and every tail
    record is bit-identical to an integration from 0 at the call, whatever
    the evaluation order.  A is read through `coeff_rows`, which maps a
    float64 array of abscissae to the (L, 2, 2) stack of their A, NaN where
    the scalar `coeff` raises, as `PotentialSpec.xi_s_rows` and `xi_s` do;
    A must be off-diagonal, as the potential's is, since the stack steps in
    compact form.
    """

    def __init__(self, coeff_rows, coeff, deg: int, N: int, steps_per_unit: float):
        self.coeff_rows = coeff_rows
        self.coeff = coeff
        self.deg = deg
        self.N = N
        self.spu = float(steps_per_unit)
        identity = np.zeros((2 * N + 1, 2, 2))
        identity[N] = np.eye(2)
        identity.setflags(write=False)
        # abscissa -> (read-only state or None, the tail records of its stack
        # until it is first handed out, its chain, how many steps of them it
        # owns, the positions of the step whose potential read is marked)
        self._nodes: dict[float, tuple] = {0.0: (identity, None, 0, 0, None)}

    def _steps(self, x: float) -> tuple[int, float]:
        n = max(1, int(math.ceil(abs(x) * self.spu - 1e-12)))
        return n, x / n

    def state(self, x: float) -> np.ndarray | None:
        """The read-only state at x; None if it is not integrated or its potential raised."""
        return self._nodes.get(x, (None,))[0]

    def part(self, x: float) -> tuple:
        """The node at x as a `_play` part: its records and potential error until handed out."""
        _, records, chain, steps, failed = self._nodes[x]
        if records is None:
            return _NOTHING
        masses = records[:steps, :, chain].reshape(-1, 2)
        try:
            for position in failed or ():  # the marked step: its scalar reads' first error
                self.coeff(position)
        except (EvalDomain, DegeneratePotential) as exc:
            return masses, (), exc
        return masses, (), None

    def hand_out(self, x: float) -> None:
        """Drop the records of the node at x, once its part has been played."""
        phi, _, chain, steps, _ = self._nodes[x]
        self._nodes[x] = phi, None, chain, steps, None


def _integrate(*requests) -> None:
    """Step the chains of several flows' abscissae as one stack, one RK4 step
    at a time: for each (flow, xs), those of xs the flow has no node for;
    the flows share one truncation N.  Each chain steps to its longest
    abscissa and keeps the state after m steps for each abscissa that needs m.

    Each flow reads its potential once, at every position of its chains; a
    chain stops at its first step with a marked position, which its later
    abscissae keep.  The chains are ordered by their last step, so the live
    ones are a prefix of the stack.  They step in the compact form of
    `_shift_compact`, t chains (lam^+1) with their degrees reversed, so that
    one slice shifts every chain.  The four stages' tail masses go, in one
    pass per step, into one (steps, 4, chains, 2) array.
    """
    chains = []  # [flow, h, {step count: abscissae}, positions of the step that raises]
    for flow, xs in requests:
        own: dict[float, dict[int, list[float]]] = {}
        for x in map(float, xs):
            if x not in flow._nodes:
                n, h = flow._steps(x)
                own.setdefault(h, {}).setdefault(n, []).append(x)
        chains += [[flow, h, stops, None] for h, stops in own.items()]
    if not chains:
        return
    chains.sort(key=lambda chain: -max(chain[2]))
    lengths = np.array([max(stops) for _, _, stops, _ in chains])
    hs = np.array([h for _, h, _, _ in chains])
    records = np.empty((lengths[0], 4, len(chains), 2))
    ks = np.arange(lengths[0])[:, None]
    pos = ks * hs
    pos[0] = 0.0
    positions = np.stack([pos, pos + hs / 2.0, pos + hs], axis=-1)  # (steps, chains, 3)
    coeffs = np.empty((*pos.shape, 3, 2))  # the (A01, A10) of each position's A

    def read(flow, at):
        return flow.coeff_rows(at.ravel()).reshape(*at.shape[:-1], 3, 4)[..., 1:3]

    for flow, _ in requests:
        mine = (ks < lengths) & [chain[0] is flow for chain in chains]
        if mine.any():
            coeffs[mine] = read(flow, positions[mine])
    marked = np.isnan(coeffs).any(axis=(2, 3)) & (ks < lengths)  # (steps, chains)
    first = marked.argmax(axis=0)
    for b in np.flatnonzero(marked.any(axis=0)):
        lengths[b], chains[b][3] = first[b], positions[first[b], b].tolist()
    del positions, pos
    if np.any(lengths[1:] > lengths[:-1]):  # a marked chain stops early: order again
        order = np.argsort(-lengths, kind="stable")
        chains, lengths, hs = [chains[b] for b in order], lengths[order], hs[order]
        coeffs = coeffs[:, order]
    N = chains[0][0].N
    n = 2 * N + 1
    stops_at: dict[int, list] = {}
    for b, (flow, _, stops, failed) in enumerate(chains):
        for m, xs in stops.items():
            if m <= lengths[b]:
                stops_at.setdefault(m, []).append((b, flow, xs))
            else:
                flow._nodes.update((x, (None, records, b, lengths[b], failed)) for x in xs)
    reverse = np.array([flow.deg > 0 for flow, *_ in chains])
    at = _slots(n, -N).reshape(n, 2)  # each chain's kept entries in the dense layout
    at = np.where(reverse[:, None, None], at[::-1], at).reshape(-1, 2 * n).repeat(4, axis=0)
    at += 4 * n * np.arange(len(at))[:, None]  # flat, in the (4 * chains, 4n) mass buffer
    swap = _parity_swap(n)
    phi = np.zeros((len(chains), n, 2))
    phi[:, N] = 1.0
    kept, dropped = np.zeros((len(chains), 4, n, 2)), np.empty((len(chains), 4, 2))
    buf = np.zeros((4 * len(chains), 4 * n))
    live = np.searchsorted(-lengths, -np.arange(lengths[0])).tolist()
    with np.errstate(all="ignore"):  # a non-finite state fails the account through its masses
        for k, L in enumerate(live):
            c, A, h, K, D = phi[:L], coeffs[k, :L], hs[:L, None, None], kept[:L], dropped[:L]
            Ag = A[..., swap]  # (L, 3, n, 2)
            half = h / 2.0
            k1 = _shift_compact(c, Ag[:, 0], K[:, 0], D[:, 0])
            x1 = c + half * k1
            k2 = _shift_compact(x1, Ag[:, 1], K[:, 1], D[:, 1])
            x2 = c + half * k2
            k3 = _shift_compact(x2, Ag[:, 1], K[:, 2], D[:, 2])
            x3 = c + h * k3
            k4 = _shift_compact(x3, Ag[:, 2], K[:, 3], D[:, 3])
            new = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            masses = _shift_masses(
                K.reshape(-1, n, 2), D.reshape(-1, 2), at[: 4 * L], buf[: 4 * L],
                lambda: (np.stack((c, x1, x2, x3), axis=1), A[:, [0, 1, 1, 2]]),
            )
            records[k, :, :L] = masses.reshape(L, 4, 2).swapaxes(0, 1)
            phi[:L] = new
            for b, flow, xs in stops_at.get(k + 1, ()):
                state = _expand(new[b, :: -1 if reverse[b] else 1][None], -N)[0]
                state.setflags(write=False)
                flow._nodes.update((x, (state, records, b, k + 1, None)) for x in xs)


def solve_frame_ode(
    potential: PotentialSpec,
    s_grid,
    t_grid,
    steps_per_cell: int,
    trunc_n: int,
    tail: TailAccumulator | None = None,
):
    """Integrate the two holomorphic frame ODEs along the axes.

    Returns (phi_s list over s_grid, phi_t list over t_grid, flow_s, flow_t):
    one `TwistedLoop` per node, sharing its flow's read-only state; the flows
    hand out the states of off-grid points too.  Every chain of both axes'
    nodes runs once, in one compact stack (see `_integrate`), and the nodes'
    tail masses are recorded in grid order, s axis first.  Every frame and
    the tail account are bit-identical to integrating each node from 0, and
    a truncation or potential error names the node it arose at: (s, 0.0) or
    (0.0, t).
    """
    s_grid = np.asarray(s_grid, float)
    t_grid = np.asarray(t_grid, float)
    for name, grid in (("s", s_grid), ("t", t_grid)):
        if grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError(f"{name} grid must be strictly increasing with >= 2 samples")
        if not np.any(grid == 0.0):
            raise ValueError(f"{name} grid must contain the basepoint 0")
    if steps_per_cell < 1:
        raise ValueError("steps_per_cell must be >= 1")
    tail = tail if tail is not None else TailAccumulator()
    min_cell = float(min(np.diff(s_grid).min(), np.diff(t_grid).min()))
    spu = steps_per_cell / min_cell
    flow_s = _AxisFlow(potential.xi_s_rows, potential.xi_s, -1, trunc_n, spu)
    flow_t = _AxisFlow(potential.xi_t_rows, potential.xi_t, +1, trunc_n, spu)
    axes = (
        (potential.f, flow_s, [(float(s), 0.0) for s in s_grid]),
        (potential.g, flow_t, [(0.0, float(t)) for t in t_grid]),
    )
    for axis, (coeff, _, points) in enumerate(axes):
        failed = ~(np.abs(coeff.rows(np.array([point[axis] for point in points]))) >= _VANISH_TOL)
        if failed.any():  # the first marked or vanishing node: its scalar read's error, naming it
            point = points[failed.argmax()]
            with _naming(point):
                coeff.eval(point[axis])
                raise DegeneratePotential(f"{'fg'[axis]} vanishes at sampled {coeff.variable}={point[axis]}")
    _integrate((flow_s, s_grid), (flow_t, t_grid))
    nodes = [(flow, point, point[axis]) for axis, (_, flow, points) in enumerate(axes) for point in points]
    _play([flow.part(x) for flow, _, x in nodes], tail, (), lambda i: _naming(nodes[i][1]))
    for flow, _, x in nodes:
        flow.hand_out(x)
    loops = [TwistedLoop(trunc_n, flow.state(x), enforce_parity=False) for flow, _, x in nodes]
    return loops[: len(s_grid)], loops[len(s_grid) :], flow_s, flow_t


# ---------------------------------------------------------------------------
# Iwasawa + gauge normalization
# ---------------------------------------------------------------------------


def _rows_once(expr: Expression, xs: np.ndarray) -> np.ndarray:
    """`expr.rows(xs)`, reading each distinct bit pattern of xs once, so that
    -0.0 and 0.0 are read apart."""
    _, first, inverse = np.unique(xs.view(np.int64), return_index=True, return_inverse=True)
    return expr.rows(xs[first])[inverse]


def _split_points(rows, potential, initial):
    """Frames of rows of (point, Phi_s, Phi_t) items, in batches of whole
    rows, taken while four (2N+1, 2, 2) float64 loops per item fit
    factorization._BATCH_BYTES, and at least one: it takes 8 grid rows of 15
    at N = 20, 6 of 25 at N = 16 and 5 of 9 at N = 48.  Yields
    `_split_batch` of each batch; it keeps nothing of a batch once yielded."""
    batches = []
    for row in filter(None, rows):
        item_bytes = 4 * len(row[0][2]) * 32  # its W, V+^{-1}, V- and frame
        if not batches or (len(batches[-1]) + len(row)) * item_bytes > factorization._BATCH_BYTES:
            batches.append([])
        batches[-1] += row
    for batch in batches:
        yield _split_batch(batch, potential, initial)


def _split_batch(batch, potential, initial):
    """The frames of a batch of (point, Phi_s, Phi_t) items: f and g as rows,
    read once per distinct s and t, one stack of its distinct Phi_s (one per
    s), the Iwasawa split, the diagonal gauge and the initial-frame product.
    Returns (points, effects, frames, h, gauge_log, conditioning); the
    effects play as batches of one's.  An item whose f or g is marked fails
    with its scalar read's error, before its split; a nonpositive angle
    function is a GaugeFailure."""
    with np.errstate(all="ignore"):  # non-finite frames become holes or errors by their values
        points, phi_s, phi_t = zip(*batch)
        fx = _Effects(len(points))
        s, t = np.array(points).T
        # one Phi_s per distinct s; -0.0 and 0.0 are one s, both reading the identity node
        _, first, index = np.unique(s, return_index=True, return_inverse=True)
        f_vals, g_vals = _rows_once(potential.f, s), _rows_once(potential.g, t)
        for b in np.flatnonzero(np.isnan(f_vals) | np.isnan(g_vals)).tolist():
            try:  # the scalar reads at Python floats, for their exact error
                potential.f.eval(points[b][0]), potential.g.eval(points[b][1])
            except EvalDomain as exc:  # kept without tracebacks, whose frames would hold `fx`
                if exc.__cause__ is not None:  # the closure's error, caught in `eval`
                    exc.__cause__.with_traceback(None)
                fx.fail(b, exc.with_traceback(None))
        frame, _, vminus, conds = _iwasawa_rows(np.stack([phi_s[b] for b in first]), index, phi_t, fx)
        N = frame.shape[1] // 2
        d22, fg = vminus[:, N, 1, 1].copy(), f_vals * g_vals
        for b in np.flatnonzero(fx.alive & ((fg <= 0.0) | (d22 <= 1e-13))).tolist():
            message = f"angle function not positive (f*g={fg[b]:.3e}, d22={d22[b]:.3e})"
            fx.fail(b, GaugeFailure(message, gridpoint=points[b]))
        kept = fx.alive
        h = np.where(kept, np.sqrt(fg) * d22, np.nan)
        # libm pow and log on Python floats: numpy's may differ in the last bit
        d = np.ones(len(frame))
        d[kept] = [x**0.25 for x in (f_vals / (g_vals * d22 * d22))[kept].tolist()]
        gauge_log = np.where(kept, [math.log(x) for x in d.tolist()], np.nan)
        frame = _scale_rows(frame, d)
        if initial is not None:
            frame = _mul_rows(np.broadcast_to(initial.c, frame.shape), frame, fx)
    return points, fx, frame, h, gauge_log, conds


@dataclass
class FrameGrid:
    s_grid: np.ndarray
    t_grid: np.ndarray
    trunc_n: int
    frames: np.ndarray  # read-only (ns, nt, 2N+1, 2, 2) coefficients of F, zero at holes
    h: np.ndarray
    gauge_log: np.ndarray
    # per point, the split's conditioning: the half-block value, or
    # np.linalg.cond's above the cutoff (factorization._conditioning)
    conditioning: np.ndarray
    holes: np.ndarray  # bool mask
    hole_errors: list = field(default_factory=list)
    max_conditioning: float | None = None  # np.linalg.cond's largest kept value


def build_extended_frames(
    phi_s_list,
    phi_t_list,
    potential: PotentialSpec,
    s_grid,
    t_grid,
    initial: TwistedLoop | None = None,
    tail: TailAccumulator | None = None,
) -> FrameGrid:
    """Per-gridpoint Iwasawa decomposition plus diagonal gauge normalization.

    The grid rows go to `_split_points` in order, each row's points sharing
    one Phi_s, and each row's effects are played in one call, as
    point-by-point factorization has them.  Points outside the big cell
    (or with nonpositive angle function) become holes; a TruncationOverflow
    is fatal and names the gridpoint it arose at.  `max_conditioning` is the
    largest np.linalg.cond over the kept points, taken after the sweep among
    those within the half-block values' slack of the largest
    (factorization._near_max), whose split loops W are built again.
    """
    s_grid = np.asarray(s_grid, float)
    t_grid = np.asarray(t_grid, float)
    ns, nt = len(s_grid), len(t_grid)
    N = phi_s_list[0].N
    frames = np.zeros((ns, nt, 2 * N + 1, 2, 2))
    h = np.full((ns, nt), np.nan)
    gauge_log = np.full((ns, nt), np.nan)
    conditioning = np.full((ns, nt), np.nan)
    holes = np.zeros((ns, nt), dtype=bool)
    hole_errors: list = []
    tail = tail if tail is not None else TailAccumulator()
    rows = [
        [((s, t), phi_s.c, phi_t.c) for t, phi_t in zip(t_grid.tolist(), phi_t_list)]
        for s, phi_s in zip(s_grid.tolist(), phi_s_list)
    ]
    i = 0  # the grid row
    for gridpoints, fx, *batch in _split_points(rows, potential, initial):
        for lo in range(0, len(gridpoints), nt):
            frame, h_row, log_row, conds = (stack[lo : lo + nt] for stack in batch)
            # Each row has its own account, merged in row order: the overflow
            # check runs against the row's mass, and the merged sums are the
            # manifest's tail_relative, so their order must not change.
            row_tail = TailAccumulator(tail.bound)
            failures = fx.play(
                lo, lo + nt, row_tail, (OutsideBigCell, GaugeFailure), lambda b: _naming(gridpoints[b])
            )
            holes[i] = [exc is not None for exc in failures]
            hole_errors += [(i, j, type(e).__name__, str(e)) for j, e in enumerate(failures) if e]
            kept = ~holes[i]
            for out, row in ((frames, frame), (h, h_row), (gauge_log, log_row), (conditioning, conds)):
                out[i, kept] = row[kept]
            tail.merge(row_tail)
            i += 1
        del batch, frame  # not kept while the next batch is split
    frames.setflags(write=False)  # the point cache's rows are views of it
    # the kept points whose np.linalg.cond may be the largest (holes are NaN),
    # and their split loops W = Phi_s^{-1} Phi_t built again
    near = np.argwhere(_near_max(conditioning, 2 * N))
    phi_s, phi_t = (np.array([rows[i][j][k] for i, j in near]).reshape(-1, *frames.shape[2:]) for k in (1, 2))
    w = _loops(phi_s, np.arange(len(near)), phi_t, _Effects(len(near)))
    return FrameGrid(
        s_grid=s_grid,
        t_grid=t_grid,
        trunc_n=N,
        frames=frames,
        h=h,
        gauge_log=gauge_log,
        conditioning=conditioning,
        holes=holes,
        hole_errors=hole_errors,
        max_conditioning=float(_full_conds(w, +1).max()) if len(w) else None,
    )


# ---------------------------------------------------------------------------
# Sym-type formulas
# ---------------------------------------------------------------------------


def _lam_weights(theta: float, N: int, count: int = 3) -> tuple[np.ndarray, ...]:
    """(e^(theta k), k e^(theta k), k^2 e^(theta k))[:count] over |k| <= N.  A
    ValueError names theta and N where one is not finite: the lam-sums would
    be NaN there, as the weight meets the zeros of the twisting parity."""
    ks = np.arange(-N, N + 1, dtype=float)
    with np.errstate(all="ignore"):
        try:
            powers = math.exp(theta) ** ks
        except OverflowError:
            powers = math.inf * ks
        weights = (powers, ks * powers, ks**2 * powers)[:count]
    if not np.isfinite(weights).all():
        raise ValueError(f"spectral angle {theta!r} overflows e^(theta k) at |k| <= truncationN = {N}")
    return weights


def _lam_sums(c: np.ndarray, theta: float, count: int) -> list[np.ndarray]:
    """(lam d/dlam)^k F(lam = e^theta), k < count, of a C-contiguous (B, 2N+1, 2, 2)
    stack: each (B, 2, 2), one BLAS dot per item as in `TwistedLoop.eval`."""
    B, L = c.shape[:2]
    flat = c.reshape(B, L, 4)
    return [np.matmul(w, flat).reshape(B, 2, 2) for w in _lam_weights(theta, L // 2, count)]


def _sym_rows(c: np.ndarray, theta: float, points=None):
    """Surface data of a C-contiguous (B, 2N+1, 2, 2) stack of frames at one
    spectral angle: (nil, l3, normal), each of shape (B, 3).

    Everything is exact in the spectral parameter: with D = (lam dF) F^{-1},
    C = F s3 F^{-1}, E = (lam d)^2 F * F^{-1} evaluated at lam = e^theta, the
    l-slot of the Minkowski surface is G = -D - C/2, the l-slot of its mu-log
    derivative is A = -(E - D^2) - [D, C]/2, and the coordinates read

        L3:  (p, q, r) = (-(G01 + G10), G10 - G01, 2 G00)
        nil: (x1, x2, x3) = (G10 - G01, -(G01 + G10), -A00)
        normal: (-(C01 + C10)/2, (C10 - C01)/2, C00).

    The lam-sums are `_lam_sums`' and the 2x2 products batched `@`: each
    item has the scalar evaluation's bits.  A det F(e^theta) of 0 or not
    finite raises SingularLoop before the division, naming theta and, where
    `points` holds the items' (s, t), the first such item's gridpoint.
    """
    M, M1, M2 = _lam_sums(c, theta, 3)
    with np.errstate(all="ignore"):  # a det that overflows raises below
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    bad = np.flatnonzero(~np.isfinite(det) | (det == 0.0))
    if len(bad):
        at = "" if points is None else " at gridpoint (s={}, t={})".format(*map(float, points[bad[0]]))
        raise SingularLoop(f"frame has det {float(det[bad[0]])!r} at spectral angle {theta!r}{at}")
    Minv = np.stack([M[:, 1, 1], -M[:, 0, 1], -M[:, 1, 0], M[:, 0, 0]], axis=1)
    Minv = Minv.reshape(-1, 2, 2) / det[:, None, None]
    D = M1 @ Minv
    E = M2 @ Minv
    C = M @ SIGMA3 @ Minv
    G = -D - 0.5 * C
    A = -(E - D @ D) - 0.5 * (D @ C - C @ D)
    G, A, C = (x.transpose(1, 2, 0) for x in (G, A, C))  # entries first: G[0, 1] is (B,)
    l3 = np.stack([-(G[0, 1] + G[1, 0]), G[1, 0] - G[0, 1], 2.0 * G[0, 0]], axis=1)
    nil = np.stack([G[1, 0] - G[0, 1], -(G[0, 1] + G[1, 0]), -A[0, 0]], axis=1)
    normal = np.stack([-(C[0, 1] + C[1, 0]) / 2.0, (C[1, 0] - C[0, 1]) / 2.0, C[0, 0]], axis=1)
    return nil, l3, normal


def _sym_point(frame: TwistedLoop, theta: float):
    """Surface data at one frame and spectral angle: `_sym_rows`' batch of one."""
    return tuple(out[0] for out in _sym_rows(frame.c[None], theta))


@dataclass
class SurfaceGrid:
    thetas: np.ndarray
    s_grid: np.ndarray
    t_grid: np.ndarray
    nil: np.ndarray  # (n_theta, ns, nt, 3)
    l3: np.ndarray
    normals: np.ndarray
    holes: np.ndarray  # (ns, nt) spectral-angle independent


def sym_map(fr: FrameGrid, thetas) -> SurfaceGrid:
    """One `_sym_rows` call per angle on the frames outside the holes, which
    names the gridpoint of a singular frame; NaN at holes."""
    thetas = np.asarray(thetas, float)
    shape = (len(thetas), *fr.holes.shape, 3)
    nil = np.full(shape, np.nan)
    l3 = np.full(shape, np.nan)
    normals = np.full(shape, np.nan)
    kept = ~fr.holes
    frames = fr.frames[kept]
    points = np.stack(np.meshgrid(fr.s_grid, fr.t_grid, indexing="ij"), axis=-1)[kept]
    for k, theta in enumerate(thetas):
        nil[k, kept], l3[k, kept], normals[k, kept] = _sym_rows(frames, float(theta), points)
    return SurfaceGrid(
        thetas=thetas,
        s_grid=fr.s_grid,
        t_grid=fr.t_grid,
        nil=nil,
        l3=l3,
        normals=normals,
        holes=fr.holes.copy(),
    )


# ---------------------------------------------------------------------------
# pipeline facade
# ---------------------------------------------------------------------------


class Pipeline:
    """Owns one run: potential, axis flows, frame grid, surfaces.

    Also serves as the exact point evaluator behind all finite-difference
    verification: `frames_at` and `surfaces_at` take a check's whole stencil,
    reuse the sweep's gridpoint frames and compute any other point exactly,
    never by interpolation, through the sweep's own batch driver
    (`_split_points`); `frame_at`, `h_at`, `surface_at` and `spinors_at` read
    one point.  A point's frame is kept as a read-only row of `FrameGrid.frames`
    or of its miss batch's stack, with its h; no surface or spinor is kept.
    Its axis frames are bit-identical to an integration from 0, whatever was
    evaluated before; its dropped tail mass goes to `point_tail`, never to
    the run's `tail`; and a truncation or potential error names the point.
    """

    def __init__(
        self,
        potential: PotentialSpec,
        s_grid,
        t_grid,
        trunc_n: int,
        steps_per_cell: int,
        thetas=(0.0,),
        initial_frame: TwistedLoop | None = None,
        tail_bound: float | None = None,
    ):
        self.potential = potential
        self.s_grid = np.asarray(s_grid, float)
        self.t_grid = np.asarray(t_grid, float)
        self.trunc_n = int(trunc_n)
        self.steps_per_cell = int(steps_per_cell)
        self.thetas = np.asarray(thetas, float)
        self.tail = TailAccumulator() if tail_bound is None else TailAccumulator(tail_bound)
        self.point_tail = TailAccumulator(self.tail.bound)
        if initial_frame is not None and initial_frame.N != self.trunc_n:
            terms = dict(enumerate(initial_frame.c, -initial_frame.N))  # nonzero past trunc_n raises
            initial_frame = TwistedLoop.from_terms(self.trunc_n, terms)
        self.initial_frame = initial_frame
        self.phi_s, self.phi_t, self._flow_s, self._flow_t = solve_frame_ode(
            potential, self.s_grid, self.t_grid, self.steps_per_cell, self.trunc_n, self.tail
        )
        self.frame_grid: FrameGrid | None = None
        self.surface_grid: SurfaceGrid | None = None
        self._point_cache: dict[tuple[float, float], tuple[np.ndarray, float]] = {}  # (row, h)

    # -- batch stages ---------------------------------------------------------
    def run(self) -> "Pipeline":
        self.frame_grid = fg = build_extended_frames(
            self.phi_s, self.phi_t, self.potential, self.s_grid, self.t_grid, self.initial_frame, self.tail
        )
        for i, j in zip(*np.nonzero(~fg.holes)):
            point = float(fg.s_grid[i]), float(fg.t_grid[j])
            self._point_cache[point] = fg.frames[i, j], float(fg.h[i, j])
        self.surface_grid = sym_map(fg, self.thetas)
        return self

    # -- point evaluators -------------------------------------------------------
    def frames_at(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The frames and angle functions at the points: a C-contiguous
        (B, 2N+1, 2, 2) stack and a (B,) array, with the values and effects
        of a loop of `frame_at` and `h_at`, the misses computed in batches.

        Points the cache does not hold have the abscissae of both axes
        integrated as one stack and are split in batches of whole rows of
        common s by the sweep's `_split_points` (`_split_misses`).  Their
        effects are played in one `_play`, in the loop's order: per point its
        not-finite error, its s and t nodes' records and potential errors
        (each node once), then its split's records, warnings and error.  So
        the frames, `point_tail`, the warnings, the first error and the
        points left behind are the loop's.
        """
        rows = self._points(points)
        frames = np.array([row for row, _ in rows]).reshape(len(rows), 2 * self.trunc_n + 1, 2, 2)
        return frames, np.array([h for _, h in rows], float)

    def frame_at(self, s: float, t: float) -> TwistedLoop:
        """The frame at one point, sharing its cached row: `frames_at`'s batch of one."""
        ((row, _),) = self._points([(s, t)])
        return TwistedLoop(self.trunc_n, row, enforce_parity=False)

    def h_at(self, s: float, t: float) -> float:
        return self._points([(s, t)])[0][1]

    def _points(self, points) -> list[tuple[np.ndarray, float]]:
        """The cached (row, h) of each point, as `frames_at` computes them."""
        keys = [(float(s), float(t)) for s, t in points]
        misses = [key for key in dict.fromkeys(keys) if key not in self._point_cache]
        split, nodes, parts, kept = self._split_misses(misses), set(), [], []
        for key in misses:
            if parts and parts[-1][2] is not None:
                break
            self._miss_parts(key, split, nodes, parts, kept)
        try:
            _play(parts, self.point_tail, (), lambda i: _naming(kept[i][0]))
        finally:  # keep what was played: `_play` took the parts from its stop on out of `parts`
            for _, keep, arg in kept[: len(parts)]:
                keep(arg)
        return [self._point_cache[key] for key in keys]

    def _split_misses(self, misses) -> dict:
        """{point: (split part, row, h)} of the distinct points `misses`: their
        s and t abscissae are integrated as one stack, and their rows of
        common s go to `_split_points`.  A point not finite, or whose axis
        frame raises or is not integrated (the stack could not be allocated),
        is left out: `_miss_parts` meets its error first, or splits it alone."""
        misses = [(s, t) for s, t in misses if math.isfinite(s) and math.isfinite(t)]
        requests = (self._flow_s, [s for s, _ in misses]), (self._flow_t, [t for _, t in misses])
        with contextlib.suppress(ValueError, MemoryError):  # raised before any state changes
            _integrate(*requests)
        split, row_items = {}, {}  # row_items: s -> (point, phi_s, phi_t) items
        for s, t in misses:
            phi_s, phi_t = self._flow_s.state(s), self._flow_t.state(t)
            if phi_s is not None and phi_t is not None:
                row_items.setdefault(s, []).append(((s, t), phi_s, phi_t))
        for points, fx, frame, h, *_ in _split_points(row_items.values(), self.potential, self.initial_frame):
            frame.setflags(write=False)  # the point cache's rows are views of it
            for j, key in enumerate(points):
                split[key] = fx.part(j), frame[j], float(h[j])
        return split

    def _miss_parts(self, key, split, nodes, parts, kept) -> None:
        """Append to `parts` the parts of the miss `key` in the `frame_at`
        loop's order, up to the first that fails: its not-finite error, its s
        and t nodes that `nodes` does not hold yet, then its split; and to
        `kept` the point each names and the call that keeps it once played."""
        s, t = key
        for flow, x in ((self._flow_s, s), (self._flow_t, t)):
            if (flow, x) in nodes:
                continue
            nodes.add((flow, x))
            kept.append((key, flow.hand_out, x))
            try:
                if not (math.isfinite(s) and math.isfinite(t)):  # before the point's first node
                    raise ValueError(f"point (s={s}, t={t}) is not finite")
                if x not in flow._nodes:  # the stack of all misses could not be allocated
                    _integrate((flow, [x]))
            except (ValueError, MemoryError) as exc:
                parts.append((*_NOTHING[:2], exc))
                return
            parts.append(flow.part(x))
            if parts[-1][2] is not None:
                return
        part, row, h = split.pop(key) if key in split else self._split_misses([key])[key]
        parts.append(part)
        kept.append((key, self._point_cache.update, {key: (row, h)}))

    def surfaces_at(self, points, theta: float) -> np.ndarray:
        """The (B, 3, 3) rows (nil point, L3 point, unit normal) at the points
        and one spectral angle: one `_sym_rows` call over their `frames_at`
        stack, each row with `_sym_point`'s bits."""
        return np.stack(_sym_rows(self.frames_at(points)[0], float(theta), points), axis=1)

    def surface_at(self, s: float, t: float, theta: float) -> np.ndarray:
        """(nil point, L3 point, unit normal) at a parameter point: the batch
        of one of `surfaces_at`."""
        return self.surfaces_at([(s, t)], theta)[0]

    def nil_at(self, s, t, theta):
        return self.surface_at(s, t, theta)[0]

    def l3_at(self, s, t, theta):
        return self.surface_at(s, t, theta)[1]

    def normal_at(self, s, t, theta):
        return self.surface_at(s, t, theta)[2]

    def spinors_at(self, s: float, t: float, theta: float):
        """`_spinors` of the frame and h at a parameter point."""
        return _spinors(self.frame_at(s, t), self.h_at(s, t), theta)


def _spinors(frame: TwistedLoop, h: float, theta: float):
    """Generating spinor pair (chi1, chi2) and angle function h of a frame.

    The pair is gauged by mu^{-1/2}, mu^{+1/2} so that it satisfies the
    plain nonlinear Dirac system with potential (i'/4) h at every
    spectral angle, matching the surface produced by the Sym formulas.
    """
    theta = float(theta)
    F = pair_eval(LoopPair(frame, frame), theta)
    root = math.sqrt(h / 2.0)
    half = theta / 2.0
    mu_m = ParaComplex.from_null(math.exp(-half), math.exp(half))  # mu^{-1/2}
    mu_p = ParaComplex.from_null(math.exp(half), math.exp(-half))  # mu^{+1/2}
    chi1 = mu_m * F.entry(1, 0) * root
    chi2 = mu_p * F.entry(1, 1) * root
    return chi1, chi2, h


def _null_pair(p, q):
    """(z.p, z.q) of z = ParaComplex.from_null(p, q), elementwise."""
    re, im = (p + q) / 2.0, (p - q) / 2.0
    return re + im, re - im


def _spinor_rows(frames: np.ndarray, h, theta: float) -> np.ndarray:
    """The (B, 4) null components (chi1.p, chi1.q, chi2.p, chi2.q) of `_spinors` of
    each frame of a C-contiguous (B, 2N+1, 2, 2) stack and its h, with its bits:
    F(e^theta) by `_lam_sums`, then its operations elementwise and in its order.
    Where it raises (det 0, h negative or NaN, a value not finite) a value here is
    not finite, and `_spinors` runs instead, on the rows that are not finite alone."""
    (M,) = _lam_sums(frames, theta, 1)
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    half = theta / 2.0
    mu = np.array([_null_pair(math.exp(-x), math.exp(x)) for x in (half, -half)])  # mu^{-+1/2}
    with np.errstate(all="ignore"):
        root = np.sqrt(np.asarray(h, float) / 2.0)[:, None]
        p, q = _null_pair(M[:, 1], M[:, 0, ::-1] / det[:, None])  # F.entry(1, k), k = 0, 1
        p, q = _null_pair(mu[:, 0] * p, mu[:, 1] * q)
        rows = np.stack(_null_pair(p * (root + 0.0), q * (root - 0.0)), axis=2).reshape(-1, 4)
    for b in np.flatnonzero(~np.isfinite(rows).all(axis=1)).tolist():
        frame = TwistedLoop(len(frames[b]) // 2, frames[b], enforce_parity=False)
        chi = _spinors(frame, float(h[b]), theta)[:2]
        rows[b] = [c for z in chi for c in (z.p, z.q)]
    return rows


# ---------------------------------------------------------------------------
# normalized potential extraction
# ---------------------------------------------------------------------------


@dataclass
class ExtractedPotential:
    axis_values: np.ndarray
    f: np.ndarray
    Q: np.ndarray
    g: np.ndarray
    R: np.ndarray
    b_hat: list  # ParaComplex samples of -(i'/4)(f l + g lbar)
    B_hat: list  # ParaComplex samples of (Q l + R lbar)/4


def extract_normalized_potential(pipeline: Pipeline, axis_values) -> ExtractedPotential:
    """Recover the normalized potential data from the frame family, at the
    abscissae `axis_values` of both axes.

    The frame at (s, 0) is Birkhoff-split with the minus factor normalized at
    infinity; its logarithmic s-derivative A^{-1} A', by a 4th-order central
    stencil of step 1e-2, is the lam^{-1} potential matrix, giving f and Q.
    Symmetrically the plus-normalized factor along (0, t) gives g and R.
    Requires the axes inside the domain of the potential.

    The frames of the whole stencil are computed as one `frames_at` batch,
    and each axis's frames are split as one `_split_rows` stack.  The
    lam^{-+1} coefficient of A(x)^{-1} A'(x) is A'(x)'s own, since A(x)^{-1}
    is the identity at degree 0 and A' vanishes there: so no inverse is
    taken, and the frame at x is split for its effects alone.  The effects
    are played per abscissa, its five s-splits then its five t-splits, so the
    first error and the warnings are those of splitting point by point.
    """
    axis_values = np.asarray(axis_values, float)
    X, n, delta = len(axis_values), 2 * pipeline.trunc_n + 1, 1e-2
    stencils = [
        [x - 2 * delta, x - delta, x + delta, x + 2 * delta, x] for x in axis_values.tolist()
    ]
    points = [point for ys in stencils for point in [(y, 0.0) for y in ys] + [(0.0, y) for y in ys]]
    frames = pipeline.frames_at(points)[0].reshape(X, 2, 5, n, 2, 2)  # abscissa, axis, stencil point
    effects, xi = [], []
    for axis, sign in enumerate((-1, +1)):
        fx = _Effects(5 * X)
        minus, plus, _ = _split_rows(frames[:, axis].reshape(5 * X, n, 2, 2), sign, fx)
        factor = (minus if sign < 0 else plus)[:, n // 2 + sign].reshape(X, 5, 2, 2)
        mm, m, p, pp = (factor[:, k] for k in range(4))
        xi.append((1.0 / (12.0 * delta)) * (mm + (-8.0) * m + 8.0 * p + (-1.0) * pp))
        effects.append(fx)
    for k in range(X):
        for fx in effects:
            fx.play(5 * k, 5 * k + 5, None)
    xi_s, xi_t = xi
    f_rec = -4.0 * xi_s[:, 0, 1]
    Q_rec = xi_s[:, 1, 0] * f_rec
    g_rec = 4.0 * xi_t[:, 1, 0]
    R_rec = -xi_t[:, 0, 1] * g_rec
    b_hat = [ParaComplex.from_null(-fv / 4.0, gv / 4.0) for fv, gv in zip(f_rec, g_rec)]
    B_hat = [ParaComplex.from_null(qv / 4.0, rv / 4.0) for qv, rv in zip(Q_rec, R_rec)]
    return ExtractedPotential(
        axis_values=axis_values, f=f_rec, Q=Q_rec, g=g_rec, R=R_rec, b_hat=b_hat, B_hat=B_hat
    )


# ---------------------------------------------------------------------------
# integral representation in Minkowski space
# ---------------------------------------------------------------------------


def _phi_null(spinor_fn, s: float, t: float):
    """Null components (d f/ds, d f/dt) of the closed Minkowski 1-form.

    With e = i' the integrand vector is
    (conj(psi2)^2 - psi1^2, i'(conj(psi2)^2 + psi1^2), 2 i' psi1 conj(psi2));
    its l and lbar components are exactly the s- and t-derivatives of the
    surface.
    """
    psi1, psi2 = spinor_fn(s, t)
    c2b = psi2.conj()
    if abs((psi2 * c2b - psi1 * psi1.conj()).re) < 1e-14:
        raise DegenerateSpinors(f"spinor norm degenerates at (s={s}, t={t})")
    comp1 = c2b * c2b - psi1 * psi1
    comp2 = ParaComplex(0.0, 1.0) * (c2b * c2b + psi1 * psi1)
    comp3 = 2.0 * ParaComplex(0.0, 1.0) * psi1 * c2b
    p = np.array([comp1.p, comp2.p, comp3.p])
    q = np.array([comp1.q, comp2.q, comp3.q])
    return p, q


def integrate_weierstrass_path(spinor_fn, waypoints) -> np.ndarray:
    """Integrate the Weierstrass 1-form along an axis-aligned polyline.

    Each segment uses composite Simpson quadrature with at least one cell per
    0.1 of parameter length.  Returns the increment vector.
    """
    total = np.zeros(3)
    for (s0, t0), (s1, t1) in zip(waypoints[:-1], waypoints[1:]):
        if s0 != s1 and t0 != t1:
            raise ValueError("waypoints must form axis-aligned segments")
        if s0 == s1 and t0 == t1:
            continue
        along_s = t0 == t1
        a, b = (s0, s1) if along_s else (t0, t1)
        ncells = max(1, int(math.ceil(abs(b - a) * 10.0)))
        xs = np.linspace(a, b, ncells + 1)
        comp = 0 if along_s else 1
        for x0, x1 in zip(xs[:-1], xs[1:]):
            xm = 0.5 * (x0 + x1)
            vals = []
            for x in (x0, xm, x1):
                st = (x, t0) if along_s else (s0, x)
                vals.append(_phi_null(spinor_fn, *st)[comp])
            total = total + (x1 - x0) / 6.0 * (vals[0] + 4.0 * vals[1] + vals[2])
    return total


def weierstrass_integral_L3(spinor_fn, s_values, t_values) -> np.ndarray:
    """Surface samples from path integration of the spinor 1-form.

    Integrates from the basepoint (0, 0) along the t = 0 row first, then up
    each column; the 1-form is closed, so the path choice only matters
    through quadrature error.
    """
    out = np.zeros((len(s_values), len(t_values), 3))
    for i, s in enumerate(np.asarray(s_values, float)):
        row = integrate_weierstrass_path(spinor_fn, [(0.0, 0.0), (float(s), 0.0)])
        for j, t in enumerate(np.asarray(t_values, float)):
            out[i, j] = row + integrate_weierstrass_path(
                spinor_fn, [(float(s), 0.0), (float(s), float(t))]
            )
    return out
