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
frame along the coordinate axes and differentiates the normalized factors.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePotential,
    DegenerateSpinors,
    EvalDomain,
    GaugeFailure,
    OutsideBigCell,
    TruncationOverflow,
)
from .expressions import Expression, combine, const_times, parse_expression, rename_variable
from .factorization import (
    _iwasawa_rows,
    birkhoff_split,
    iwasawa_double,  # noqa: F401  perfbench/tracer.py binds this name
)
from .loopalg import (
    SIGMA3,
    LoopPair,
    TailAccumulator,
    TwistedLoop,
    _Effects,
    _mul_rows,
    _scale_rows,
    _shift_rows,
    loop_inv,
    loop_mul,
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
    """Re-raise a truncation or potential error as one naming its gridpoint."""
    try:
        yield
    except (TruncationOverflow, EvalDomain, DegeneratePotential) as exc:
        s, t = gridpoint
        raise type(exc)(f"{exc} at gridpoint (s={s}, t={t})", gridpoint=gridpoint) from exc


class _AxisFlow:
    """RK4 flow of d Phi = Phi * (lam^deg A(x)) dx from the basepoint x = 0.

    The value at x is n = ceil(|x| * steps_per_unit) RK4 steps of size
    h = x / n from Phi(0) = id.  Step k evaluates A at k h, k h + h/2 and
    (k + 1) h, so the state after m steps is a function of (h, m) alone, and
    abscissae that share h lie on one chain of states.  `integrate_nodes`
    advances the chains of a set of abscissae as one stack, each chain to its
    longest abscissa, and keeps every abscissa's state with its prefix of the
    chain's tail records; `at` replays that prefix into the account.  Either
    way every value and every tail record is bit-identical to an integration
    from 0 at the call, so nothing depends on evaluation order.  Dropped tail
    mass goes to `tail`, or to the flow's own account if None.
    """

    def __init__(self, coeff_fn, deg: int, N: int, steps_per_unit: float, tail: TailAccumulator):
        self.coeff_fn = coeff_fn
        self.deg = deg
        self.N = N
        self.spu = float(steps_per_unit)
        self.tail = tail
        self._cache: dict[float, TwistedLoop] = {0.0: TwistedLoop.identity(N)}
        # abscissa -> (state or None, its chain's tail records, how many of
        # them it owns, the positions of the step whose potential raised)
        self._nodes: dict[float, tuple[np.ndarray | None, list, int, tuple]] = {}

    def _steps(self, x: float) -> tuple[int, float]:
        n = max(1, int(math.ceil(abs(x) * self.spu - 1e-12)))
        return n, x / n

    def _advance(self, chains) -> None:
        """Step a stack of chains from the identity, one RK4 step at a time.

        Chain b is (h, stops): it takes steps of size h up to its longest stop
        and keeps the state after m steps for each abscissa in stops[m];
        finished chains stop.  Each product's tail masses go to the chain's
        records as they arise.  A chain whose potential raises at a step drops
        out; its abscissae past that step keep the step instead of a state.
        """
        hs = np.array([h for h, _ in chains])
        lengths = [max(stops) for _, stops in chains]
        records: list[list] = [[] for _ in chains]
        phi = np.repeat(self._cache[0.0].c[None], len(chains), axis=0)
        live = list(range(len(chains)))
        for k in range(max(lengths)):
            stepping, coeffs = [], []
            for b in live:
                if k == lengths[b]:
                    continue
                h, stops = chains[b]
                pos = k * h if k else 0.0
                positions = (pos, pos + h / 2.0, pos + h)
                try:
                    coeffs.append([self.coeff_fn(x) for x in positions])
                except (EvalDomain, DegeneratePotential):
                    failed = (None, records[b], len(records[b]), positions)
                    self._nodes.update((x, failed) for m, xs in stops.items() if m > k for x in xs)
                    continue
                stepping.append(b)
            live = stepping
            if not live:
                break

            def shift(c, A):
                out, dropped, kept = _shift_rows(c, A, self.deg)
                for row, b in enumerate(live):
                    records[b].append((float(dropped[row]), float(kept[row])))
                return out

            a0, am, a1 = (np.stack(a) for a in zip(*coeffs))
            h = hs[live][:, None, None, None]
            c = phi[live]
            k1 = shift(c, a0)
            k2 = shift(c + (h / 2.0) * k1, am)
            k3 = shift(c + (h / 2.0) * k2, am)
            k4 = shift(c + h * k3, a1)
            phi[live] = c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            for row, b in enumerate(live):
                for x in chains[b][1].get(k + 1, ()):
                    self._nodes[x] = (c[row].copy(), records[b], len(records[b]), ())

    def integrate_nodes(self, xs) -> None:
        """Advance the chains of the abscissae xs as one stack and keep the
        states of those not yet cached or kept, for `at` to return."""
        chains: dict[float, dict[int, list[float]]] = {}
        for x in map(float, xs):
            if x not in self._cache and x not in self._nodes:
                n, h = self._steps(x)
                chains.setdefault(h, {}).setdefault(n, []).append(x)
        if chains:
            self._advance(list(chains.items()))

    def state(self, x: float) -> np.ndarray | None:
        """Coefficients at an abscissa that is cached or integrated but not
        yet handed out, without replaying anything; None if it raises."""
        hit = self._cache.get(x)
        return hit.c if hit is not None else self._nodes[x][0]

    def at(self, x: float, tail: TailAccumulator | None = None) -> TwistedLoop:
        x = float(x)
        hit = self._cache.get(x)
        if hit is not None:
            return hit
        if x not in self._nodes:
            self.integrate_nodes([x])
        phi, records, count, failed = self._nodes.pop(x)
        tail = self.tail if tail is None else tail
        for masses in records[:count]:
            tail.record(*masses)
        for pos in failed:  # the potential raised at this step: raise it here
            self.coeff_fn(pos)
        hit = self._cache[x] = TwistedLoop(self.N, phi, enforce_parity=False)
        return hit


def solve_frame_ode(
    potential: PotentialSpec,
    s_grid,
    t_grid,
    steps_per_cell: int = 8,
    trunc_n: int = 24,
    tail: TailAccumulator | None = None,
):
    """Integrate the two holomorphic frame ODEs along the axes.

    Returns (phi_s list over s_grid, phi_t list over t_grid, flow_s, flow_t);
    the flows evaluate off-grid points too.  Each axis integrates every chain
    of its nodes once (see `_AxisFlow`) and records the nodes' tail masses in
    grid order, s axis first.  Every frame and the tail account are
    bit-identical to integrating each node from 0, and a truncation or
    potential error names the node it arose at: (s, 0.0) or (0.0, t).
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
    flow_s = _AxisFlow(potential.xi_s, -1, trunc_n, spu, tail)
    flow_t = _AxisFlow(potential.xi_t, +1, trunc_n, spu, tail)
    axes = (
        (potential.f, flow_s, [(float(s), 0.0) for s in s_grid]),
        (potential.g, flow_t, [(0.0, float(t)) for t in t_grid]),
    )
    for axis, (coeff, _, points) in enumerate(axes):
        for point in points:
            x = point[axis]
            with _naming(point):
                if abs(coeff.eval(x)) < _VANISH_TOL:
                    name = "fg"[axis]
                    raise DegeneratePotential(f"{name} vanishes at sampled {coeff.variable}={x}")
    phi = ([], [])
    for axis, (_, flow, points) in enumerate(axes):
        flow.integrate_nodes(point[axis] for point in points)
        for point in points:
            with _naming(point):
                phi[axis].append(flow.at(point[axis]))
    return phi[0], phi[1], flow_s, flow_t


# ---------------------------------------------------------------------------
# Iwasawa + gauge normalization
# ---------------------------------------------------------------------------


@dataclass
class FramePoint:
    loop: TwistedLoop  # gauge-normalized frame F; its para-complex pair is (F, F)
    h: float
    sym: dict = field(default_factory=dict)  # theta -> read-only rows (nil, l3, normal)


def _frame_rows(phi_s: TwistedLoop, phi_t, f_val, g_vals, initial, gridpoints):
    """Frames of a (B, 2N+1, 2, 2) stack of Phi_t sharing Phi_s and f: the
    Iwasawa split, the diagonal gauge normalization and the initial-frame
    product, as one batch.  Returns (effects, frames, h, gauge_log,
    conditioning); each item's effects are a batch of one's, for
    `_play_point`.  A point with nonpositive angle function fails with
    GaugeFailure."""
    fx = _Effects(len(phi_t))
    frame, _, vminus, conds = _iwasawa_rows(phi_s, phi_t, fx)
    N = frame.shape[1] // 2
    h = np.full(len(frame), np.nan)
    gauge_log = np.full(len(frame), np.nan)
    d = np.ones(len(frame))
    for b in np.flatnonzero(fx.alive):
        d22 = float(vminus[b, N, 1, 1])
        fg = f_val * g_vals[b]
        if fg <= 0.0 or d22 <= 1e-13:
            message = f"angle function not positive (f*g={fg:.3e}, d22={d22:.3e})"
            fx.fail(b, GaugeFailure(message, gridpoint=gridpoints[b]))
            continue
        h[b] = math.sqrt(fg) * d22
        d[b] = (f_val / (g_vals[b] * d22 * d22)) ** 0.25
        gauge_log[b] = math.log(d[b])
    frame = _scale_rows(frame, d)
    if initial is not None:
        frame = _mul_rows(initial.c, frame, fx)
    return fx, frame, h, gauge_log, conds


def _value_or_none(expr: Expression, x: float) -> float | None:
    """expr at x, or None outside its domain."""
    try:
        return expr.eval(x)
    except EvalDomain:
        return None


def _play_point(fx: _Effects, j: int, tail, gridpoint) -> None:
    """Perform item j's effects into `tail`; its error names the gridpoint."""
    try:
        with _naming(gridpoint):
            fx.play(j, tail)
    except (OutsideBigCell, GaugeFailure) as exc:
        exc.gridpoint = gridpoint
        raise


@dataclass
class FrameGrid:
    s_grid: np.ndarray
    t_grid: np.ndarray
    trunc_n: int
    frames: np.ndarray  # read-only (ns, nt, 2N+1, 2, 2) coefficients of F, zero at holes
    h: np.ndarray
    gauge_log: np.ndarray
    conditioning: np.ndarray
    holes: np.ndarray  # bool mask
    hole_errors: list = field(default_factory=list)


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

    Each grid row is factorized as one batch that shares Phi_s; the row's
    tail records, warnings and errors then take effect point by point,
    exactly as point-by-point factorization has them.  Points outside the
    big cell (or with nonpositive angle function) are recorded as holes, not
    fatal errors.  A TruncationOverflow is fatal and names the gridpoint it
    arose at.
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
    f_vals = [potential.f.eval(float(s)) for s in s_grid]
    g_vals = [potential.g.eval(float(t)) for t in t_grid]
    phi_t = np.stack([loop.c for loop in phi_t_list])
    gridpoints = [[(float(s), float(t)) for t in t_grid] for s in s_grid]

    for i in range(ns):
        fx, frame, h_row, log_row, conds = _frame_rows(
            phi_s_list[i], phi_t, f_vals[i], g_vals, initial, gridpoints[i]
        )
        # Each row has its own account, merged in row order: the overflow
        # check runs against the row's mass, and the merged sums are the
        # manifest's tail_relative, so their order must not change.
        row_tail = TailAccumulator(bound=tail.bound if tail is not None else 1e-9)
        for j, gridpoint in enumerate(gridpoints[i]):
            try:
                _play_point(fx, j, row_tail, gridpoint)
            except (OutsideBigCell, GaugeFailure) as exc:
                holes[i, j] = True
                hole_errors.append((i, j, type(exc).__name__, str(exc)))
        kept = ~holes[i]
        for out, row in ((frames, frame), (h, h_row), (gauge_log, log_row), (conditioning, conds)):
            out[i, kept] = row[kept]
        if tail is not None:
            tail.merge(row_tail)
    frames.setflags(write=False)  # the point cache's loops share it
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
    )


# ---------------------------------------------------------------------------
# Sym-type formulas
# ---------------------------------------------------------------------------


def _sym_rows(c: np.ndarray, theta: float):
    """Surface data of a C-contiguous (B, 2N+1, 2, 2) stack of frames at one
    spectral angle: (nil, l3, normal), each of shape (B, 3).

    Everything is exact in the spectral parameter: with D = (lam dF) F^{-1},
    C = F s3 F^{-1}, E = (lam d)^2 F * F^{-1} evaluated at lam = e^theta, the
    l-slot of the Minkowski surface is G = -D - C/2, the l-slot of its mu-log
    derivative is A = -(E - D^2) - [D, C]/2, and the coordinates read

        L3:  (p, q, r) = (-(G01 + G10), G10 - G01, 2 G00)
        nil: (x1, x2, x3) = (G10 - G01, -(G01 + G10), -A00)
        normal: (-(C01 + C10)/2, (C10 - C01)/2, C00).

    The lam-sums are one BLAS dot per item, as `np.tensordot` does them, and
    the 2x2 products batched `@`: each item has the scalar evaluation's bits.
    """
    B, L = c.shape[:2]
    lam = math.exp(theta)
    ks = np.arange(-(L // 2), L // 2 + 1, dtype=float)
    powers = lam**ks
    flat = c.reshape(B, L, 4)
    M, M1, M2 = (np.matmul(w, flat).reshape(B, 2, 2) for w in (powers, ks * powers, ks**2 * powers))
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    Minv = np.stack([M[:, 1, 1], -M[:, 0, 1], -M[:, 1, 0], M[:, 0, 0]], axis=1)
    Minv = Minv.reshape(B, 2, 2) / det[:, None, None]
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
    """One `_sym_rows` call per angle on the frames outside the holes; NaN at holes."""
    thetas = np.asarray(thetas, float)
    shape = (len(thetas), *fr.holes.shape, 3)
    nil = np.full(shape, np.nan)
    l3 = np.full(shape, np.nan)
    normals = np.full(shape, np.nan)
    kept = ~fr.holes
    frames = fr.frames[kept]
    for k, theta in enumerate(thetas):
        nil[k, kept], l3[k, kept], normals[k, kept] = _sym_rows(frames, float(theta))
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
    verification: `frames_at`, `frame_at`, `surface_at` and `spinors_at` reuse
    the sweep's gridpoint frames and compute any other point exactly, never by
    interpolation, through the sweep's row kernels in batches.  Its axis
    frames are bit-identical to an integration from 0, whatever was evaluated
    before; its dropped tail mass goes to `point_tail`, never to the run's
    `tail`; and a truncation or potential error names the point.
    """

    def __init__(
        self,
        potential: PotentialSpec,
        s_grid,
        t_grid,
        trunc_n: int = 24,
        steps_per_cell: int = 8,
        thetas=(0.0,),
        initial_frame: TwistedLoop | None = None,
        tail_bound: float = 1e-9,
    ):
        self.potential = potential
        self.s_grid = np.asarray(s_grid, float)
        self.t_grid = np.asarray(t_grid, float)
        self.trunc_n = int(trunc_n)
        self.steps_per_cell = int(steps_per_cell)
        self.thetas = np.asarray(thetas, float)
        self.tail = TailAccumulator(bound=tail_bound)
        self.point_tail = TailAccumulator(bound=tail_bound)
        if initial_frame is not None and initial_frame.N != self.trunc_n:
            initial_frame = TwistedLoop.from_terms(
                self.trunc_n,
                {k: initial_frame.coeff(k) for k in range(-initial_frame.N, initial_frame.N + 1)},
            )
        self.initial_frame = initial_frame
        self.phi_s, self.phi_t, self._flow_s, self._flow_t = solve_frame_ode(
            potential, self.s_grid, self.t_grid, self.steps_per_cell, self.trunc_n, self.tail
        )
        self.frame_grid: FrameGrid | None = None
        self.surface_grid: SurfaceGrid | None = None
        self._point_cache: dict[tuple[float, float], FramePoint] = {}

    # -- batch stages ---------------------------------------------------------
    def run(self) -> "Pipeline":
        self.frame_grid = build_extended_frames(
            self.phi_s,
            self.phi_t,
            self.potential,
            self.s_grid,
            self.t_grid,
            initial=self.initial_frame,
            tail=self.tail,
        )
        fg = self.frame_grid
        for i, j in zip(*np.nonzero(~fg.holes)):
            loop = TwistedLoop(self.trunc_n, fg.frames[i, j], enforce_parity=False)
            self._point_cache[(float(fg.s_grid[i]), float(fg.t_grid[j]))] = FramePoint(
                loop, float(fg.h[i, j])
            )
        self.surface_grid = sym_map(fg, self.thetas)
        return self

    # -- point evaluators -------------------------------------------------------
    def frames_at(self, points) -> list[FramePoint]:
        """`[self.frame_at(s, t) for s, t in points]`, with the misses computed
        in batches.

        Points the cache does not hold have their axis abscissae integrated as
        one stack per axis and are split by rows of common s, through the
        sweep's row kernels.  Each point's effects are then replayed in list
        order, as the point-by-point loop has them: its s-axis and t-axis tail
        records, then its split's tail records, warnings and error.  So the
        frames, `point_tail`, the warnings and the first error are the loop's.
        """
        keys = [(float(s), float(t)) for s, t in points]
        split = self._split_misses([key for key in keys if key not in self._point_cache])
        return [self._replay(key, split) for key in keys]

    def frame_at(self, s: float, t: float) -> FramePoint:
        """The frame at one point: `frames_at`'s batch of one."""
        return self.frames_at([(s, t)])[0]

    def _split_misses(self, misses) -> dict:
        """Row-batched frames of the points `misses`, not yet replayed:
        {point: (effects, item, (frames, h, gauge_log, conditioning))}.  A
        point whose axis frame or potential value raises is left out, since
        replaying it raises first."""
        if not misses:
            return {}
        self._flow_s.integrate_nodes(s for s, _ in misses)
        self._flow_t.integrate_nodes(t for _, t in misses)
        rows: dict[float, dict[float, None]] = {}
        for s, t in misses:
            rows.setdefault(s, {})[t] = None
        split = {}
        for s, ts in rows.items():
            phi_s = self._flow_s.state(s)
            f_val = _value_or_none(self.potential.f, s)
            items = [(t, self._flow_t.state(t), _value_or_none(self.potential.g, t)) for t in ts]
            items = [item for item in items if item[1] is not None and item[2] is not None]
            if phi_s is None or f_val is None or not items:
                continue
            gridpoints = [(s, t) for t, _, _ in items]
            fx, *row = _frame_rows(
                TwistedLoop(self.trunc_n, phi_s, enforce_parity=False),
                np.stack([phi_t for _, phi_t, _ in items]),
                f_val,
                [g_val for _, _, g_val in items],
                self.initial_frame,
                gridpoints,
            )
            for j, key in enumerate(gridpoints):
                split[key] = (fx, j, row)
        return split

    def _replay(self, key, split) -> FramePoint:
        hit = self._point_cache.get(key)
        if hit is not None:
            return hit
        s, t = key
        tail = self.point_tail
        with _naming(key):
            self._flow_s.at(s, tail)
            self._flow_t.at(t, tail)
            self.potential.f.eval(s)
            self.potential.g.eval(t)
        fx, j, (frame, h, _, _) = split.pop(key)
        _play_point(fx, j, tail, key)
        hit = self._point_cache[key] = FramePoint(
            TwistedLoop(self.trunc_n, frame[j], enforce_parity=False), float(h[j])
        )
        return hit

    def h_at(self, s: float, t: float) -> float:
        return self.frame_at(s, t).h

    def surface_at(self, s: float, t: float, theta: float):
        """(nil point, L3 point, unit normal) at a parameter point, kept per angle."""
        pt = self.frame_at(s, t)
        if float(theta) not in pt.sym:
            pt.sym[float(theta)] = np.array(_sym_point(pt.loop, float(theta)))
            pt.sym[float(theta)].setflags(write=False)
        return pt.sym[float(theta)]

    def nil_at(self, s, t, theta):
        return self.surface_at(s, t, theta)[0]

    def l3_at(self, s, t, theta):
        return self.surface_at(s, t, theta)[1]

    def normal_at(self, s, t, theta):
        return self.surface_at(s, t, theta)[2]

    def spinors_at(self, s: float, t: float, theta: float):
        """Generating spinor pair (chi1, chi2) and angle function h.

        The pair is gauged by mu^{-1/2}, mu^{+1/2} so that it satisfies the
        plain nonlinear Dirac system with potential (i'/4) h at every
        spectral angle, matching the surface produced by the Sym formulas.
        """
        pt = self.frame_at(s, t)
        F = pair_eval(LoopPair(pt.loop, pt.loop), float(theta))
        root = math.sqrt(pt.h / 2.0)
        half = float(theta) / 2.0
        mu_m = ParaComplex.from_null(math.exp(-half), math.exp(half))  # mu^{-1/2}
        mu_p = ParaComplex.from_null(math.exp(half), math.exp(-half))  # mu^{+1/2}
        chi1 = mu_m * F.entry(1, 0) * root
        chi2 = mu_p * F.entry(1, 1) * root
        return chi1, chi2, pt.h


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


def _log_derivative_abscissae(x: float) -> list[float]:
    """Where `_log_derivative_loop` reads the factor: a 4th-order central
    stencil of step 1e-2, then x itself."""
    delta = 1e-2
    return [x - 2 * delta, x - delta, x + delta, x + 2 * delta, x]


def _log_derivative_loop(factor_fn, x: float) -> TwistedLoop:
    """A(x)^{-1} A'(x) by a 4th-order central stencil of step 1e-2 on the
    factor loops."""
    delta = 1e-2
    mm, m, p, pp, base = map(factor_fn, _log_derivative_abscissae(x))
    deriv = (1.0 / (12.0 * delta)) * (mm + (-8.0) * m + 8.0 * p + (-1.0) * pp)
    return loop_mul(loop_inv(base), deriv)


def extract_normalized_potential(pipeline: Pipeline, axis_values=None) -> ExtractedPotential:
    """Recover the normalized potential data from the frame family.

    The frame at (s, 0) is Birkhoff-split with the minus factor normalized at
    infinity; its logarithmic s-derivative is the lam^{-1} potential matrix,
    giving f and Q.  Symmetrically the plus-normalized factor along (0, t)
    gives g and R.  Requires the axes inside the domain of the potential.
    The frames of the whole stencil are computed as one `frames_at` batch.
    """
    if axis_values is None:
        axis_values = pipeline.s_grid
    axis_values = np.asarray(axis_values, float)
    pipeline.frames_at(
        [
            point
            for x in axis_values
            for point in [(y, 0.0) for y in _log_derivative_abscissae(float(x))]
            + [(0.0, y) for y in _log_derivative_abscissae(float(x))]
        ]
    )

    def minus_factor(s: float) -> TwistedLoop:
        return birkhoff_split(pipeline.frame_at(s, 0.0).loop, "minus_star_plus").minus

    def plus_factor(t: float) -> TwistedLoop:
        return birkhoff_split(pipeline.frame_at(0.0, t).loop, "plus_star_minus").plus

    f_rec, Q_rec, g_rec, R_rec = [], [], [], []
    for x in axis_values:
        xs = float(x)
        xi_s = _log_derivative_loop(minus_factor, xs).coeff(-1)
        fv = -4.0 * xi_s[0, 1]
        f_rec.append(fv)
        Q_rec.append(xi_s[1, 0] * fv)
        xi_t = _log_derivative_loop(plus_factor, xs).coeff(+1)
        gv = 4.0 * xi_t[1, 0]
        g_rec.append(gv)
        R_rec.append(-xi_t[0, 1] * gv)
    f_rec = np.array(f_rec)
    Q_rec = np.array(Q_rec)
    g_rec = np.array(g_rec)
    R_rec = np.array(R_rec)
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
