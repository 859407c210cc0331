"""Verify reports and generated files pinned bit for bit.

`data/verify_reports.json` holds, for three configs, the full `cmd_verify`
report with every float written as `float.hex`: the 9x9 cylinder of
test_cli.py, an 11x11 horizontal plane with holes at two spectral angles, and
the horizontal-umbrella builtin (a non-identity initial frame).  The reports
were recorded before the point evaluators were batched; any change to how a
check's frames are computed must leave every value unchanged.
`data/generate_digests.json` pins, the same way, the files `cmd_generate`
writes, and `data/roundtrip_reports.json` the `cmd_roundtrip` results of
bscroll and horizontal-umbrella, recorded while the extraction still split
each stencil frame with the scalar `birkhoff_split`.
"""

import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from nilweier.cli import cmd_generate, cmd_roundtrip, cmd_verify

DATA = os.path.join(os.path.dirname(__file__), "data", "verify_reports.json")
with open(DATA, encoding="utf-8") as _fh:
    PINNED = json.load(_fh)


def hexed(value):
    """The report with every float replaced by its float.hex string."""
    if isinstance(value, dict):
        return {key: hexed(v) for key, v in value.items()}
    if isinstance(value, list):
        return [hexed(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


@pytest.mark.parametrize("name", sorted(PINNED))
def test_verify_report_is_bit_identical(name):
    pinned = PINNED[name]
    report = hexed(cmd_verify(pinned["config"]))
    assert report == pinned["report"]


@pytest.mark.parametrize("name", ["cylinder-9x9", "horizontal-plane-11x11"])
def test_each_check_reads_only_its_stencil_batch(name, monkeypatch):
    """Every frame a check reads was computed by its stencil batches, and they
    compute the very points that point-by-point verification computes in that
    check, where each stencil's frames are computed one point at a time, in
    stencil order.  Only the order within a check may differ: the Dirac
    check's second batch depends on the spinor values its first batch yields.
    Every point reader goes through `Pipeline._points`, a stencil batch as one
    call of its points and a single-point reader as one call of its point."""
    from nilweier.config import load_config
    from nilweier.pipeline import Pipeline
    from nilweier.verify import run_verification

    cfg = load_config(PINNED[name]["config"])
    batched = Pipeline._points
    runs = []
    for batches in (True, False):
        # the points first computed after each stencil batch call, until the next
        windows, single_misses = [[]], []

        def points_(self, points, batches=batches, windows=windows, single=single_misses):
            points = [(float(s), float(t)) for s, t in points]
            if len(points) > 1:
                windows.append([])
                if not batches:
                    return [row for p in points for row in self._points([p])]
            misses = [p for p in dict.fromkeys(points) if p not in self._point_cache]
            windows[-1] += misses
            if len(points) == 1:
                single += misses
            return batched(self, points)

        monkeypatch.setattr(Pipeline, "_points", points_)
        run_verification(cfg.make_pipeline().run(), oracle=cfg.oracle)
        runs.append((windows, single_misses))
    (windows, single_misses), (reference, _) = runs
    assert single_misses == [] and len(windows) == len(reference)
    checks, expected = [set()], [set()]
    for window, ref in zip(windows, reference):
        checks[-1].update(window)
        expected[-1].update(ref)
        if ref:  # a window the point-by-point run leaves empty belongs to the next
            checks.append(set())
            expected.append(set())
    assert checks == expected and sum(map(len, expected)) > 100


# After `run_verification` of each pinned config: the pipeline's `point_tail`
# (dropped, kept) as float.hex, and the count of near-boundary warnings it
# raised; recorded before the checks requested their own stencil batches.
POINT_EFFECTS = {
    "cylinder-9x9": (("0x1.7fca88a932689p-87", "0x1.3843cddbd5e76p+12"), 0),
    "horizontal-plane-11x11": (("0x0.0p+0", "0x1.3479d14ef3fc0p+13"), 0),
    "horizontal-umbrella": (("0x0.0p+0", "0x1.44793957e7b8ep+14"), 0),
}


@pytest.mark.parametrize("name", sorted(POINT_EFFECTS))
def test_point_evaluator_effects_are_pinned(name):
    """The point evaluator's side effects, which the report does not show:
    the sum of its tail records, whose bits follow the order of the records,
    and its near-boundary warnings."""
    from nilweier.config import load_config
    from nilweier.verify import run_verification

    cfg = load_config(PINNED[name]["config"])
    pipeline = cfg.make_pipeline().run()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_verification(pipeline, oracle=cfg.oracle)
    near = [w for w in caught if str(w.message).startswith("factorization near big-cell boundary")]
    tail = (pipeline.point_tail.dropped.hex(), pipeline.point_tail.kept.hex())
    assert (tail, len(near)) == POINT_EFFECTS[name]


# the verify-plane benchmark workload at seed 0
VERIFY_PLANE = {
    "potential": {"builtin": "horizontal-plane"},
    "domain": {"sMin": -2.0, "sMax": 2.0, "tMin": -2.0, "tMax": 2.0, "ns": 25, "nt": 25},
    "truncationN": 16,
    "stepsPerCell": 8,
    "thetas": [0.0, 0.149751, -0.021456],
}


def test_verify_plane_report_and_point_tail_are_pinned():
    """One verification of the verify-plane workload: `point_tail` and the
    report's sha256, recorded when every spinor read evaluated the frame pair
    and before the checks read their surfaces as rows."""
    from nilweier.config import load_config
    from nilweier.verify import run_verification

    cfg = load_config(VERIFY_PLANE)
    pipeline = cfg.make_pipeline().run()
    report = run_verification(pipeline, oracle=cfg.oracle)
    tail = (pipeline.point_tail.dropped.hex(), pipeline.point_tail.kept.hex())
    assert tail == ("0x0.0p+0", "0x1.57e44803ab0e6p+14")
    text = json.dumps(report, indent=2, sort_keys=True)  # as cmd_verify writes it
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2bdf09a1e77aed92da9b46131f6dd29ab69d7ef20b446e26c3c7910425532b61"
    )


def test_one_verification_steps_both_axes_as_one_stack(monkeypatch):
    """The grid axes and every `frames_at` miss batch step their s and t
    chains together: 365 RK4 steps of four stage products each, over 5,434
    chain steps, where stepping one axis after the other took 356 + 365 =
    721 steps.  Each step's four stages take the chains of both axes still
    stepping, and each `_integrate` call reads each axis's potential once,
    at 3 positions per chain step, s before t."""
    import math

    from nilweier import pipeline as pipeline_module
    from nilweier.config import load_config
    from nilweier.pipeline import PotentialSpec
    from nilweier.verify import run_verification

    calls = []  # per `_integrate` call: (its chains' step counts per axis, row calls, stage sizes)
    real_integrate, real_stage = pipeline_module._integrate, pipeline_module._shift_compact

    def integrate(*requests):
        lengths = {}
        for flow, xs in requests:
            own = {}
            for x in map(float, xs):
                if x not in flow._nodes:
                    n = max(1, math.ceil(abs(x) * flow.spu - 1e-12))
                    own[x / n] = max(own.get(x / n, 0), n)
            lengths["s" if flow.deg < 0 else "t"] = sorted(own.values(), reverse=True)
        calls.append((lengths, [], []))
        real_integrate(*requests)

    def stage(c, *args):
        calls[-1][2].append(len(c))
        return real_stage(c, *args)

    monkeypatch.setattr(pipeline_module, "_integrate", integrate)
    monkeypatch.setattr(pipeline_module, "_shift_compact", stage)
    for name in ("xi_s_rows", "xi_t_rows"):
        real = getattr(PotentialSpec, name)
        monkeypatch.setattr(
            PotentialSpec,
            name,
            lambda self, xs, a=name[3], f=real: calls[-1][1].append((a, len(xs))) or f(self, xs),
        )
    cfg = load_config(VERIFY_PLANE)
    run_verification(cfg.make_pipeline().run(), oracle=cfg.oracle)
    both = t_only = 0
    for lengths, rows, stages in calls:
        everything = sorted(lengths["s"] + lengths["t"], reverse=True)
        live = [sum(n > k for n in everything) for k in range(everything[0] if everything else 0)]
        assert stages == [size for size in live for _ in range(4)]
        assert rows == [(a, 3 * sum(lengths[a])) for a in "st" if lengths[a]]
        s_steps, t_steps = (max(lengths[a], default=0) for a in "st")
        both += min(s_steps, t_steps)
        t_only += max(t_steps - s_steps, 0)
    stages = [size for _, _, sizes in calls for size in sizes]
    assert len(stages) == 4 * 365 and sum(stages) == 4 * 5434
    assert (both, t_only) == (356, 9)


def test_only_the_frame_quality_check_evaluates_frame_pairs(monkeypatch):
    """One verification evaluates the para-complex frame pair 45 times, at the
    9 points of the frame-quality check and its 5 angles: its 891 spinor reads
    take their null components from 6 `_spinor_rows` batches, which evaluate
    no pair (each read evaluated one, 936 calls in all, before the batches)."""
    from nilweier import loopalg
    from nilweier import pipeline as pipeline_module
    from nilweier import verify as verify_module
    from nilweier.config import load_config
    from nilweier.verify import run_verification

    pairs, batches = [], []
    for module in (pipeline_module, verify_module):
        monkeypatch.setattr(
            module, "pair_eval", lambda P, theta: pairs.append(theta) or loopalg.pair_eval(P, theta)
        )
    real_rows = pipeline_module._spinor_rows

    def spinor_rows(frames, h, theta):
        batches.append(len(frames))
        return real_rows(frames, h, theta)

    monkeypatch.setattr(verify_module, "_spinor_rows", spinor_rows)
    cfg = load_config(VERIFY_PLANE)
    run_verification(cfg.make_pipeline().run(), oracle=cfg.oracle)
    assert len(pairs) == 45
    assert (len(batches), sum(batches)) == (6, 891)


def test_the_engines_tail_records_replay_as_the_record_loop(monkeypatch):
    """Each of the 36 replays of one verification, from the account it met,
    leaves the masses the `record` loop leaves, bit for bit."""
    from _oracles import replay_against_record_loop

    from nilweier.config import load_config
    from nilweier.loopalg import TailAccumulator
    from nilweier.verify import run_verification

    replays = []
    real = TailAccumulator._replay

    def replay(self, masses):
        replays.append(((self.dropped, self.kept), masses.reshape(-1, 2).copy(), self.bound))
        return real(self, masses)

    monkeypatch.setattr(TailAccumulator, "_replay", replay)
    cfg = load_config(VERIFY_PLANE)
    run_verification(cfg.make_pipeline().run(), oracle=cfg.oracle)
    monkeypatch.undo()
    assert len(replays) == 36 and sum(len(masses) for _, masses, _ in replays) == 32855
    for start, masses, bound in replays:
        assert replay_against_record_loop(start, masses, bound) is None


def _count_iwasawa_batches(monkeypatch, calls):
    """Append each `_iwasawa_rows` call's (distinct Phi_s stack, items) from
    `nilweier.pipeline` to `calls`."""
    from nilweier import pipeline as pipeline_module

    real = pipeline_module._iwasawa_rows

    def iwasawa_rows(phi_s, index, phi_t, fx):
        calls.append((phi_s, len(phi_t)))
        return real(phi_s, index, phi_t, fx)

    monkeypatch.setattr(pipeline_module, "_iwasawa_rows", iwasawa_rows)


def test_frames_at_splits_its_misses_in_whole_row_batches(monkeypatch):
    """Each `frames_at` call of one verification splits its misses in batches
    of whole rows of common s: each batch takes rows until the next would
    put its systems over the budget, and at least one.  That is 13
    `_iwasawa_rows` calls in all, where batches of at most nt points made
    30."""
    from nilweier import pipeline as pipeline_module
    from nilweier.config import load_config
    from nilweier.pipeline import _BATCH_BYTES, Pipeline
    from nilweier.verify import run_verification

    cfg = load_config(VERIFY_PLANE)
    pipeline = cfg.make_pipeline().run()
    item_bytes = (2 * pipeline.trunc_n) ** 2 * 8
    splits = []  # per `_split_misses` call, each batch's {s: points}
    real_split, real_points = Pipeline._split_misses, pipeline_module._split_points

    def split_misses(self, misses):
        splits.append([])
        return real_split(self, misses)

    def split_points(rows, potential, initial):
        for batch in real_points(rows, potential, initial):
            splits[-1].append({})
            for s, _ in batch[0]:
                splits[-1][-1][s] = splits[-1][-1].get(s, 0) + 1
            yield batch

    monkeypatch.setattr(Pipeline, "_split_misses", split_misses)
    monkeypatch.setattr(pipeline_module, "_split_points", split_points)
    calls = []
    _count_iwasawa_batches(monkeypatch, calls)
    run_verification(pipeline, oracle=cfg.oracle)
    batches = [rows for split in splits for rows in split]
    assert [(len(rows), sum(rows.values())) for rows in batches] == [(len(p), b) for p, b in calls]
    for split in splits:
        assert len(set().union(*split)) == sum(map(len, split))  # no row in two batches
        for rows, after in zip(split, split[1:] + [None]):
            points = sum(rows.values())
            assert points * item_bytes <= _BATCH_BYTES or len(rows) == 1
            assert after is None or (points + next(iter(after.values()))) * item_bytes > _BATCH_BYTES
    assert len(calls) == 13


@pytest.mark.parametrize("side, trunc_n", [(15, 20), (9, 48)])  # sweep-cylinder, deep-trunc
def test_the_sweep_splits_whole_grid_rows_per_batch(side, trunc_n, monkeypatch):
    """The sweep splits its side x side gridpoints in batches of as many
    whole grid rows as keep their (2N, 2N) systems within the budget, and
    at least one; each `_iwasawa_rows` call takes its rows' Phi_s, once
    each, and all their points: 5 calls of 3 rows on the sweep-cylinder
    grid (576 KB of systems each), 9 of one row on the deep-trunc grid (a
    row alone is 648 KiB)."""
    from nilweier.config import load_config
    from nilweier.pipeline import _BATCH_BYTES

    config = {
        "potential": {"builtin": "cylinder"},
        "domain": {"sMin": -2.0, "sMax": 2.0, "tMin": -2.0, "tMax": 2.0, "ns": side, "nt": side},
        "truncationN": trunc_n,
        "stepsPerCell": 8,
        "thetas": [0.0],
    }
    pipeline = load_config(config).make_pipeline()
    calls = []
    _count_iwasawa_batches(monkeypatch, calls)
    pipeline.run()
    rows = max(1, _BATCH_BYTES // (side * (2 * trunc_n) ** 2 * 8))
    assert rows == {20: 3, 48: 1}[trunc_n]
    assert [(len(phi_s), items) for phi_s, items in calls] == [(rows, rows * side)] * (side // rows)
    stacks = np.concatenate([phi_s for phi_s, _ in calls])
    assert np.array_equal(stacks, np.stack([phi.c for phi in pipeline.phi_s]))


ROUNDTRIPS = os.path.join(os.path.dirname(__file__), "data", "roundtrip_reports.json")
with open(ROUNDTRIPS, encoding="utf-8") as _fh:
    PINNED_ROUNDTRIPS = json.load(_fh)


@pytest.mark.parametrize("name", sorted(PINNED_ROUNDTRIPS))
def test_roundtrip_report_is_bit_identical(name):
    """Every sample's errors and the worst b/B error of `cmd_roundtrip`."""
    pinned = PINNED_ROUNDTRIPS[name]
    assert hexed(cmd_roundtrip(pinned["config"])) == pinned["report"]


GENERATED = os.path.join(os.path.dirname(__file__), "data", "generate_digests.json")
with open(GENERATED, encoding="utf-8") as _fh:
    GENERATED_DIGESTS = json.load(_fh)


@pytest.mark.parametrize("name", sorted(GENERATED_DIGESTS))
def test_generated_files_are_bit_identical(name, tmp_path):
    """sha256 of every file `cmd_generate` writes (meshes of both spaces at
    every angle, CSV, manifest) for the three configs above and a 9x9
    cylinder at N = 48 with 7 angles, recorded before the frame grid became
    one coefficient array."""
    pinned = GENERATED_DIGESTS[name]
    cmd_generate(pinned["config"], str(tmp_path))
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == pinned["files"]


def test_twisting_parity_check_can_fail():
    """The parity check reads the frame grid, whose off-parity entries the
    engine always writes as zero, so the pinned reports hold 0 for it.  An
    off-parity entry of 1e-6 at one node of a copied grid must fail it, and
    change no other value of the report."""
    from dataclasses import replace

    from nilweier.config import load_config
    from nilweier.loopalg import _mask
    from nilweier.verify import run_verification

    pinned = PINNED["cylinder-9x9"]
    cfg = load_config(pinned["config"])
    pipeline = cfg.make_pipeline().run()
    fg = pipeline.frame_grid
    i, j = np.argwhere(~fg.holes)[0]
    frames = fg.frames.copy()
    k, a, b = np.argwhere(_mask(fg.trunc_n))[0]
    frames[i, j, k, a, b] = 1e-6
    pipeline.frame_grid = replace(fg, frames=frames)
    report = run_verification(pipeline, oracle=cfg.oracle)
    parity = next(c for c in report["checks"] if c["check"] == "frame_twisting_parity")
    assert parity["value"] == 1e-6 and parity["pass"] is False
    assert report["passed"] is False
    expected = dict(pinned["report"], passed=False)
    expected["checks"] = [
        hexed(parity) if c["check"] == "frame_twisting_parity" else c for c in expected["checks"]
    ]
    assert hexed(report) == expected
