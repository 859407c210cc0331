import json
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilweier import EmptyGrid, EvalDomain, GridTooCoarse
from nilweier.cli import cmd_generate, cmd_list_builtins, cmd_roundtrip, cmd_verify, main
from nilweier.config import RunConfig, builtin_config, load_config
from nilweier.export import export_csv, export_obj
from nilweier.pipeline import SurfaceGrid
from nilweier.verify import roundtrip_errors, run_diagnostics, run_verification, safe_points

from _oracles import safe_candidates_reference

DATA = os.path.join(os.path.dirname(__file__), "data")


def tiny_grid(holes=None):
    ns, nt = 2, 2
    nil = np.arange(ns * nt * 3, dtype=float).reshape(1, ns, nt, 3)
    hole_mask = np.zeros((ns, nt), dtype=bool)
    if holes:
        for i, j in holes:
            hole_mask[i, j] = True
    return SurfaceGrid(
        thetas=np.array([0.0]),
        s_grid=np.array([0.0, 1.0]),
        t_grid=np.array([0.0, 1.0]),
        nil=nil,
        l3=nil.copy(),
        normals=nil.copy(),
        holes=hole_mask,
    )


def test_obj_two_by_two():
    data = export_obj(tiny_grid(), 0, "nil").decode()
    lines = data.strip().split("\n")
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 4 and len(faces) == 1
    assert faces[0] == "f 1 2 4 3"


def test_obj_hole_keeps_vertices_drops_face():
    data = export_obj(tiny_grid(holes=[(1, 1)]), 0, "nil").decode()
    lines = data.strip().split("\n")
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 4 and len(faces) == 0
    assert verts[-1] == "v 0 0 0"


def test_empty_grid_raises():
    sg = tiny_grid(holes=[(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(EmptyGrid):
        export_obj(sg, 0, "nil")


def test_csv_format():
    data = export_csv(tiny_grid(holes=[(0, 1)])).decode()
    lines = data.strip().split("\n")
    assert lines[0] == "s,t,theta,space,x1,x2,x3"
    # 3 non-hole points x 3 spaces
    assert len(lines) == 1 + 9
    cell = lines[1].split(",")
    assert cell[3] == "nil"
    assert float(cell[4]) == 0.0


def test_csv_17_digit_roundtrip():
    sg = tiny_grid()
    sg.nil[0, 0, 0, 0] = 1.0 / 3.0
    data = export_csv(sg).decode()
    row = data.strip().split("\n")[1].split(",")
    assert float(row[4]) == 1.0 / 3.0
    assert row[4] == "0.33333333333333331"


def _non_square_grid(hole=True):
    """ns = 4, nt = 3; point (i, j) sits at Nil coordinates (i + 1/2, j - 1/4,
    10 i + j), and, with `hole`, (1, 1) is a hole, NaN as `sym_map` leaves it."""
    i, j = np.meshgrid(np.arange(4.0), np.arange(3.0), indexing="ij")
    nil = np.stack([i + 0.5, j - 0.25, 10 * i + j], axis=-1)[None]
    holes = np.zeros((4, 3), dtype=bool)
    holes[1, 1] = hole
    nil[0, holes] = np.nan
    return SurfaceGrid(
        thetas=np.array([0.25]),
        s_grid=np.array([-1.5, -0.5, 0.5, 1.5]),
        t_grid=np.array([-1.0, 0.0, 2.0]),
        nil=nil,
        l3=nil + [0.0, 0.0, 100.0],
        normals=nil * [-1.0, -1.0, 1.0] + [0.0, 0.0, 0.5],
        holes=holes,
    )


def test_obj_and_csv_on_a_non_square_grid():
    """Every square grid reads the same with s and t swapped; this one does not."""
    assert export_obj(_non_square_grid(hole=False), 0, "nil").decode().splitlines()[5:] == [
        "v 1.5 0.75 11", "v 2.5 0.75 21", "v 3.5 0.75 31",
        "v 0.5 1.75 2", "v 1.5 1.75 12", "v 2.5 1.75 22", "v 3.5 1.75 32",
        "f 1 2 6 5", "f 2 3 7 6", "f 3 4 8 7", "f 5 6 10 9", "f 6 7 11 10", "f 7 8 12 11",
    ]
    sg = _non_square_grid()
    assert export_obj(sg, 0, "l3").decode().splitlines() == [
        "v 0.5 -0.25 100", "v 1.5 -0.25 110", "v 2.5 -0.25 120", "v 3.5 -0.25 130",
        "v 0.5 0.75 101", "v 0 0 0", "v 2.5 0.75 121", "v 3.5 0.75 131",
        "v 0.5 1.75 102", "v 1.5 1.75 112", "v 2.5 1.75 122", "v 3.5 1.75 132",
        "f 3 4 8 7", "f 7 8 12 11",
    ]
    assert export_csv(sg).decode().splitlines() == [
        "s,t,theta,space,x1,x2,x3",
        "-1.5,-1,0.25,nil,0.5,-0.25,0",
        "-0.5,-1,0.25,nil,1.5,-0.25,10",
        "0.5,-1,0.25,nil,2.5,-0.25,20",
        "1.5,-1,0.25,nil,3.5,-0.25,30",
        "-1.5,0,0.25,nil,0.5,0.75,1",
        "0.5,0,0.25,nil,2.5,0.75,21",
        "1.5,0,0.25,nil,3.5,0.75,31",
        "-1.5,2,0.25,nil,0.5,1.75,2",
        "-0.5,2,0.25,nil,1.5,1.75,12",
        "0.5,2,0.25,nil,2.5,1.75,22",
        "1.5,2,0.25,nil,3.5,1.75,32",
        "-1.5,-1,0.25,l3,0.5,-0.25,100",
        "-0.5,-1,0.25,l3,1.5,-0.25,110",
        "0.5,-1,0.25,l3,2.5,-0.25,120",
        "1.5,-1,0.25,l3,3.5,-0.25,130",
        "-1.5,0,0.25,l3,0.5,0.75,101",
        "0.5,0,0.25,l3,2.5,0.75,121",
        "1.5,0,0.25,l3,3.5,0.75,131",
        "-1.5,2,0.25,l3,0.5,1.75,102",
        "-0.5,2,0.25,l3,1.5,1.75,112",
        "0.5,2,0.25,l3,2.5,1.75,122",
        "1.5,2,0.25,l3,3.5,1.75,132",
        "-1.5,-1,0.25,normal,-0.5,0.25,0.5",
        "-0.5,-1,0.25,normal,-1.5,0.25,10.5",
        "0.5,-1,0.25,normal,-2.5,0.25,20.5",
        "1.5,-1,0.25,normal,-3.5,0.25,30.5",
        "-1.5,0,0.25,normal,-0.5,-0.75,1.5",
        "0.5,0,0.25,normal,-2.5,-0.75,21.5",
        "1.5,0,0.25,normal,-3.5,-0.75,31.5",
        "-1.5,2,0.25,normal,-0.5,-1.75,2.5",
        "-0.5,2,0.25,normal,-1.5,-1.75,12.5",
        "0.5,2,0.25,normal,-2.5,-1.75,22.5",
        "1.5,2,0.25,normal,-3.5,-1.75,32.5",
    ]


def test_list_builtins():
    names = cmd_list_builtins()
    assert names == [
        "bscroll",
        "cylinder",
        "horizontal-plane",
        "horizontal-umbrella",
        "hyperbolic-cylinder",
    ]


def _small_cylinder_config(tmp_path, **overrides):
    cfg = {
        "name": "cylinder-small",
        "potential": {"builtin": "cylinder"},
        "domain": {"sMin": -1.0, "sMax": 1.0, "tMin": -1.0, "tMax": 1.0, "ns": 9, "nt": 9},
        "truncationN": 16,
        "stepsPerCell": 8,
        "thetas": [0.0, 0.1],
        "outputs": ["obj-nil", "obj-l3", "csv"],
    }
    cfg.update(overrides)
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def test_generate_writes_meshes_and_manifest(tmp_path):
    tmp_path = str(tmp_path)
    cfg = _small_cylinder_config(tmp_path)
    out = os.path.join(tmp_path, "out")
    manifest = cmd_generate(cfg, out)
    assert manifest["hole_count"] == 0
    assert {f["file"] for f in manifest["files"]} == {
        "nil_00.obj",
        "nil_01.obj",
        "l3_00.obj",
        "l3_01.obj",
        "surfaces.csv",
    }
    assert os.path.exists(os.path.join(out, "manifest.json"))
    # generated hyperbolic paraboloid satisfies x3 = x1 x2 / 2
    verts = []
    for line in open(os.path.join(out, "nil_00.obj")):
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
    verts = np.array(verts)
    assert np.abs(verts[:, 2] - verts[:, 0] * verts[:, 1] / 2.0).max() < 1e-6


def test_generate_is_deterministic(tmp_path):
    tmp_path = str(tmp_path)
    cfg = _small_cylinder_config(tmp_path)
    blobs = []
    for run in ("a", "b"):
        out = os.path.join(tmp_path, f"out-{run}")
        cmd_generate(cfg, out)
        blob = {}
        for name in ("nil_00.obj", "l3_00.obj", "surfaces.csv", "manifest.json"):
            blob[name] = open(os.path.join(out, name), "rb").read()
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_golden_plane_mesh(tmp_path):
    tmp_path = str(tmp_path)
    cfg_path = os.path.join(tmp_path, "golden.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "name": "plane-golden",
                "potential": {"builtin": "horizontal-plane"},
                "domain": {
                    "sMin": -2.0,
                    "sMax": 2.0,
                    "tMin": -2.0,
                    "tMax": 2.0,
                    "ns": 21,
                    "nt": 21,
                },
                "truncationN": 16,
                "stepsPerCell": 8,
                "thetas": [0.0],
                "outputs": ["obj-nil"],
            },
            fh,
        )
    out = os.path.join(tmp_path, "out")
    cmd_generate(cfg_path, out)
    produced = open(os.path.join(out, "nil_00.obj"), "rb").read()
    golden = open(os.path.join(DATA, "plane_golden_nil.obj"), "rb").read()
    assert produced == golden


def test_verify_small_cylinder_passes(tmp_path):
    cfg = _small_cylinder_config(str(tmp_path))
    report_path = os.path.join(str(tmp_path), "report.json")
    report = cmd_verify(cfg, report_path)
    assert report["passed"], [c for c in report["checks"] if not c["pass"]]
    on_disk = json.load(open(report_path))
    assert on_disk["passed"] is True
    assert all({"check", "value", "threshold", "pass"} <= set(c) for c in on_disk["checks"])


def _no_iwasawa(*args, **kwargs):
    raise AssertionError("Iwasawa split after the sweep")


def test_nil_side_selection_reads_the_sweep(tmp_path, plane_pipe, monkeypatch):
    small = load_config(_small_cylinder_config(str(tmp_path))).make_pipeline().run()
    monkeypatch.setattr("nilweier.pipeline._iwasawa_rows", _no_iwasawa)
    assert safe_points(small, nil_side=True) == [
        (0.0, 0.0), (-0.25, 0.0), (0.0, -0.25), (0.0, 0.25), (0.25, 0.0),
        (-0.5, 0.0), (-0.25, -0.25), (-0.25, 0.25), (0.0, -0.5),
    ]
    a, b = -0.19999999999999996, 0.20000000000000018
    assert safe_points(plane_pipe, nil_side=True) == [
        (0.0, 0.0), (a, 0.0), (0.0, a), (0.0, b), (b, 0.0),
        (-0.3999999999999999, 0.0), (a, a), (0.0, -0.3999999999999999), (a, b),
    ]


@settings(max_examples=200, deadline=None)
@given(
    ns=st.integers(2, 9),
    nt=st.integers(2, 9),
    density=st.sampled_from([0.0, 0.03, 0.1, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_safe_points_window_equals_the_double_loop(ns, nt, density, seed):
    """On random hole masks of every side from 2 to 9, square or not, the
    candidates of `safe_points`, in order, are the double loop's: none for
    a side below 5."""
    rng = np.random.default_rng(seed)
    s_grid, t_grid = np.sort(rng.normal(size=ns)), np.sort(rng.normal(size=nt))
    holes = rng.random((ns, nt)) < density
    pipe = SimpleNamespace(frame_grid=SimpleNamespace(holes=holes, s_grid=s_grid, t_grid=t_grid))
    expected = safe_candidates_reference(holes, s_grid, t_grid)
    assert safe_points(pipe, count=ns * nt) == expected
    assert expected or min(ns, nt) < 5 or holes.any()


def test_verify_detects_bad_integration(tmp_path):
    # one RK4 step across a 0.5-wide cell leaves visible det drift
    cfg = _small_cylinder_config(str(tmp_path), stepsPerCell=1, domain={
        "sMin": -1.0, "sMax": 1.0, "tMin": -1.0, "tMax": 1.0, "ns": 5, "nt": 5,
    })
    report = cmd_verify(cfg)
    assert not report["passed"]


def test_roundtrip_command(tmp_path):
    cfg = _small_cylinder_config(str(tmp_path))
    result = cmd_roundtrip(cfg)
    assert result["pass"] and result["worst_b_B_error"] <= 1e-7


def test_roundtrip_command_matches_shared_roundtrip_errors(tmp_path):
    path = _small_cylinder_config(str(tmp_path))
    result = cmd_roundtrip(path)
    cfg = load_config(path)
    pipeline = cfg.make_pipeline().run()
    half = 0.45 * min(abs(cfg.s_min), cfg.s_max, abs(cfg.t_min), cfg.t_max)
    rows, worst = roundtrip_errors(pipeline, np.linspace(-half, half, 7))
    assert result["worst_b_B_error"] == worst
    assert result["samples"] == rows


def test_commands_run_no_scalar_loop_algebra(tmp_path, monkeypatch):
    """`cmd_generate`, `cmd_verify` and `cmd_roundtrip` run on the row
    kernels alone: with `birkhoff_split`, `loop_mul` and `loop_inv` raising
    wherever the package binds them, each still passes on bscroll."""
    from nilweier import factorization, loopalg, pipeline

    def scalar(*args, **kwargs):
        raise AssertionError("scalar loop algebra called")

    for module in (pipeline, factorization, loopalg):
        for name in ("birkhoff_split", "loop_mul", "loop_inv"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, scalar)
    assert cmd_generate("bscroll", str(tmp_path))["hole_count"] == 0
    assert cmd_verify("bscroll")["passed"]
    assert cmd_roundtrip("bscroll")["pass"]


def test_manifest_and_report_share_diagnostics(tmp_path):
    path = _small_cylinder_config(str(tmp_path))
    manifest = cmd_generate(path, os.path.join(str(tmp_path), "out"))
    cfg = load_config(path)
    pipeline = cfg.make_pipeline().run()
    assert run_diagnostics(pipeline) == {
        "max_conditioning": manifest["max_conditioning"],
        "tail_relative": manifest["tail_relative"],
    }
    assert manifest["max_conditioning"] >= 1.0 and manifest["tail_relative"] > 0.0
    report = run_verification(pipeline, oracle=cfg.oracle)
    assert report["max_conditioning"] == manifest["max_conditioning"]
    assert report["tail_relative"] == manifest["tail_relative"]


def test_main_exit_codes(tmp_path, capsys):
    assert main(["list-builtins"]) == 0
    assert "cylinder" in capsys.readouterr().out
    assert main(["generate", "--config", "no-such-thing.json", "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    cfg = _small_cylinder_config(str(tmp_path))
    out = str(tmp_path / "out")
    assert main(["generate", "--config", cfg, "--out", out]) == 0
    assert capsys.readouterr().out == f"wrote 5 files to {out} (0 holes)\n"
    assert main(["roundtrip", "--config", "bscroll"]) == 0
    worst = cmd_roundtrip("bscroll")["worst_b_B_error"]
    assert capsys.readouterr().out == f"worst b/B recovery error: {worst:.3e}\n"
    assert main(["verify", "--config", cfg]) == 0
    bad = _small_cylinder_config(
        str(tmp_path),
        stepsPerCell=1,
        domain={"sMin": -1.0, "sMax": 1.0, "tMin": -1.0, "tMax": 1.0, "ns": 5, "nt": 5},
    )
    assert main(["verify", "--config", bad]) == 2


def test_verify_without_a_safe_point_is_a_typed_error(tmp_path, capsys):
    """On a 5x5 plane grid every interior point has a hole within two cells,
    so no check has a point to evaluate at."""
    cfg = _small_cylinder_config(
        str(tmp_path),
        potential={"builtin": "horizontal-plane"},
        domain={"sMin": -2.0, "sMax": 2.0, "tMin": -2.0, "tMax": 2.0, "ns": 5, "nt": 5},
    )
    with pytest.raises(GridTooCoarse, match="hole-free 5x5 neighborhood"):
        cmd_verify(cfg)
    assert main(["verify", "--config", cfg]) == 1
    assert "hole-free 5x5 neighborhood" in capsys.readouterr().err


def test_potential_error_inside_an_axis_integration_names_its_node(tmp_path, capsys):
    """f = 2 + sqrt(100 (s - 1/4)^2 - 1) has values at every node but none
    for |s - 1/4| < 1/10, where the RK4 steps towards s = 0.5 evaluate it."""
    b_re = "2 + sqrt(100*(z-0.25)^2 - 1)"
    cfg = _small_cylinder_config(
        str(tmp_path),
        potential={"normalized": {"b_re": b_re, "b_im": "0", "B_re": "0", "B_im": "0"}},
        domain={"sMin": -1.0, "sMax": 1.0, "tMin": -1.0, "tMax": 1.0, "ns": 5, "nt": 5},
        stepsPerCell=4,
    )
    message = "at s=0.1875: math domain error at gridpoint (s=0.5, t=0.0)"
    with pytest.raises(EvalDomain) as exc:
        cmd_generate(cfg, str(tmp_path / "out"))
    assert exc.value.gridpoint == (0.5, 0.0)
    assert str(exc.value).endswith(message)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.rstrip().endswith(message)


def test_error_context_in_manifest(tmp_path):
    tmp_path = str(tmp_path)
    cfg = {
        "name": "plane-holes",
        "potential": {"builtin": "horizontal-plane"},
        "domain": {"sMin": -2.0, "sMax": 2.0, "tMin": -2.0, "tMax": 2.0, "ns": 9, "nt": 9},
        "truncationN": 12,
        "stepsPerCell": 8,
        "thetas": [0.0],
        "outputs": ["obj-nil"],
    }
    path = os.path.join(tmp_path, "cfg.json")
    json.dump(cfg, open(path, "w"))
    manifest = cmd_generate(path, os.path.join(tmp_path, "out"))
    assert manifest["hole_count"] > 0
    assert all("i" in h and "j" in h and "error" in h for h in manifest["holes"])


def test_load_config_paths():
    from nilweier.config import load_config

    cfg = load_config("cylinder")
    assert cfg.name == "cylinder" and cfg.trunc_n == 20 and cfg.oracle == "cylinder"
    cfg2 = load_config(
        '{"name": "inline", "potential": {"pair": {"f": "1", "g": "1", "Q": "0", "R": "t"}},'
        ' "domain": {"sMin": -1, "sMax": 1, "tMin": -1, "tMax": 1, "ns": 5, "nt": 5}}'
    )
    assert cfg2.name == "inline" and cfg2.potential.R.eval(0.5) == 0.5
    cfg3 = load_config({"builtin": "bscroll"})
    assert cfg3.oracle == "bscroll"


def test_config_validation_errors():
    from nilweier.config import RunConfig, builtin_config

    base = builtin_config("cylinder")
    with pytest.raises(ValueError):
        RunConfig("x", base.potential, -1, 1, -1, 1, ns=1, nt=5)
    with pytest.raises(ValueError):
        RunConfig("x", base.potential, -1, 1, -1, 1, ns=5, nt=5, trunc_n=2)
    with pytest.raises(ValueError):
        RunConfig("x", base.potential, 1, 2, -1, 1, ns=5, nt=5)
    for thetas in ((), (float("nan"),)):
        with pytest.raises(ValueError):
            RunConfig("x", base.potential, -1, 1, -1, 1, ns=5, nt=5, thetas=thetas)


@pytest.mark.parametrize("theta", [32.0, 800.0, -800.0])
def test_a_spectral_angle_that_overflows_exits_1_naming_it(tmp_path, capsys, theta):
    """At truncationN 24, theta = 32 made every OBJ vertex and CSV row NaN with
    exit 0, and |theta| = 800 ended in a bare OverflowError: both commands now
    exit 1 with one error line naming the angle and truncationN."""
    domain = {"sMin": -0.4, "sMax": 0.4, "tMin": -0.4, "tMax": 0.4, "ns": 9, "nt": 9}
    config = {"potential": {"builtin": "horizontal-plane"}, "domain": domain, "thetas": [0.0, theta]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    message = f"spectral angle {theta!r} overflows e^(theta k) at |k| <= truncationN = 24"
    for argv in (["generate", "--config", str(path), "--out", str(out)], ["verify", "--config", str(path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "theta, gridpoint",
    [(-40.0, "(s=0.08333333333333333, t=2.0)"), (20.0, "(s=0.25, t=0.0)")],
)
def test_a_frame_singular_at_a_run_angle_exits_1_naming_its_gridpoint(tmp_path, capsys, theta, gridpoint):
    """horizontal-umbrella on s in [0, 0.5], t in [0, 2], 7 x 3, at N = 5: the
    det of the product frame (initial frame times F) at e^theta cancels to 0
    at some gridpoints, though the initial frame's own det there passes the
    config check.  `generate` wrote `v nan nan nan` with exit 0 after numpy
    RuntimeWarnings; both commands now exit 1 with one error line naming the
    first such gridpoint and the angle, write nothing and warn nothing."""
    domain = {"sMin": 0.0, "sMax": 0.5, "tMin": 0.0, "tMax": 2.0, "ns": 7, "nt": 3}
    config = {
        "potential": {"builtin": "horizontal-umbrella"}, "domain": domain, "truncationN": 5, "thetas": [theta]
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    message = f"frame has det 0.0 at spectral angle {theta!r} at gridpoint {gridpoint}"
    for argv in (["generate", "--config", str(path), "--out", str(out)], ["verify", "--config", str(path)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "theta, trunc_n, accepted",
    [(29.3, 24, True), (-29.3, 24, True), (29.4, 24, False), (88.0, 8, True), (95.0, 8, False)],
)
def test_an_angle_is_accepted_where_the_sym_weights_are_finite(theta, trunc_n, accepted):
    """The largest weight k^2 e^(|theta| N) of the Sym lam-sums overflows above
    |theta| N + 2 log N = 709.78: at N = 24 between 29.3 and 29.4, at N = 8
    between 88 and 95."""
    base = builtin_config("horizontal-plane")
    make = lambda: RunConfig("x", base.potential, -1, 1, -1, 1, 5, 5, trunc_n, thetas=(0.0, theta))  # noqa: E731
    if accepted:
        assert make().thetas == (0.0, theta)
    else:
        with pytest.raises(ValueError, match=f"spectral angle {theta!r} overflows"):
            make()


def test_a_malformed_config_exits_1_with_one_error_line(tmp_path, capsys):
    domain = {"sMin": -1, "sMax": 1, "tMin": -1, "tMax": 1, "ns": 5, "nt": 5}
    cases = {
        "no-domain": ({"potential": {"builtin": "cylinder"}}, "config has no key 'domain'"),
        "no-g": (
            {"potential": {"pair": {"f": "1", "Q": "0", "R": "t"}}, "domain": domain},
            "config has no key 'g'",
        ),
        "scalar-thetas": (
            {"potential": {"builtin": "cylinder"}, "domain": domain, "thetas": 0.5},
            "config has a value of the wrong type: 'float' object is not iterable",
        ),
        "builtin-with-a-field": (
            {"builtin": "cylinder", "thetas": [0.0]}, "config has no key 'potential'"
        ),
    }
    deep = {"long-sum": "+".join(["s"] * 1200), "deep-groups": "(" * 400 + "s" + ")" * 400}
    for name, Q in deep.items():
        pair = {"f": "1", "g": "1", "Q": Q, "R": "t"}
        message = f"expression {Q[:40] + '...'!r} nests deeper than 100 levels"
        cases[name] = ({"potential": {"pair": pair}, "domain": domain}, message)
    cylinder = {"potential": {"builtin": "cylinder"}, "domain": domain}
    for key, value, message in (
        ("thetas", "12", "config key 'thetas' must be a list, not the string '12'"),
        ("thetas", [0.0, True], "config key 'thetas' must be a number, not True"),
        ("outputs", "csv", "config key 'outputs' must be a list, not the string 'csv'"),
        ("domain", dict(domain, ns=5.9), "config key 'ns' must be an integer, not 5.9"),
        ("domain", dict(domain, sMax="1"), "config key 'sMax' must be a number, not '1'"),
        # Python's json reads Infinity, -Infinity and NaN
        ("domain", dict(domain, sMax=math.inf), "domain bound sMax must be finite, not inf"),
        ("domain", dict(domain, tMin=-math.inf), "domain bound tMin must be finite, not -inf"),
        ("domain", dict(domain, sMin=math.nan), "domain bound sMin must be finite, not nan"),
        ("domain", dict(domain, sMin=-1e308, sMax=1e308), "domain span sMax - sMin must be finite, not inf"),
        ("domain", dict(domain, tMin=-1e308, tMax=1e308), "domain span tMax - tMin must be finite, not inf"),
        (
            "domain",
            dict(domain, sMin=-(10**400)),
            "config has a number out of range: int too large to convert to float",
        ),
        ("truncationN", 8.7, "config key 'truncationN' must be an integer, not 8.7"),
        ("stepsPerCell", True, "config key 'stepsPerCell' must be an integer, not True"),
        ("initialFrame", {"coeffs": []}, "config key 'coeffs' must list at least one term"),
        (
            "initialFrame",
            {"coeffs": [{"k": 0, "m": [[1, 0], [0, 1]]}, {"k": 1e12, "m": [[1, 0], [0, 1]]}]},
            "degree 1000000000000 outside truncation [-24, 24]",
        ),
        # singular frames, zero and of rank one: det F(e^theta) is what `_sym_rows` divides by
        (
            "initialFrame",
            {"coeffs": [{"k": 0, "m": [[0, 0], [0, 0]]}]},
            "initialFrame has det 0.0 at spectral angle 0.0",
        ),
        (
            "initialFrame",
            {"coeffs": [{"k": 0, "m": [[1, 0], [0, 0]]}]},
            "initialFrame has det 0.0 at spectral angle 0.0",
        ),
        # sizes past the 128 TiB user address space: the allocation fails at
        # once on any overcommit setting, committing no memory
        (
            "domain",
            dict(domain, ns=10**15),
            "Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) and data type float64",
        ),
        (
            "stepsPerCell",
            10**12,
            "Unable to allocate 466. TiB for an array with shape (2000000000000, 4, 4, 2) and data type float64",
        ),
    ):
        cases[f"bad-{key}-{len(cases)}"] = (dict(cylinder, **{key: value}), message)
    for name, (config, message) in cases.items():
        path = os.path.join(str(tmp_path), f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert main(["generate", "--config", path, "--out", str(tmp_path / name)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", name


def _umbrella_json(**overrides):
    c, s = math.cosh(0.5), math.sinh(0.5)
    config = {
        "potential": {"normalized": {"b_re": "4", "b_im": "0", "B_re": "0", "B_im": "0"}},
        "domain": {"sMin": -0.6, "sMax": 0.6, "tMin": -0.6, "tMax": 0.6, "ns": 25, "nt": 25},
        "truncationN": 16,
        "initialFrame": {
            "coeffs": [
                {"k": 0, "m": [[c, 0.0], [0.0, c]]},
                {"k": -3, "m": [[0.0, s], [0.0, 0.0]]},
                {"k": 3, "m": [[0.0, 0.0], [s, 0.0]]},
            ]
        },
    }
    config.update(overrides)
    return json.dumps(config)


def test_initial_frame_from_json_matches_the_umbrella_builtin(tmp_path):
    """So does one with a zero term at a degree far past truncationN, which
    is dropped rather than allocated."""
    far = json.loads(_umbrella_json())
    far["initialFrame"]["coeffs"].append({"k": 1e12, "m": [[0, 0], [0, 0]]})
    outputs = {}
    sources = {"builtin": "horizontal-umbrella", "json": _umbrella_json()}
    sources["far-zero"] = json.dumps(far)
    for name, source in sources.items():
        out = str(tmp_path / name)
        cmd_generate(source, out)
        outputs[name] = [
            open(os.path.join(out, f), "rb").read()
            for f in ("nil_00.obj", "l3_00.obj", "surfaces.csv")
        ]
    assert outputs["json"] == outputs["far-zero"] == outputs["builtin"]


@pytest.mark.parametrize(
    "Q",
    ["sin(" * 100 + "s" + ")" * 100, "(" * 100 + "s" + "-s+s" * 50 + ")" * 100],
    ids=["function-arguments", "groups-around-operations"],
)
def test_the_deepest_accepted_expression_generates(tmp_path, capsys, Q):
    """100 nested function arguments, or 100 groups around 100 operations:
    the config reader accepts them, and `generate` runs them to exit 0."""
    pair = {"f": "1", "g": "1", "Q": Q, "R": "t"}
    path = _small_cylinder_config(str(tmp_path), potential={"pair": pair}, outputs=["csv"])
    assert main(["generate", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == f"wrote 1 files to {tmp_path / 'out'} (0 holes)\n"


def test_a_builtin_potential_brings_its_oracle_and_initial_frame_only():
    umbrella = builtin_config("horizontal-umbrella")
    domain = {"sMin": -0.5, "sMax": 0.5, "tMin": -0.5, "tMax": 0.5, "ns": 5, "nt": 5}
    cfg = load_config({"potential": {"builtin": "horizontal-umbrella"}, "domain": domain})
    assert cfg.oracle == "horizontal-umbrella"
    assert np.array_equal(cfg.initial_frame.c, umbrella.initial_frame.c)
    assert (cfg.name, cfg.ns, cfg.s_max) == ("horizontal-umbrella", 5, 0.5)
    defaults = RunConfig("x", cfg.potential, -1, 1, -1, 1, 5, 5)
    for field in ("trunc_n", "steps_per_cell", "thetas", "outputs"):
        assert getattr(cfg, field) == getattr(defaults, field), field


def test_builtin_configs_are_independent():
    first = builtin_config("cylinder")
    first.ns, first.thetas, first.oracle = 3, (0.5,), None
    second = builtin_config("cylinder")
    assert (second.ns, second.thetas, second.oracle) == (41, (0.0, 0.1, -0.1), "cylinder")
    assert second is not builtin_config("cylinder")
