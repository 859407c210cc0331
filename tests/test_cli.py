import json
import os

import numpy as np
import pytest

from nilweier import EmptyGrid, GridTooCoarse
from nilweier.cli import cmd_generate, cmd_list_builtins, cmd_roundtrip, cmd_verify, main
from nilweier.config import load_config
from nilweier.export import export_csv, export_obj
from nilweier.pipeline import SurfaceGrid
from nilweier.verify import roundtrip_errors, run_diagnostics, run_verification, safe_points

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
    monkeypatch.setattr("nilweier.pipeline.iwasawa_double", _no_iwasawa)
    assert safe_points(small, nil_side=True) == [
        (0.0, 0.0), (-0.25, 0.0), (0.0, -0.25), (0.0, 0.25), (0.25, 0.0),
        (-0.5, 0.0), (-0.25, -0.25), (-0.25, 0.25), (0.0, -0.5),
    ]
    a, b = -0.19999999999999996, 0.20000000000000018
    assert safe_points(plane_pipe, nil_side=True) == [
        (0.0, 0.0), (a, 0.0), (0.0, a), (0.0, b), (b, 0.0),
        (-0.3999999999999999, 0.0), (a, a), (0.0, -0.3999999999999999), (a, b),
    ]


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
    cfg = _small_cylinder_config(str(tmp_path))
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

