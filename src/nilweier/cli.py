"""Command line interface.

    nilweier generate  --config <path-or-builtin> --out <dir>
    nilweier verify    --config <path-or-builtin> --report <path>
    nilweier roundtrip --config <path-or-builtin>
    nilweier list-builtins

Exit codes: 0 all good, 2 verification failures, 1 hard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import BUILTINS, load_config
from .errors import NilWeierError
from .export import export_csv, export_obj
from .verify import roundtrip_errors, run_diagnostics, run_verification

__all__ = ["main", "cmd_generate", "cmd_verify", "cmd_roundtrip", "cmd_list_builtins"]


def _run_pipeline(config_source):
    cfg = load_config(config_source)
    pipeline = cfg.make_pipeline()
    pipeline.run()
    return cfg, pipeline


def cmd_generate(config_source, out_dir: str) -> dict:
    """Run the pipeline and write meshes plus a manifest; returns the manifest."""
    cfg, pipeline = _run_pipeline(config_source)
    sg = pipeline.surface_grid
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for k, theta in enumerate(sg.thetas):
        for space in ("nil", "l3"):
            if f"obj-{space}" not in cfg.outputs:
                continue
            name = f"{space}_{k:02d}.obj"
            with open(os.path.join(out_dir, name), "wb") as fh:
                fh.write(export_obj(sg, k, space))
            files.append({"file": name, "theta": float(theta), "space": space})
    if "csv" in cfg.outputs:
        with open(os.path.join(out_dir, "surfaces.csv"), "wb") as fh:
            fh.write(export_csv(sg))
        files.append({"file": "surfaces.csv"})
    fg = pipeline.frame_grid
    manifest = {
        "name": cfg.name,
        "truncationN": cfg.trunc_n,
        "thetas": [float(x) for x in sg.thetas],
        "grid": {"ns": cfg.ns, "nt": cfg.nt},
        "files": files,
        "holes": [
            {"i": i, "j": j, "error": kind, "detail": detail}
            for i, j, kind, detail in fg.hole_errors[:50]
        ],
        "hole_count": int(fg.holes.sum()),
        **run_diagnostics(pipeline),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def cmd_verify(config_source, report_path: str | None = None) -> dict:
    cfg, pipeline = _run_pipeline(config_source)
    report = run_verification(pipeline, oracle=cfg.oracle)
    text = json.dumps(report, indent=2, sort_keys=True)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return report


def cmd_roundtrip(config_source) -> dict:
    cfg, pipeline = _run_pipeline(config_source)
    half = 0.45 * min(abs(cfg.s_min), cfg.s_max, abs(cfg.t_min), cfg.t_max)
    rows, worst = roundtrip_errors(pipeline, np.linspace(-half, half, 7))
    return {"name": cfg.name, "samples": rows, "worst_b_B_error": worst, "pass": worst <= 1e-7}


def cmd_list_builtins() -> list[str]:
    return list(BUILTINS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nilweier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_gen = sub.add_parser("generate", help="run the pipeline and write meshes")
    p_gen.add_argument("--config", required=True, help="config JSON path or builtin name")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_ver = sub.add_parser("verify", help="run every verification check")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--report", default=None, help="write the JSON report here")
    p_rt = sub.add_parser("roundtrip", help="potential -> frames -> potential")
    p_rt.add_argument("--config", required=True)
    sub.add_parser("list-builtins", help="print available builtin configurations")
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            manifest = cmd_generate(args.config, args.out)
            print(f"wrote {len(manifest['files'])} files to {args.out} "
                  f"({manifest['hole_count']} holes)")
            return 0
        if args.command == "verify":
            report = cmd_verify(args.config, args.report)
            for c in report["checks"]:
                status = "pass" if c["pass"] else "FAIL"
                print(f"[{status}] {c['check']}: {c['value']:.3e} (<= {c['threshold']:.1e})")
            return 0 if report["passed"] else 2
        if args.command == "roundtrip":
            result = cmd_roundtrip(args.config)
            print(f"worst b/B recovery error: {result['worst_b_B_error']:.3e}")
            return 0 if result["pass"] else 2
        if args.command == "list-builtins":
            for name in cmd_list_builtins():
                print(name)
            return 0
    except (NilWeierError, ValueError, OSError, MemoryError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
