"""Spans around the package's public functions, recorded from outside.

`Tracer.install` rebinds each function at the name its callers look up
(for example `nilweier.pipeline.iwasawa_double`, which `_frame_point`
calls), so only the traced worker process pays for the wrappers.  Spans
(name, start, end, parent, exception) are kept in memory and analysed or
written out after the operation.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np

# (span name, module, attribute at which callers bind the function)
BINDINGS = [
    ("cli.cmd_generate", "nilweier.cli", "cmd_generate"),
    ("cli.cmd_verify", "nilweier.cli", "cmd_verify"),
    ("config.load_config", "nilweier.cli", "load_config"),
    ("config.make_pipeline", "nilweier.config", "RunConfig.make_pipeline"),
    ("pipeline.ode", "nilweier.pipeline", "Pipeline.__init__"),
    ("pipeline.build_extended_frames", "nilweier.pipeline", "build_extended_frames"),
    ("pipeline.sym_map", "nilweier.pipeline", "sym_map"),
    ("pipeline.frame_at", "nilweier.pipeline", "Pipeline.frame_at"),
    ("pipeline.surface_at", "nilweier.pipeline", "Pipeline.surface_at"),
    ("pipeline.spinors_at", "nilweier.pipeline", "Pipeline.spinors_at"),
    ("pipeline.extract_normalized_potential", "nilweier.verify", "extract_normalized_potential"),
    ("factorization.iwasawa_double", "nilweier.pipeline", "iwasawa_double"),
    ("factorization.birkhoff_split", "nilweier.factorization", "birkhoff_split"),
    ("factorization.birkhoff_split", "nilweier.pipeline", "birkhoff_split"),
    ("loopalg.loop_mul", "nilweier.loopalg", "loop_mul"),
    ("loopalg.loop_mul", "nilweier.factorization", "loop_mul"),
    ("loopalg.loop_mul", "nilweier.pipeline", "loop_mul"),
    ("loopalg.loop_inv", "nilweier.loopalg", "loop_inv"),
    ("loopalg.loop_inv", "nilweier.factorization", "loop_inv"),
    ("loopalg.loop_inv", "nilweier.pipeline", "loop_inv"),
    ("loopalg.shift_mul", "nilweier.loopalg", "TwistedLoop.shift_mul"),
    ("export.export_obj", "nilweier.cli", "export_obj"),
    ("export.export_csv", "nilweier.cli", "export_csv"),
    ("verify.run_verification", "nilweier.cli", "run_verification"),
    ("verify.safe_points", "nilweier.verify", "safe_points"),
] + [
    (f"geometry.{fn}", "nilweier.verify", fn)
    for fn in (
        "first_fundamental_form",
        "spinors_and_dirac",
        "minimality_residual",
        "mean_curvature_L3",
        "abresch_rosenberg",
        "flatness_residual",
    )
]

NEAR_BOUNDARY_PREFIX = "factorization near big-cell boundary"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.originals: list = []
        self.reset()

    def reset(self) -> None:
        self.rows: list = []
        self.stack = [-1]
        self.conditioning: list[float] = []

    def wrap(self, name: str, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows, stack = self.rows, self.stack
            sid = len(rows)
            rows.append(None)
            parent = stack[-1]
            stack.append(sid)
            error = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    observe(out)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                rows[sid] = (name_id, start, end, parent, error)

        return traced

    def install(self) -> None:
        """Rebind every function in BINDINGS to a traced wrapper."""
        if self.originals:
            return
        wrapped = {}
        for name, module_name, attr in BINDINGS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            if id(original) not in wrapped:
                observe = None
                if name == "factorization.birkhoff_split":
                    observe = lambda res: self.conditioning.append(res.conditioning)
                wrapped[id(original)] = self.wrap(name, original, observe)
            self.originals.append((owner, leaf, original))
            setattr(owner, leaf, wrapped[id(original)])

    def uninstall(self) -> None:
        """Put the original functions back, so the next operation runs untraced."""
        for owner, leaf, original in reversed(self.originals):
            setattr(owner, leaf, original)
        self.originals = []

    def arrays(self):
        rows = self.rows
        name_id = np.array([r[0] for r in rows], dtype=np.int64)
        start = np.array([r[1] for r in rows])
        end = np.array([r[2] for r in rows])
        parent = np.array([r[3] for r in rows], dtype=np.int64)
        return name_id, start, end, parent

    def self_times(self):
        """Self time of every span and the largest nesting error, in seconds.

        A consistency check of the tracer's own bookkeeping: each child span
        must lie inside its parent's interval, and the children of one span
        must not cover more than its duration (no negative self time).
        """
        name_id, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - covered
        p = parent[has_parent]
        outside = np.concatenate(
            [[0.0], start[p] - start[has_parent], end[has_parent] - end[p]]
        ).max()
        return self_t, max(0.0, float(outside), float(-self_t.min(initial=0.0)))

    def layer_metrics(self, warnings_caught) -> tuple[dict, float]:
        """Per-layer numbers of the operation just traced, and the nesting error."""
        name_id, start, end, parent = self.arrays()
        dur = end - start
        self_t, nesting_error = self.self_times()
        errors = [r[4] for r in self.rows]
        ids = {n: i for i, n in enumerate(self.names)}

        def calls(name):
            return int((name_id == ids[name]).sum())

        def total(name):
            return float(dur[name_id == ids[name]].sum())

        def own(name):
            return float(self_t[name_id == ids[name]].sum())

        birkhoff = ids["factorization.birkhoff_split"]
        frame_at = ids["pipeline.frame_at"]
        iwasawa = name_id == ids["factorization.iwasawa_double"]
        under_frame_at = int((name_id[parent[iwasawa]] == frame_at).sum()) if iwasawa.any() else 0
        cond = np.array(self.conditioning) if self.conditioning else np.zeros(1)
        m = {
            "factorization.iwasawa_calls": calls("factorization.iwasawa_double"),
            "factorization.iwasawa_s": total("factorization.iwasawa_double"),
            "factorization.iwasawa_self_s": own("factorization.iwasawa_double"),
            "factorization.birkhoff_calls": calls("factorization.birkhoff_split"),
            "factorization.birkhoff_s": total("factorization.birkhoff_split"),
            "factorization.outside_big_cell": sum(
                1 for i, e in zip(name_id, errors) if i == birkhoff and e == "OutsideBigCell"
            ),
            "factorization.near_boundary_warnings": sum(
                1 for w in warnings_caught if str(w.message).startswith(NEAR_BOUNDARY_PREFIX)
            ),
            "factorization.cond_p50": float(np.percentile(cond, 50)),
            "factorization.cond_max": float(cond.max()),
            "loopalg.loop_mul_calls": calls("loopalg.loop_mul"),
            "loopalg.loop_mul_s": total("loopalg.loop_mul"),
            "loopalg.loop_inv_calls": calls("loopalg.loop_inv"),
            "loopalg.loop_inv_s": total("loopalg.loop_inv"),
            "loopalg.shift_mul_calls": calls("loopalg.shift_mul"),
            "loopalg.shift_mul_s": total("loopalg.shift_mul"),
            "pipeline.ode_s": total("pipeline.ode"),
            "pipeline.frames_s": total("pipeline.build_extended_frames"),
            "pipeline.sym_s": total("pipeline.sym_map"),
            "pipeline.frame_at_calls": calls("pipeline.frame_at"),
            "pipeline.frame_at_s": total("pipeline.frame_at"),
            "pipeline.frame_at_miss_ratio": under_frame_at / max(1, calls("pipeline.frame_at")),
            "pipeline.extract_s": total("pipeline.extract_normalized_potential"),
            "verify.run_s": total("verify.run_verification"),
            "verify.safe_points_s": total("verify.safe_points"),
            "verify.self_s": own("verify.run_verification"),
            "export.obj_s": total("export.export_obj"),
            "export.csv_s": total("export.export_csv"),
            "config.load_s": total("config.load_config"),
            "trace.spans": len(self.rows),
        }
        for name in self.names:
            if name.startswith("geometry."):
                m[f"{name}_s"] = total(name)
        m["verify.spans"] = sum(
            calls(n) for n in self.names if n.startswith(("verify.", "geometry."))
        )
        return m, nesting_error

    def write(self, path) -> None:
        origin = min((r[1] for r in self.rows), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start_s", "end_s", "parent", "exception"],
                    "spans": [
                        [n, round(s - origin, 9), round(e - origin, 9), p, err]
                        for n, s, e, p, err in self.rows
                    ],
                },
                fh,
            )
