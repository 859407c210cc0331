"""Run configuration: JSON ingestion, validation, builtin catalogue."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .loopalg import TwistedLoop
from .pipeline import Pipeline, PotentialSpec, pair_potential, translate_potential

__all__ = ["RunConfig", "BUILTINS", "builtin_config", "load_config", "threads_from_env"]

_ALLOWED_OUTPUTS = ("obj-nil", "obj-l3", "csv")


@dataclass
class RunConfig:
    name: str
    potential: PotentialSpec
    s_min: float
    s_max: float
    t_min: float
    t_max: float
    ns: int
    nt: int
    trunc_n: int = 24
    steps_per_cell: int = 8
    thetas: tuple = (0.0,)
    initial_frame: TwistedLoop | None = None
    outputs: tuple = _ALLOWED_OUTPUTS
    oracle: str | None = None  # builtin name, enables closed-form checks

    def __post_init__(self):
        if self.ns < 2 or self.nt < 2:
            raise ValueError("grid needs ns >= 2 and nt >= 2")
        if not (4 <= self.trunc_n <= 64):
            raise ValueError("truncationN must lie in [4, 64]")
        if not (self.s_min <= 0.0 <= self.s_max and self.t_min <= 0.0 <= self.t_max):
            raise ValueError("domain must contain the basepoint (0, 0)")
        for out in self.outputs:
            if out not in _ALLOWED_OUTPUTS:
                raise ValueError(f"unknown output kind {out!r}")

    def s_grid(self) -> np.ndarray:
        return _snapped_linspace(self.s_min, self.s_max, self.ns)

    def t_grid(self) -> np.ndarray:
        return _snapped_linspace(self.t_min, self.t_max, self.nt)

    def make_pipeline(self) -> Pipeline:
        return Pipeline(
            self.potential,
            self.s_grid(),
            self.t_grid(),
            trunc_n=self.trunc_n,
            steps_per_cell=self.steps_per_cell,
            thetas=self.thetas,
            initial_frame=self.initial_frame,
        )


def _snapped_linspace(a: float, b: float, n: int) -> np.ndarray:
    grid = np.linspace(a, b, n)
    grid[np.abs(grid) < 1e-12] = 0.0
    if not np.any(grid == 0.0):
        raise ValueError("grid must contain the basepoint 0 as a sample")
    return grid


def _umbrella_frame(a: float) -> TwistedLoop:
    """Constant para-unitary loop with degree +-3 shear, parameter a."""
    c, s = math.cosh(a), math.sinh(a)
    return TwistedLoop.from_terms(
        4,
        {
            0: [[c, 0.0], [0.0, c]],
            -3: [[0.0, s], [0.0, 0.0]],
            3: [[0.0, 0.0], [s, 0.0]],
        },
    )


def _builtin_specs() -> dict:
    return {
        "cylinder": dict(
            potential=translate_potential("1", "0", "0.0625", "0"),
            domain=(-2.0, 2.0, -2.0, 2.0, 41, 41),
            trunc_n=20,
            thetas=(0.0, 0.1, -0.1),
        ),
        "hyperbolic-cylinder": dict(
            potential=translate_potential("1", "0", "-0.0625", "0"),
            domain=(-2.0, 2.0, -2.0, 2.0, 41, 41),
            trunc_n=20,
            thetas=(0.0, 0.1, -0.1),
        ),
        "horizontal-plane": dict(
            potential=translate_potential("4", "0", "0", "0"),
            domain=(-2.0, 2.0, -2.0, 2.0, 41, 41),
            trunc_n=16,
            thetas=(0.0, 0.1, -0.1),
        ),
        "bscroll": dict(
            potential=pair_potential("1", "1", "0", "t"),
            domain=(-1.0, 1.0, -1.0, 1.0, 41, 41),
            trunc_n=20,
            thetas=(0.0,),
        ),
        "horizontal-umbrella": dict(
            potential=translate_potential("4", "0", "0", "0"),
            domain=(-0.6, 0.6, -0.6, 0.6, 25, 25),
            trunc_n=16,
            thetas=(0.0,),
            initial_frame=_umbrella_frame(0.5),
        ),
    }


BUILTINS = tuple(sorted(_builtin_specs().keys()))


def builtin_config(name: str) -> RunConfig:
    specs = _builtin_specs()
    if name not in specs:
        raise ValueError(f"unknown builtin {name!r}; have {', '.join(BUILTINS)}")
    spec = specs[name]
    s0, s1, t0, t1, ns, nt = spec["domain"]
    return RunConfig(
        name=name,
        potential=spec["potential"],
        s_min=s0,
        s_max=s1,
        t_min=t0,
        t_max=t1,
        ns=ns,
        nt=nt,
        trunc_n=spec.get("trunc_n", 24),
        steps_per_cell=spec.get("steps_per_cell", 8),
        thetas=tuple(spec.get("thetas", (0.0,))),
        initial_frame=spec.get("initial_frame"),
        outputs=_ALLOWED_OUTPUTS,
        oracle=name,
    )


def _potential_from_dict(d: dict) -> tuple[PotentialSpec, str | None]:
    if "builtin" in d:
        cfg = builtin_config(d["builtin"])
        return cfg.potential, d["builtin"]
    if "pair" in d:
        p = d["pair"]
        return pair_potential(p["f"], p["g"], p["Q"], p["R"]), None
    if "normalized" in d:
        p = d["normalized"]
        return (
            translate_potential(p["b_re"], p["b_im"], p["B_re"], p["B_im"]),
            None,
        )
    raise ValueError("potential must specify one of: builtin, pair, normalized")


def _initial_frame_from_dict(d: dict | None) -> TwistedLoop | None:
    if d is None:
        return None
    terms = {int(e["k"]): np.asarray(e["m"], float) for e in d["coeffs"]}
    n = max(4, max(abs(k) for k in terms))
    return TwistedLoop.from_terms(n, terms)


def load_config(source) -> RunConfig:
    """RunConfig from a JSON file path, a JSON string, or a builtin name."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text in BUILTINS:
            return builtin_config(text)
        if os.path.exists(text):
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        elif text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            raise ValueError(
                f"config {text!r} is neither a builtin name ({', '.join(BUILTINS)}), "
                "an existing JSON file, nor inline JSON"
            )
    if "builtin" in data and set(data) <= {"builtin"}:
        return builtin_config(data["builtin"])
    potential, oracle = _potential_from_dict(data["potential"])
    dom = data["domain"]
    base = None
    if "potential" in data and "builtin" in data["potential"]:
        base = builtin_config(data["potential"]["builtin"])
    return RunConfig(
        name=data.get("name", oracle or "run"),
        potential=potential,
        s_min=float(dom["sMin"]),
        s_max=float(dom["sMax"]),
        t_min=float(dom["tMin"]),
        t_max=float(dom["tMax"]),
        ns=int(dom["ns"]),
        nt=int(dom["nt"]),
        trunc_n=int(data.get("truncationN", 24)),
        steps_per_cell=int(data.get("stepsPerCell", 8)),
        thetas=tuple(float(x) for x in data.get("thetas", (0.0,))),
        initial_frame=_initial_frame_from_dict(data.get("initialFrame"))
        or (base.initial_frame if base else None),
        outputs=tuple(data.get("outputs", _ALLOWED_OUTPUTS)),
        oracle=oracle,
    )


# The engine runs on one thread; this reader stays only because the benchmark
# harness (perfbench/worker.py) imports it to report `threads`.
def threads_from_env(default: int = 1) -> int:
    raw = os.environ.get("NILWEIER_THREADS", "")
    try:
        return max(1, int(raw)) if raw else default
    except ValueError:
        return default
