"""Run configuration: JSON ingestion, validation, builtin catalogue."""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from .loopalg import TwistedLoop
from .pipeline import Pipeline, PotentialSpec, _lam_weights, pair_potential, translate_potential

__all__ = ["RunConfig", "BUILTINS", "builtin_config", "load_config", "threads_from_env"]

_ALLOWED_OUTPUTS = ("obj-nil", "obj-l3", "csv")


@dataclasses.dataclass
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
        bounds = {"sMin": self.s_min, "sMax": self.s_max, "tMin": self.t_min, "tMax": self.t_max}
        for key, bound in bounds.items():
            if not math.isfinite(bound):
                raise ValueError(f"domain bound {key} must be finite, not {bound}")
        if not (self.s_min <= 0.0 <= self.s_max and self.t_min <= 0.0 <= self.t_max):
            raise ValueError("domain must contain the basepoint (0, 0)")
        for out in self.outputs:
            if out not in _ALLOWED_OUTPUTS:
                raise ValueError(f"unknown output kind {out!r}")
        if not self.thetas or not all(map(math.isfinite, self.thetas)):
            raise ValueError("thetas must list at least one finite spectral angle")
        for theta in self.thetas:
            _lam_weights(theta, self.trunc_n)

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


_WIDE = (-2.0, 2.0, -2.0, 2.0, 41, 41)
_ANGLES = (0.0, 0.1, -0.1)

# name -> RunConfig, built once: builtin_config hands out copies
_BUILTIN_CONFIGS = {
    name: RunConfig(name, potential, *domain, oracle=name, **fields)
    for name, potential, domain, fields in (
        ("cylinder", translate_potential("1", "0", "0.0625", "0"), _WIDE,
         dict(trunc_n=20, thetas=_ANGLES)),
        ("hyperbolic-cylinder", translate_potential("1", "0", "-0.0625", "0"), _WIDE,
         dict(trunc_n=20, thetas=_ANGLES)),
        ("horizontal-plane", translate_potential("4", "0", "0", "0"), _WIDE,
         dict(trunc_n=16, thetas=_ANGLES)),
        ("bscroll", pair_potential("1", "1", "0", "t"), (-1.0, 1.0, -1.0, 1.0, 41, 41),
         dict(trunc_n=20)),
        ("horizontal-umbrella", translate_potential("4", "0", "0", "0"),
         (-0.6, 0.6, -0.6, 0.6, 25, 25), dict(trunc_n=16, initial_frame=_umbrella_frame(0.5))),
    )
}

BUILTINS = tuple(sorted(_BUILTIN_CONFIGS))


def builtin_config(name: str) -> RunConfig:
    if name not in _BUILTIN_CONFIGS:
        raise ValueError(f"unknown builtin {name!r}; have {', '.join(BUILTINS)}")
    return dataclasses.replace(_BUILTIN_CONFIGS[name])


def _potential_from_dict(d: dict) -> tuple[PotentialSpec, str | None, TwistedLoop | None]:
    """(potential, oracle, initial frame) of a config's "potential" entry."""
    if "builtin" in d:
        cfg = builtin_config(d["builtin"])
        return cfg.potential, cfg.oracle, cfg.initial_frame
    if "pair" in d:
        p = d["pair"]
        return pair_potential(p["f"], p["g"], p["Q"], p["R"]), None, None
    if "normalized" in d:
        p = d["normalized"]
        return translate_potential(p["b_re"], p["b_im"], p["B_re"], p["B_im"]), None, None
    raise ValueError("potential must specify one of: builtin, pair, normalized")


def _number(key: str, value) -> float:
    """A JSON number, which neither a boolean nor a string is."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"config key {key!r} must be a number, not {value!r}")
    return float(value)


def _integer(key: str, value) -> int:
    """A JSON integer, or a whole float such as 16.0, but not a boolean."""
    if isinstance(value, (bool, str)) or not float(value).is_integer():
        raise ValueError(f"config key {key!r} must be an integer, not {value!r}")
    return int(value)


def _entries(key: str, value):
    """A JSON list, which a string, read character by character, is not."""
    if isinstance(value, str):
        raise ValueError(f"config key {key!r} must be a list, not the string {value!r}")
    return value


def _initial_frame_from_dict(d: dict, n: int, thetas) -> TwistedLoop:
    """The loop at truncation n: a zero term beyond n is dropped and a nonzero one raises;
    so does a det at e^theta, which `_sym_rows` divides by, 0 or not finite at a run angle."""
    coeffs = _entries("coeffs", d["coeffs"])
    if not coeffs:
        raise ValueError("config key 'coeffs' must list at least one term")
    terms = {_integer("k", e["k"]): np.asarray(e["m"], float) for e in coeffs}
    frame = TwistedLoop.from_terms(n, terms)
    for theta in thetas:
        with np.errstate(all="ignore"):
            det = frame.det_at(math.exp(theta))
        if det == 0.0 or not math.isfinite(det):
            raise ValueError(f"initialFrame has det {det!r} at spectral angle {theta!r}")
    return frame


# JSON key -> (RunConfig field, reader); an absent key takes RunConfig's default
_OPTIONAL_KEYS = {
    "truncationN": ("trunc_n", _integer),
    "stepsPerCell": ("steps_per_cell", _integer),
    "thetas": ("thetas", lambda key, xs: tuple(_number(key, x) for x in _entries(key, xs))),
    "outputs": ("outputs", lambda key, xs: tuple(_entries(key, xs))),
}


def _config_from_dict(data: dict) -> RunConfig:
    if "builtin" in data and set(data) <= {"builtin"}:
        return builtin_config(data["builtin"])
    potential, oracle, frame = _potential_from_dict(data["potential"])
    dom = data["domain"]
    optional = {
        field: read(key, data[key]) for key, (field, read) in _OPTIONAL_KEYS.items() if key in data
    }
    cfg = RunConfig(
        name=data.get("name", oracle or "run"),
        potential=potential,
        s_min=_number("sMin", dom["sMin"]),
        s_max=_number("sMax", dom["sMax"]),
        t_min=_number("tMin", dom["tMin"]),
        t_max=_number("tMax", dom["tMax"]),
        ns=_integer("ns", dom["ns"]),
        nt=_integer("nt", dom["nt"]),
        initial_frame=frame,
        oracle=oracle,
        **optional,
    )
    if data.get("initialFrame") is not None:  # built at the validated truncation
        cfg.initial_frame = _initial_frame_from_dict(data["initialFrame"], cfg.trunc_n, cfg.thetas)
    return cfg


def load_config(source) -> RunConfig:
    """RunConfig from a JSON file path, a JSON string, or a builtin name.

    A key missing from the config, or a value of the wrong type, raises
    ValueError."""
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
    try:
        return _config_from_dict(data)
    except KeyError as exc:
        raise ValueError(f"config has no key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"config has a value of the wrong type: {exc}") from None
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"config has a number out of range: {exc}") from None


# The engine runs on one thread; this reader stays only because the benchmark
# harness (perfbench/worker.py) imports it to report `threads`.
def threads_from_env(default: int = 1) -> int:
    raw = os.environ.get("NILWEIER_THREADS", "")
    try:
        return max(1, int(raw)) if raw else default
    except ValueError:
        return default
