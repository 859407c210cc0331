"""Workload definitions: the config each workload hands to the package.

The seed only draws the non-zero spectral angles; theta_0 = 0 always comes
first, so the closed-form oracle checks of `verify` still apply and the
theta_0 meshes (nil_00.obj, l3_00.obj) are the same at every seed.
"""

from __future__ import annotations

import random
import re

DEFAULT_SEED = 0
THETA_RANGE = 0.2

# name -> (command, builtin potential, grid side, truncationN, number of thetas)
# The grids are smaller than the builtins' 41x41 so that one operation takes
# 1-5 s and a run holds 7-40 of them: on a shared 2-core host the machine's
# speed drifts by up to 2x over seconds to minutes, and the fastest of many
# short operations repeats better than any one long one.  Each grid keeps
# its workload's point: Iwasawa dominates sweep-cylinder, safe_points is
# half of verify-plane (at 17x17 it falls below 40%), whose grid steps hit
# s = t = 1 where the plane's factorization is singular (OutsideBigCell
# holes, besides the GaugeFailure ones), and the ODE stays under 10% of
# deep-trunc.
WORKLOADS = {
    "sweep-cylinder": ("generate", "cylinder", 15, 20, 3),
    "verify-plane": ("verify", "horizontal-plane", 25, 16, 3),
    "deep-trunc": ("generate", "cylinder", 9, 48, 7),
}
# tiny grids for the benchmark's own tests
SMOKE_SIZES = {"grid": 9, "truncationN": 8, "thetas": 2, "half_width": 1.0}

# the config of tests/test_cli.py::test_golden_plane_mesh
GOLDEN_CONFIG = {
    "name": "plane-golden",
    "potential": {"builtin": "horizontal-plane"},
    "domain": {"sMin": -2.0, "sMax": 2.0, "tMin": -2.0, "tMax": 2.0, "ns": 21, "nt": 21},
    "truncationN": 16,
    "stepsPerCell": 8,
    "thetas": [0.0],
    "outputs": ["obj-nil"],
}
GOLDEN_FILE = "tests/data/plane_golden_nil.obj"


def thetas_for(workload: str, seed: int, count: int) -> list[float]:
    """theta_0 = 0, then angles of alternating sign: `verify` checks the Dirac
    system at theta_0 and at the largest theta, so a positive one must exist
    for every seed to cost the same work."""
    rng = random.Random(f"{workload}/{seed}")
    return [0.0] + [
        (1 if k % 2 else -1) * round(rng.uniform(0.0, THETA_RANGE), 6) for k in range(1, count)
    ]


def workload_config(workload: str, seed: int, smoke: bool = False) -> tuple[str, dict]:
    """(command, config dict) of one workload at one seed."""
    command, builtin, side, trunc_n, n_thetas = WORKLOADS[workload]
    half = 2.0
    if smoke:
        half = SMOKE_SIZES["half_width"]
        side, trunc_n, n_thetas = (
            SMOKE_SIZES["grid"], SMOKE_SIZES["truncationN"], SMOKE_SIZES["thetas"]
        )
    config = {
        "name": workload,
        "potential": {"builtin": builtin},
        "domain": {"sMin": -half, "sMax": half, "tMin": -half, "tMax": half, "ns": side, "nt": side},
        "truncationN": trunc_n,
        "stepsPerCell": 8,
        "thetas": thetas_for(workload, seed, n_thetas),
    }
    return command, config


def untagged(check_names: list[str]) -> list[str]:
    """Sorted check names without their `[theta=...]` tags: the tags follow
    the seed's angles, the checks themselves do not."""
    return sorted(re.sub(r"\[theta=[^\]]*\]", "", name) for name in check_names)
