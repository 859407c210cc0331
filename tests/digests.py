"""Print the sha256 of every file the CLI writes, for the same-bytes check.

For each of the five builtins, for the three benchmark workloads of
`perfbench/workloads.py` at seeds 0 and 7, and for five pair potentials
whose f or g fails (`FAILING`), this runs `cmd_generate` and `cmd_verify`
and prints, as JSON with sorted keys, the sha256 of every file
`cmd_generate` writes and of the `cmd_verify` report, or the command's
error as `type: message`; for each builtin also the sha256 of
`cmd_roundtrip`'s result, written as JSON with sorted keys: 137 entries in
all.  The name does not start with `test_`, so pytest does not collect it.

Run it in two checkouts, say the parent commit and the change, from each
checkout's root, and compare the outputs:

    PYTHONPATH=src python3 tests/digests.py > /tmp/after.json
    (cd ../parent && PYTHONPATH=src python3 tests/digests.py > /tmp/before.json)
    diff /tmp/before.json /tmp/after.json

An empty diff means every mesh, CSV, manifest and verify report is
byte-identical.  A full run takes about 25 s on a 2-core host.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

from nilweier import NilWeierError  # noqa: E402
from nilweier.cli import cmd_generate, cmd_roundtrip, cmd_verify  # noqa: E402
from nilweier.config import BUILTINS  # noqa: E402

SEEDS = (0, 7)

# name -> (f, g) of a pair potential with Q = R = 0 on a 9x9 grid over +-1,
# whose f or g fails at a node, off the grid, between nodes or at a stencil point
FAILING = {
    "f-fails-at-a-node": ("2 + sqrt(100*(s-0.25)^2 - 1)", "2"),
    "g-vanishes-at-a-node": ("2", "t - 0.5"),
    "f-vanishes-off-the-grid": ("s - 0.3", "2"),  # 54 holes where f g < 0
    "f-gap-between-nodes": ("2 + sqrt(1e6*(s-0.3)^2 - 1)", "2"),  # verify fails at (0.48, 0.5)
    "f-gap-at-a-stencil-point": ("2 + sqrt(1e12*(s-0.501)^2 - 1)", "2"),
}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def configs() -> dict:
    """name -> config source (a builtin name or a config dict)."""
    out = {f"builtin/{name}": name for name in BUILTINS}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            out[f"{workload}/seed{seed}"] = workloads.workload_config(workload, seed)[1]
    domain = {"sMin": -1, "sMax": 1, "tMin": -1, "tMax": 1, "ns": 9, "nt": 9}
    for name, (f, g) in FAILING.items():
        pair = {"f": f, "g": g, "Q": "0", "R": "0"}
        source = {"potential": {"pair": pair}, "domain": domain, "truncationN": 8, "thetas": [0, 0.1]}
        out[f"failing/{name}"] = source
    return out


def digests() -> dict:
    result = {}
    with tempfile.TemporaryDirectory() as work:
        for k, (name, source) in enumerate(configs().items()):
            out = os.path.join(work, str(k))
            os.makedirs(out)
            report = os.path.join(out, "verify-report.json")
            for command, run, target in (("generate", cmd_generate, out), ("verify", cmd_verify, report)):
                try:
                    run(source, target)
                except NilWeierError as exc:
                    result[f"{name}/{command}"] = f"{type(exc).__name__}: {exc}"
            for file in sorted(os.listdir(out)):
                result[f"{name}/{file}"] = _sha256(os.path.join(out, file))
    for name in BUILTINS:
        text = json.dumps(cmd_roundtrip(name), sort_keys=True)
        result[f"builtin/{name}/roundtrip"] = hashlib.sha256(text.encode()).hexdigest()
    return result


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
