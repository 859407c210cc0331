"""Print the sha256 of every file the CLI writes, for the same-bytes check.

For each of the five builtins, and for the three benchmark workloads of
`perfbench/workloads.py` at seeds 0 and 7, this runs `cmd_generate` and
`cmd_verify` and prints, as JSON with sorted keys, the sha256 of every file
`cmd_generate` writes and of the `cmd_verify` report; for each builtin also
the sha256 of `cmd_roundtrip`'s result, written as JSON with sorted keys:
112 digests in all.  The name does not start with `test_`, so pytest does
not collect it.

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

from nilweier.cli import cmd_generate, cmd_roundtrip, cmd_verify  # noqa: E402
from nilweier.config import BUILTINS  # noqa: E402

SEEDS = (0, 7)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def configs() -> dict:
    """name -> config source (a builtin name or a config dict)."""
    out = {f"builtin/{name}": name for name in BUILTINS}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            out[f"{workload}/seed{seed}"] = workloads.workload_config(workload, seed)[1]
    return out


def digests() -> dict:
    result = {}
    with tempfile.TemporaryDirectory() as work:
        for k, (name, source) in enumerate(configs().items()):
            out = os.path.join(work, str(k))
            cmd_generate(source, out)
            report = os.path.join(out, "verify-report.json")
            cmd_verify(source, report)
            for file in sorted(os.listdir(out)):
                result[f"{name}/{file}"] = _sha256(os.path.join(out, file))
    for name in BUILTINS:
        text = json.dumps(cmd_roundtrip(name), sort_keys=True)
        result[f"builtin/{name}/roundtrip"] = hashlib.sha256(text.encode()).hexdigest()
    return result


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
