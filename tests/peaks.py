"""Print the tracemalloc peak of one operation of each benchmark workload.

For each workload of `perfbench/workloads.py`, at the seed given (0 by
default), this runs the workload's command as the benchmark worker does:
`cmd_generate` into a new directory, or `cmd_verify` with a report file.
It runs it once as a warm-up and once more under tracemalloc, and prints
the second run's peak in bytes, as JSON with sorted keys.  numpy reports its
array buffers to tracemalloc, so the peak counts the engine's arrays; unlike
`perfbench`'s `peak_rss_mb`, it does not move with the interpreter's import
or the path of the work directory.  The name does not start with `test_`, so
pytest does not collect it.

Run it from a checkout's root; to compare two checkouts, point PYTHONPATH at
each one's `src`:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/peaks.py [seed]
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

from nilweier.cli import cmd_generate, cmd_verify  # noqa: E402


def _operation(command: str, config_path: str, out: str) -> None:
    if command == "generate":
        cmd_generate(config_path, out)
    else:
        os.makedirs(out)
        cmd_verify(config_path, os.path.join(out, "report.json"))


def main(seed: int) -> dict:
    peaks = {}
    with tempfile.TemporaryDirectory() as work:
        for name in workloads.WORKLOADS:
            command, config = workloads.workload_config(name, seed)
            path = os.path.join(work, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            _operation(command, path, os.path.join(work, f"{name}-warm-up"))
            tracemalloc.start()
            try:
                _operation(command, path, os.path.join(work, name))
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    return peaks


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]) if len(sys.argv) > 1 else 0), indent=1, sort_keys=True))
