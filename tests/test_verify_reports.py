"""Verify reports and generated files pinned bit for bit.

`data/verify_reports.json` holds, for three configs, the full `cmd_verify`
report with every float written as `float.hex`: the 9x9 cylinder of
test_cli.py, an 11x11 horizontal plane with holes at two spectral angles, and
the horizontal-umbrella builtin (a non-identity initial frame).  The reports
were recorded before the point evaluators were batched; any change to how a
check's frames are computed must leave every value unchanged.
`data/generate_digests.json` pins, the same way, the files `cmd_generate`
writes.
"""

import hashlib
import json
import os

import pytest

from nilweier.cli import cmd_generate, cmd_verify

DATA = os.path.join(os.path.dirname(__file__), "data", "verify_reports.json")
with open(DATA, encoding="utf-8") as _fh:
    PINNED = json.load(_fh)


def hexed(value):
    """The report with every float replaced by its float.hex string."""
    if isinstance(value, dict):
        return {key: hexed(v) for key, v in value.items()}
    if isinstance(value, list):
        return [hexed(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


@pytest.mark.parametrize("name", sorted(PINNED))
def test_verify_report_is_bit_identical(name):
    pinned = PINNED[name]
    report = hexed(cmd_verify(pinned["config"]))
    assert report == pinned["report"]


@pytest.mark.parametrize("name", ["cylinder-9x9", "horizontal-plane-11x11"])
def test_each_check_reads_only_its_stencil_batch(name, monkeypatch):
    """Every frame a check reads was computed by its stencil batches, and they
    compute the very points that point-by-point verification computes in that
    check.  Only the order within a check may differ: the Dirac check's second
    batch depends on the spinor values its first batch yields."""
    from nilweier.config import load_config
    from nilweier.pipeline import Pipeline
    from nilweier.verify import run_verification

    cfg = load_config(PINNED[name]["config"])
    batched = Pipeline.frames_at
    runs = []
    for batches in (True, False):
        # the points first computed after each stencil batch call, until the next
        windows, single_misses = [[]], []

        def frames_at(self, points, batches=batches, windows=windows, single=single_misses):
            points = [(float(s), float(t)) for s, t in points]
            if len(points) > 1:
                windows.append([])
                if not batches:
                    return []
            misses = [p for p in dict.fromkeys(points) if p not in self._point_cache]
            windows[-1] += misses
            if len(points) == 1:
                single += misses
            return batched(self, points)

        monkeypatch.setattr(Pipeline, "frames_at", frames_at)
        run_verification(cfg.make_pipeline().run(), oracle=cfg.oracle)
        runs.append((windows, single_misses))
    (windows, single_misses), (reference, _) = runs
    assert single_misses == [] and len(windows) == len(reference)
    checks, expected = [set()], [set()]
    for window, ref in zip(windows, reference):
        checks[-1].update(window)
        expected[-1].update(ref)
        if ref:  # a window the point-by-point run leaves empty belongs to the next
            checks.append(set())
            expected.append(set())
    assert checks == expected and sum(map(len, expected)) > 100


GENERATED = os.path.join(os.path.dirname(__file__), "data", "generate_digests.json")
with open(GENERATED, encoding="utf-8") as _fh:
    GENERATED_DIGESTS = json.load(_fh)


@pytest.mark.parametrize("name", sorted(GENERATED_DIGESTS))
def test_generated_files_are_bit_identical(name, tmp_path):
    """sha256 of every file `cmd_generate` writes (meshes of both spaces at
    every angle, CSV, manifest) for the three configs above and a 9x9
    cylinder at N = 48 with 7 angles, recorded before the frame grid became
    one coefficient array."""
    pinned = GENERATED_DIGESTS[name]
    cmd_generate(pinned["config"], str(tmp_path))
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == pinned["files"]
