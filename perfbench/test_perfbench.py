"""Tests of the benchmark itself, on tiny grids (--smoke).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"\n{name} " in "\n" + proc.stdout


def test_wrong_recorded_digest_fails_the_operations(tmp_path):
    recorded = json.load(open(os.path.join(HERE, "recorded.json"), encoding="utf-8"))
    digests = recorded["smoke"]["sweep-cylinder"]["digests"]
    digests["nil_00.obj"] = "0" * 64
    path = tmp_path / "recorded.json"
    path.write_text(json.dumps(recorded))
    proc = bench("--workload", "sweep-cylinder", "--seed", "2", "--trace", "0", "--smoke",
                 "--recorded", str(path))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] > 0
    ratio = next(l for l in proc.stdout.splitlines() if l.startswith("failed_ops_ratio "))
    assert float(ratio.split()[1]) > 0


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep-cylinder", "--seed", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_check_names_are_compared_without_theta_tags():
    assert workloads.untagged(["frame_det_unit", "dirac_residual[theta=0.17]",
                               "dirac_residual[theta=0]"]) == workloads.untagged(
        ["dirac_residual[theta=0]", "dirac_residual[theta=0.1]", "frame_det_unit"])
    assert workloads.untagged(["dirac_residual[theta=0]"]) != workloads.untagged(
        ["dirac_residual[theta=0]", "dirac_residual[theta=0.1]"])


def test_host_speed_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with worker.HostSpeed(worker.numpy_kernel, worker.NUMPY_KERNEL_NOMINAL_S) as speed:
        end = time.perf_counter() + 5 * worker.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 2
    assert speed.sampled_s == pytest.approx(sum(speed.samples))
    assert 0.0 < speed.ref_s < worker.SAMPLE_PERIOD_S
    assert speed.scale == pytest.approx(worker.NUMPY_KERNEL_NOMINAL_S / speed.ref_s)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_host_speed_does_not_nest_a_kernel_that_outlasts_the_period():
    depth, deepest = 0, 0

    def slow_kernel():
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        end = time.perf_counter() + 3 * worker.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
        depth -= 1

    with worker.HostSpeed(slow_kernel, 1.0) as speed:
        end = time.perf_counter() + 10 * worker.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert deepest == 1
    assert len(speed.samples) >= 1


def test_uninstall_puts_the_original_functions_back():
    import nilweier.pipeline as pipeline

    original = pipeline.iwasawa_double
    t = tracer.Tracer()
    t.install()
    try:
        assert pipeline.iwasawa_double is not original
    finally:
        t.uninstall()
    assert pipeline.iwasawa_double is original


def test_self_times_detect_a_child_outside_its_parent():
    t = tracer.Tracer()
    t.names = ["a", "b"]
    t.rows = [(0, 0.0, 1.0, -1, None), (1, 0.2, 0.5, 0, None), (1, 0.5, 0.9, 0, None)]
    self_t, error = t.self_times()
    assert list(self_t) == pytest.approx([0.3, 0.3, 0.4])
    assert error < 1e-12
    t.rows[2] = (1, 0.5, 1.5, 0, None)
    assert t.self_times()[1] >= 0.5
