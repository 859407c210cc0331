"""One benchmark process: a set-up probe, the golden preflight, or the ops loop.

`run.py` starts this file with the package's source tree on PYTHONPATH and
BLAS pinned to one thread, and reads the JSON it prints last.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext

import workloads

# The host's speed is sampled while the package works: a SIGALRM timer runs a
# reference kernel every SAMPLE_PERIOD_S, between the package's own Python
# bytecodes.  Times are then given in seconds of a host on which the kernel
# takes its nominal time (about what it takes on a calm 2-core Xeon VM).
SAMPLE_PERIOD_S = 0.02
PYTHON_KERNEL_ITERATIONS = 6000
PYTHON_KERNEL_NOMINAL_S = 0.00075
NUMPY_KERNEL_ITERATIONS = 120
NUMPY_KERNEL_NOMINAL_S = 0.0004
# after each operation, set-up probes run until they have taken this share
# of the operation's time (at least one probe)
PROBE_SHARE = 0.1
PROBE_TIMEOUT_S = 60.0


def _check_source(root: str) -> None:
    import nilweier

    src = os.path.join(root, "src", "nilweier")
    if os.path.dirname(os.path.abspath(nilweier.__file__)) != os.path.abspath(src):
        raise SystemExit(f"nilweier imported from {nilweier.__file__}, not from {src}")


def probe(root: str, config_path: str) -> dict:
    """Import numpy and the package and build the config, nothing more, with
    the host's speed sampled meanwhile."""
    with HostSpeed(python_kernel, PYTHON_KERNEL_NOMINAL_S) as speed:
        import numpy  # noqa: F401
        import nilweier.cli  # noqa: F401
        from nilweier.config import load_config

        load_config(config_path)
    _check_source(root)
    return {"sampled_s": speed.sampled_s, "scale": speed.scale}


def golden(root: str, work: str) -> dict:
    """Regenerate the plane-golden mesh and compare it byte for byte."""
    from nilweier.cli import cmd_generate

    _check_source(root)
    cfg_path = os.path.join(work, "golden.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(workloads.GOLDEN_CONFIG, fh)
    out = os.path.join(work, "golden")
    try:
        cmd_generate(cfg_path, out)
        with open(os.path.join(out, "nil_00.obj"), "rb") as fh:
            produced = fh.read()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(os.path.join(root, workloads.GOLDEN_FILE), "rb") as fh:
        expected = fh.read()
    return {"match": produced == expected, "bytes": len(produced)}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _one_op(cli, command: str, cfg_path: str, out: str, timing) -> dict:
    """Run one workload command inside `timing` (a HostSpeed sampler or a null
    context); the wall time covers load_config to files written or report
    returned, less the time the sampler took."""
    if command == "generate":
        start = time.perf_counter()
        with timing:
            manifest = cli.cmd_generate(cfg_path, out)
        wall = time.perf_counter() - start - _sampled(timing)
        files = sorted(f["file"] for f in manifest["files"])
        return {
            "wall_s": wall,
            "digests": {f: _sha256(os.path.join(out, f)) for f in files + ["manifest.json"]},
            "export_bytes": sum(os.path.getsize(os.path.join(out, f)) for f in files),
            "hole_count": manifest["hole_count"],
            "holes": [[h["i"], h["j"], h["error"]] for h in manifest["holes"]],
            "tail_relative": manifest["tail_relative"],
        }
    report_path = os.path.join(out, "report.json")
    os.makedirs(out)
    start = time.perf_counter()
    with timing:
        report = cli.cmd_verify(cfg_path, report_path)
    wall = time.perf_counter() - start - _sampled(timing)
    return {
        "wall_s": wall,
        "digests": {"report.json": _sha256(report_path)},
        "export_bytes": 0,
        "hole_count": report["holes"],
        "passed": report["passed"],
        "check_names": sorted(c["check"] for c in report["checks"]),
        "failed_checks": [c["check"] for c in report["checks"] if not c["pass"]],
        "tail_relative": report["tail_relative"],
    }


def python_kernel() -> int:
    """Fixed pure-Python work (integer arithmetic and dict stores), to sample
    the host's speed where numpy is not imported yet (the set-up probe)."""
    acc = 0
    table = {}
    for i in range(PYTHON_KERNEL_ITERATIONS):
        table[i & 63] = acc
        acc = (acc * 31 + i) % 1000003
    return acc


@functools.cache
def _numpy_kernel_inputs():
    import numpy

    rng = numpy.random.default_rng(12345)
    return [rng.standard_normal((2, 2)) for _ in range(8)], rng.standard_normal((41, 2, 2))


def numpy_kernel() -> float:
    """Fixed work of the package's kind (a Python loop of 2x2 matrix
    products, a stack of 2x2 products), to sample the host's speed during an
    operation.  Its time follows the operations' time about one to one as the
    host's speed drifts, closer than python_kernel's or a dense solve's."""
    import numpy

    factors, stack = _numpy_kernel_inputs()
    acc, total = numpy.eye(2), 0.0
    for k in range(NUMPY_KERNEL_ITERATIONS):
        acc = acc @ factors[k & 7]
        acc = acc / (abs(acc[0, 0]) + 1.0)
        total += float(acc[1, 0])
    return total + float(numpy.einsum("kij,kjl->kil", stack, stack)[3, 1, 1])


class HostSpeed:
    """Samples the host's speed while the code in its `with` block runs.

    A SIGALRM timer runs `kernel` every SAMPLE_PERIOD_S, on the same core
    and at the same time as the measured code.  `sampled_s` is the time all
    kernels took, which the caller takes off the measured wall time, and
    `scale` turns host seconds into seconds of a host on which the kernel
    takes `nominal_s`.
    """

    def __init__(self, kernel, nominal_s: float):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self.sampled_s = 0.0
        self._sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        # Python runs a signal handler again inside itself when the timer
        # fires while the kernel runs (a kernel stalled for a period on a
        # loaded host); without this guard the nesting can run into
        # RecursionError inside the measured code.
        if self._sampling:
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            self.kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            self._sampling = False

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one period
            self._sample()
        self.sampled_s = sum(self.samples)

    @property
    def ref_s(self) -> float:
        """Mean time of one kernel."""
        return statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        return self.nominal_s / self.ref_s


def _sampled(timing) -> float:
    return getattr(timing, "sampled_s", 0.0)


def _timed_probe(root: str, work: str, cfg_path: str) -> tuple[float, float]:
    """Wall time in host seconds of a fresh interpreter that imports the
    package and builds the config (less the probe's own sampling), and the
    probe's HostSpeed scale."""
    cmd = [sys.executable, os.path.abspath(__file__), "probe",
           "--root", root, "--work", work, "--config", cfg_path]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}: {proc.stderr[-2000:]}")
    speed = json.loads(proc.stdout.strip().splitlines()[-1])
    return elapsed - speed["sampled_s"], speed["scale"]


def _run_op(cli, command: str, cfg_path: str, out: str, tracer, timing) -> dict:
    """One operation; an operation that raises is a failed operation."""
    caught = []
    try:
        if tracer is None:
            res = _one_op(cli, command, cfg_path, out, timing)
        else:
            tracer.reset()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = _one_op(cli, command, cfg_path, out, timing)
    except Exception as exc:
        res = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if tracer is not None and "error" not in res:
        res["layers"], res["nesting_error"] = tracer.layer_metrics(caught)
    return res


def ops(root: str, work: str, args) -> dict:
    """Closed loop: one client runs the workload command until the time is up.

    Untraced (--trace 0), each round runs the workload command with the
    host's speed sampled during it (HostSpeed), then set-up probes, which
    sample the host's speed themselves.  Traced (--trace 1), each round runs an
    untraced and a traced operation in this process, in alternating order.
    """
    import numpy
    import nilweier.cli as cli
    from nilweier.config import threads_from_env

    _check_source(root)
    command, config = workloads.workload_config(args.workload, args.seed, args.smoke)
    cfg_path = os.path.join(work, f"config-{os.getpid()}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    results, rounds = [], []
    numpy_kernel()  # builds its cached inputs before any operation is timed
    deadline = time.perf_counter() + args.seconds
    # start another round only while it is expected to end in time, so that
    # a run lasts about --seconds whatever one operation costs
    while not rounds or time.perf_counter() + statistics.median(rounds) <= deadline:
        started = time.perf_counter()
        out = os.path.join(work, "out")
        if tracer is None:
            speed = HostSpeed(numpy_kernel, NUMPY_KERNEL_NOMINAL_S)
            res = _run_op(cli, command, cfg_path, out, None, speed)
            res["ref_s"], res["scale"] = speed.ref_s, speed.scale
            res["probes"] = []
            while not res["probes"] or (
                sum(p for p, _ in res["probes"]) < PROBE_SHARE * res.get("wall_s", 0.0)
            ):
                res["probes"].append(_timed_probe(root, work, cfg_path))
            results.append(res)
        else:
            # the order alternates between rounds, so that what the first
            # operation of a round pays (such as the first operation's
            # warm-up) falls on both sides of the overhead ratio
            for traced in (False, True) if len(rounds) % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                res = _run_op(cli, command, cfg_path, out, tracer if traced else None,
                              nullcontext())
                tracer.uninstall()
                res["traced"] = traced
                results.append(res)
        rounds.append(time.perf_counter() - started)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "ops": results,
        "config": config,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "threads": threads_from_env(),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["probe", "golden", "ops"])
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.mode == "probe":
        result = probe(args.root, args.config)
    elif args.mode == "golden":
        result = golden(args.root, args.work)
    else:
        result = ops(args.root, args.work, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
