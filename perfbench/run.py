"""Benchmark of the nilweier engine: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep-cylinder --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each run
  1. regenerates the plane-golden mesh and aborts on any byte mismatch,
  2. runs the workload command in a closed loop (one client) in a worker
     process for --seconds, checking every output, and
  3. prints every metric with its unit; the last line is one JSON object.

The host's speed drifts by up to 2x over seconds to minutes, so the
untraced loop (--trace 0) samples it while the package works: a timer runs a
fixed reference kernel every 20 ms inside each operation and inside each
set-up probe (a fresh interpreter that imports numpy and the package and
builds the config), see worker.HostSpeed.  wall_s and setup_s are medians
over the run's operations and probes of their time in seconds of a host on
which the kernel takes its nominal time.  The host seconds are printed and
kept in the result file too.

With --trace 1 each round runs an untraced operation and one whose package
functions are wrapped in spans (see tracer.py), in one process and in
alternating order.  The per-layer numbers are medians over the traced
operations; the tracing overhead is the median over rounds of the traced
operation's time over the untraced one's.  Results, with the machine they ran on, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RECORDED = os.path.join(HERE, "recorded.json")
TIME_LIMIT_S = 170.0

# per-layer numbers, besides counts and bytes, that must repeat exactly
# between traced operations
EXACT_RATIOS = ["factorization.cond_p50", "factorization.cond_max", "pipeline.frame_at_miss_ratio"]
NESTING_TOL_S = 1e-6
MAX_PRINTED_PROBLEMS = 10
THETA0_FILES = ("nil_00.obj", "l3_00.obj")


class Abort(Exception):
    """The run cannot be measured here; nothing is printed as a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NILWEIER_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts worker processes, each bounded by what is left of the time limit."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()

    def worker(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--root", ROOT, "--work", self.work, *extra]
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise Abort(f"time limit of {TIME_LIMIT_S:.0f} s reached before {mode}")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=left, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise Abort(f"worker {mode} exceeded the time limit") from exc
        if proc.returncode != 0:
            raise Abort(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def load_recorded(path: str, mode: str, workload: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(mode, {}).get(workload, {})


def check_op(op: dict, first: dict, recorded: dict, at_default_seed: bool) -> list:
    """Problems with one operation's outputs; an empty list means it is correct.

    `first` is the first operation of the run that did not raise.
    """
    if "error" in op:
        return [op["error"]]
    problems = []
    changed = sorted(f for f in set(op["digests"]) | set(first["digests"])
                     if op["digests"].get(f) != first["digests"].get(f))
    if changed:
        problems.append(f"{', '.join(changed)} differ from the first operation of this run")
    if not recorded:
        return problems + ["nothing recorded for this workload"]
    if op["hole_count"] != recorded["hole_count"]:
        problems.append(f"hole_count {op['hole_count']} != recorded {recorded['hole_count']}")
    if "holes" in recorded and op.get("holes") != recorded["holes"]:
        problems.append("hole list differs from the recorded one")
    if "check_names" in recorded:
        if not op.get("passed"):
            problems.append(f"verify failed: {op.get('failed_checks')}")
        if workloads.untagged(op.get("check_names", [])) != workloads.untagged(recorded["check_names"]):
            problems.append("verify check names differ from the recorded ones")
    pinned = recorded["digests"] if at_default_seed else {
        f: d for f, d in recorded["digests"].items() if f in THETA0_FILES
    }
    for name, digest in pinned.items():
        if op["digests"].get(name) != digest:
            problems.append(f"{name} sha256 differs from the recorded digest")
    nesting = op.get("nesting_error")
    if nesting is not None and nesting > NESTING_TOL_S:
        problems.append(f"tracer bookkeeping: spans do not nest ({nesting:.3g} s)")
    return problems


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu}


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for the tests")
    parser.add_argument("--recorded", default=RECORDED, help="recorded outputs to check against")
    parser.add_argument("--record", action="store_true",
                        help="write this run's outputs to --recorded (default seed only)")
    args = parser.parse_args(argv)
    for need in (os.path.join("src", "nilweier", "__init__.py"), workloads.GOLDEN_FILE):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"error: {need} not found; run from a nilweier source checkout",
                  file=sys.stderr)
            return 2
    if args.record and args.seed != workloads.DEFAULT_SEED:
        print(f"error: --record needs --seed {workloads.DEFAULT_SEED}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        return run(args, Runner(work, time.perf_counter() + TIME_LIMIT_S))
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer"))


def run(args, runner: Runner) -> int:
    mode = "smoke" if args.smoke else "full"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    end_to_end, per_layer = declared_metrics()
    wanted = per_layer if args.trace else end_to_end
    golden = runner.worker("golden")
    attempted, failed, problems = 1, 0, []
    if not golden["match"]:
        print("golden preflight: regenerated plane-golden mesh differs from "
              f"{workloads.GOLDEN_FILE}; aborting")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    op_args = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        op_args.append("--smoke")
    if args.trace:
        spans = os.path.join(OUT, f"spans-{args.workload}{'-smoke' if args.smoke else ''}.json")
        op_args += ["--spans", spans]
    worker = runner.worker("ops", *op_args)
    all_ops = worker["ops"]

    if args.record:
        first = all_ops[0]
        entry = {k: first[k] for k in ("digests", "hole_count", "holes", "check_names") if k in first}
        data = {}
        if os.path.exists(args.recorded):
            with open(args.recorded, encoding="utf-8") as fh:
                data = json.load(fh)
        data.setdefault(mode, {})[args.workload] = entry
        with open(args.recorded, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    recorded = load_recorded(args.recorded, mode, args.workload)
    exact = [n for n, u in per_layer.items() if u in ("count", "B")] + EXACT_RATIOS
    first = next((op for op in all_ops if "error" not in op), None)
    first_layers = next((op["layers"] for op in all_ops if "layers" in op), None)
    for k, op in enumerate(all_ops):
        attempted += 1
        bad = check_op(op, first, recorded, args.seed == workloads.DEFAULT_SEED)
        bad += [f"{name} differs between traced operations" for name in exact
                if name in op.get("layers", {}) and op["layers"][name] != first_layers[name]]
        if bad:
            failed += 1
            label = "traced op" if op.get("traced") else "op"
            problems.extend(f"{label} {k}: {p}" for p in bad)

    good = [op for op in all_ops if "error" not in op]
    plain = [op for op in good if not op.get("traced")]
    walls = [op["wall_s"] for op in plain]
    probes = [probe for op in plain for probe in op.get("probes", [])]
    metrics = {}
    if args.trace:
        if any(op.get("traced") for op in good) and plain:
            metrics = layer_metrics(all_ops, worker["config"], per_layer)
    elif plain:
        metrics = {
            "wall_s": median([op["wall_s"] * op["scale"] for op in plain]),
            "setup_s": median([t * scale for t, scale in probes]),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    correct = failed == 0 and set(metrics) == set(wanted)

    env = dict(machine(), **worker["env"], seed=args.seed)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "config": worker["config"], "environment": env,
        "attempted": attempted, "failed": failed, "failed_ops_ratio": failed / attempted,
        "problems": problems, "op_wall_s": walls,
        "op_ref_s": [op.get("ref_s") for op in plain], "op_scale": [op.get("scale") for op in plain],
        "probe_s_scale": probes,
        "metrics": {n: {"value": v, "unit": wanted[n]} for n, v in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} untraced ops, nproc {env['nproc']}, threads {env['threads']}, "
          f"{env['blas']}")
    if walls:
        print(f"untraced op wall times (host seconds): fastest {min(walls):.6g} s, "
              f"median {median(walls):.6g} s, slowest {max(walls):.6g} s")
    if not args.trace and plain:
        refs = result["op_ref_s"]
        print(f"reference kernel: {median(refs):.6g} s median, {min(refs):.6g}-{max(refs):.6g} s; "
              f"{len(probes)} set-up probes (host seconds): median {median([t for t, _ in probes]):.6g} s")
    # on both streams: a caller that keeps only the tail of standard error
    # still learns which check failed
    for stream in (sys.stdout, sys.stderr):
        for p in problems[:MAX_PRINTED_PROBLEMS]:
            print(f"FAILED {p}", file=stream)
        if len(problems) > MAX_PRINTED_PROBLEMS:
            print(f"FAILED ... {len(problems) - MAX_PRINTED_PROBLEMS} more in the result file",
                  file=stream)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {wanted[name]}")
    print(f"failed_ops_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


def layer_metrics(all_ops: list, config: dict, per_layer: dict) -> dict:
    """Medians over the traced operations of the per-layer numbers.

    The tracing overhead is the median, over rounds, of the traced
    operation's time divided by that of the untraced one next to it in the
    same process, so that both see about the same host speed.
    """
    traced_ops = [op for op in all_ops if op.get("traced") and "layers" in op]
    out = {name: median([op["layers"][name] for op in traced_ops])
           for name in traced_ops[0]["layers"]}
    rounds = [sorted(pair, key=lambda op: op["traced"]) for pair in zip(all_ops[::2], all_ops[1::2])]
    pairs = [(plain["wall_s"], traced["wall_s"]) for plain, traced in rounds
             if "wall_s" in plain and "layers" in traced]
    last = traced_ops[-1]
    gridpoints = config["domain"]["ns"] * config["domain"]["nt"]
    out.update({
        "pipeline.gridpoints": gridpoints,
        "pipeline.holes": last["hole_count"],
        "pipeline.hole_ratio": last["hole_count"] / gridpoints,
        "pipeline.tail_relative": last["tail_relative"],
        "export.bytes": last["export_bytes"],
        "trace.wall_s": median([op["wall_s"] for op in traced_ops]),
        "trace.overhead_ratio": median([traced / plain for plain, traced in pairs]),
    })
    return {name: out[name] for name in per_layer}


if __name__ == "__main__":
    sys.exit(main())
