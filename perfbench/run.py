"""ratiotails benchmark: end-to-end metrics, or a per-layer trace.

    python3 perfbench/run.py --workload {recovery,cli,density} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` and built from nothing else.  ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` runs the first operation
untraced, then the operations with every layer wrapped (see layers.py),
then the first one untraced again; the tracing overhead compares the
fastest traced and untraced runs of that operation.  It reports the
per-layer metrics.

A run makes passes over the workload's fixed list of operations (four
trials for recovery, one operation otherwise), one operation after
another: at least two, so that every step has a fastest time, and more
while the next pass is predicted to end within ``--seconds``.  Each timed
step of an operation counts at its fastest pass, as ``timeit`` does: other
tenants of a shared host only ever add time.  End-to-end timings are then
scaled to a host of fixed speed (see ``HostSpeed``).  Every operation
checks its output; a failed check is a failed operation.

Standard output: one ``{"env": ...}`` line, for end-to-end runs one
``{"host": ...}`` line (the reference time, the scale and the unscaled
timings), one ``{"record": ...}`` line per operation (the decisions it
took and its artifact hashes), one line per metric, then the result as one
JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import layers
from workloads import WORKLOADS, failed_op, import_seconds, timed_child

END_TO_END = layers.declared("end_to_end")
SETUP_SAMPLES = 3
MIN_PASSES = 2
IMPORT_SAMPLES = 3
# roughly the 20th-percentile time of HostSpeed's block on the host the
# benchmark was defined on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2)
# while other tenants were quiet; end-to-end timings are scaled to it
REFERENCE_S = 0.0185
SPEED_REPEATS = 5
SPEED_PERCENTILE = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit "
                             "(the set-up time probe)")
    return parser.parse_args(argv)


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def environment(root: str, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "commit": commit, "seed": seed}


def setup_seconds(args, root: str) -> float:
    """Fresh-interpreter set-up time: import plus inputs (for cli, the
    ``--version`` call whose import every command pays)."""
    if args.workload == "cli":
        argv = [sys.executable, "-m", "ratiotails.cli", "--version"]
    else:
        argv = [sys.executable, os.path.abspath(__file__), "--workload",
                args.workload, "--seed", str(args.seed), "--seconds", "0",
                "--setup-only"]
    seconds, proc = timed_child(argv, root)
    proc.check_returncode()
    return seconds


class HostSpeed:
    """How fast the host runs during one run, from a fixed block of numpy
    and interpreter work that calls no program code.

    Other tenants of a shared host slow every process on it, by up to ~1.6x
    for minutes at a time: longer than a run, so no fastest-of-passes
    removes it.  The block is timed between operations over the whole run,
    and a low percentile of its times moves with that slowdown (the fastest
    time alone is too noisy: brief quiet moments occur even on a busy
    host).  End-to-end timings are scaled by ``REFERENCE_S`` over it and
    read as seconds on a host of fixed speed; the unscaled figures are
    printed beside them.
    """

    def __init__(self):
        self.data = np.random.default_rng(0).standard_normal(400_000)
        self.samples = []

    def _block(self) -> None:
        np.sort(self.data)
        np.exp(self.data / 4.0).sum()
        np.cumsum(self.data)
        x = 0
        for i in range(150_000):
            x += i % 7
        {i: str(i) for i in range(30_000)}

    def sample(self) -> None:
        for _ in range(SPEED_REPEATS):
            t0 = time.perf_counter()
            self._block()
            self.samples.append(time.perf_counter() - t0)

    @property
    def reference_s(self) -> float:
        return float(np.percentile(self.samples, SPEED_PERCENTILE))

    @property
    def scale(self) -> float:
        return REFERENCE_S / self.reference_s


def attempt(workload, k: int, traced: bool = False):
    t0 = time.perf_counter()
    try:
        return workload.op(k, traced=traced)
    except Exception as exc:  # a program failure fails the operation
        return failed_op(time.perf_counter() - t0, exc)


def run_ops(workload, seconds: float, min_passes: int, tracer=None,
            traced=False, speed=None) -> list:
    """Closed loop with one client: passes over the operation list, at
    least ``min_passes``, more while the next is predicted (from the last
    one) to end within ``seconds`` of the start.  ``speed`` is sampled
    after every operation."""
    ops = []
    start = pass_start = time.perf_counter()
    while True:
        first_span = len(tracer.spans) if tracer else 0
        op = attempt(workload, len(ops) % workload.batch, traced)
        if tracer is not None:
            op.spans = tracer.spans[first_span:]
        ops.append(op)
        if speed is not None:
            speed.sample()
        if len(ops) % workload.batch == 0:
            now = time.perf_counter()
            passes = len(ops) // workload.batch
            if passes >= min_passes and now - start + (now - pass_start) > seconds:
                return ops
            pass_start = now


def best_steps(ops, batch: int) -> list:
    """Per operation of the list, each step's fastest time over the passes
    (over passing executions when there are any)."""
    best = []
    for i in range(batch):
        runs = [op for op in ops[i::batch] if op.ok] or ops[i::batch]
        steps = {key for op in runs for key in op.parts}
        best.append({key: min(op.parts[key] for op in runs if key in op.parts)
                     for key in steps})
    return best


def end_to_end(args, root, workload):
    speed = HostSpeed()
    setup = []
    for _ in range(SETUP_SAMPLES):
        speed.sample()
        setup.append(setup_seconds(args, root))
    workload.setup(args.seed)
    speed.sample()
    ops = run_ops(workload, args.seconds, MIN_PASSES, speed=speed)
    best = best_steps(ops, workload.batch)
    who = (resource.RUSAGE_SELF if workload.in_process
           else resource.RUSAGE_CHILDREN)
    seconds = {
        "setup_s": statistics.median(setup),
        # totals over the operation list, so a cost that only some
        # operations pay (such as the slowest trial kind) always shows
        "pass_s": sum(sum(b.values()) for b in best),
        "fit_s": sum(b.get("fit", 0.0) for b in best),
    }
    host = {"reference_s": speed.reference_s, "scale": speed.scale,
            "unscaled": seconds}
    return ops, host, {
        **{name: value * speed.scale for name, value in seconds.items()},
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "recovered_frac": sum(op.recovered for op in ops) / len(ops),
    }


def per_layer(args, root, workload):
    workload.setup(args.seed)
    tracer = None
    warm_up = []
    if workload.in_process:  # first calls pay lazy imports and caches
        warm_up.append(attempt(workload, 0))
        tracer = layers.install()
    try:
        ops = run_ops(workload, args.seconds, 1, tracer, traced=True)
    finally:
        if tracer is not None:
            tracer.restore()
    # the same first operation again, untraced and warm like the traced one
    reference = attempt(workload, 0)
    for op in ops:
        if op.spans:
            op.record["likelihood_evals"] = layers.likelihood_evals(op.spans)
    probes = workload.probes(ops)
    # fastest traced over fastest untraced run of the first operation
    untraced = min(op.seconds for op in warm_up + [reference])
    traced_first = min(op.seconds for op in ops[::workload.batch])
    probes["trace.overhead_frac"] = traced_first / untraced - 1.0
    for name, module in (("cli.import_s", "ratiotails.cli"),
                         ("cli.import_scipy_s", "scipy.stats")):
        probes[name] = statistics.median(
            import_seconds(root, module) for _ in range(IMPORT_SAMPLES))
    metrics = layers.compute(ops, [op.spans for op in ops], probes)
    return warm_up + ops + [reference], None, metrics


def _terminate(signum, frame):
    # unwinding runs subprocess.run's kill-and-wait and the work-dir cleanup
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ratiotails", "__init__.py")):
        print("perfbench: run from the root of a ratiotails checkout "
              "(src/ratiotails not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workload = WORKLOADS[args.workload](root)
    if args.setup_only:
        workload.setup(args.seed)
        return 0

    env = environment(root, args.seed)
    env["loadavg_before"] = loadavg()
    try:
        if args.trace:
            ops, host, values = per_layer(args, root, workload)
            units = layers.UNITS
        else:
            ops, host, values = end_to_end(args, root, workload)
            units = END_TO_END
    finally:
        workload.close()
    env["loadavg_after"] = loadavg()

    print(json.dumps({"env": env}))
    if host is not None:
        print(json.dumps({"host": host}))
    for op in ops:
        print(json.dumps({"record": {**op.record, "seconds": op.parts}}))
    failed = sum(not op.ok for op in ops)
    print(f"ops_failed/ops_attempted = {failed}/{len(ops)}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
