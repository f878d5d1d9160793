"""Time the CSV write of the `cli` benchmark's price path: working tree
against a base revision, in alternating runs.

    python3 tools/bench_csv_write.py --base REV [--pairs 7] [--threads N]
        [--seed 901] [--out BENCH_csv_write.json]

Each run is a fresh interpreter that runs the `cli` workload's simulate
command (1e6 steps, the seed perfbench derives from --seed) through
ratiotails.cli.main, with cli.save_price_series wrapped by name to time
its one call: the t,price CSV write, from the price column to the
renamed file.  The base is REV's tree, extracted with `git archive` into
a temporary directory (local; the repository's own checkout and
worktree list are untouched).  Pairs alternate which side runs first.

The JSON holds every run (seconds, peak RSS, sha256 of the CSV), each
side's median and interquartile range, the pairs the working tree won,
whether every CSV's sha256 matches, and the gain rule's verdict: a gain
needs the working tree faster in the median by more than the base's IQR,
with equal bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the `cli` workload's simulate command (perfbench/workloads.py)
N_STEPS = 10 ** 6

CHILD = """
import contextlib, io, json, resource, sys, time
import numpy
from ratiotails import cli
real, seconds = cli.save_price_series, []
def timed(series, path, workers=1):
    t0 = time.perf_counter()
    real(series, path, workers)
    seconds.append(time.perf_counter() - t0)
cli.save_price_series = timed
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"exit": code, "seconds": seconds[0], "peak_rss_mb": peak,
                  "numpy": numpy.__version__}))
"""


def simulate_argv(seed: int, out: str, threads: int | None) -> list:
    sim_seed = (seed * 1_000_003 + 7) % (1 << 31)
    argv = ["simulate", "--model", "ratio", "--family", "power", "--q", "1",
            "--sigma1", "0.38", "--sigma2", "0.38", "--dt", "1e-6",
            "--steps", str(N_STEPS), "--seed", str(sim_seed), "--out", out]
    return argv + ([] if threads is None else ["--threads", str(threads)])


def extract(rev: str, into: str) -> str:
    """REV's tree under ``into``; its path."""
    archive = os.path.join(into, "base.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", ROOT, "archive", rev], stdout=fh,
                       check=True)
    tree = os.path.join(into, "base")
    with tarfile.open(archive) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(tree, **safe)
    os.unlink(archive)
    return tree


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_once(tree: str, argv: list, out: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("RATIOTAILS_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          cwd=os.path.dirname(out), capture_output=True,
                          text=True, check=True, timeout=600)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["sha256"] = sha256(out)
    os.unlink(out)
    return record


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "min": min(values),
            "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--threads", type=int, default=None,
                        help="simulate --threads (default: the CLI's)")
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_csv_write.json"))
    args = parser.parse_args(argv)
    base_rev = subprocess.run(["git", "-C", ROOT, "rev-parse", args.base],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-csv-") as tmp:
        trees = {"base": extract(base_rev, tmp), "change": ROOT}
        out = os.path.join(tmp, "prices.csv")
        argv_sim = simulate_argv(args.seed, out, args.threads)
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                record = run_once(trees[side], argv_sim, out)
                record.update(side=side, pair=pair)
                runs.append(record)
                print(f"pair {pair} {side}: {record['seconds']:.3f} s, "
                      f"{record['peak_rss_mb']:.1f} MB", file=sys.stderr)
        shutil.rmtree(trees["base"])
    seconds = {side: [r["seconds"] for r in runs if r["side"] == side]
               for side in ("base", "change")}
    stats = {side: summary(values) for side, values in seconds.items()}
    won = sum(c < b for b, c in zip(seconds["base"], seconds["change"]))
    same = len({r["sha256"] for r in runs}) == 1
    gain = (stats["base"]["median"] - stats["change"]["median"]
            > stats["base"]["iqr"]) and same
    report = {
        "what": "seconds of cli.save_price_series in the cli workload's "
                "simulate command (1e6 steps), one call per process",
        "argv": simulate_argv(args.seed, "prices.csv", args.threads),
        "base": base_rev, "change": f"working tree on {head}",
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "runs": runs, "stats": stats,
        "peak_rss_mb": {side: summary([r["peak_rss_mb"] for r in runs
                                       if r["side"] == side])
                        for side in ("base", "change")},
        "pairs": args.pairs, "pairs_change_faster": won,
        "sha256_equal": same, "gain": gain,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"base {stats['base']['median']:.3f} s (IQR "
          f"{stats['base']['iqr']:.3f}), change "
          f"{stats['change']['median']:.3f} s (IQR "
          f"{stats['change']['iqr']:.3f}); change faster in {won} of "
          f"{args.pairs} pairs; sha256 equal: {same}; gain: {gain}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
