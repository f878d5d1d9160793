"""Time the CSV layer and take the peak RSS of the `cli` benchmark's
simulate, fit and tails commands: working tree against a base revision,
in alternating runs.

    python3 tools/bench_csv_write.py --base REV [--command C [C ...]]
        [--pairs 7] [--threads N] [--seed 901] [--out BENCH_cli_peak.json]

Each run is a fresh interpreter that runs one command as the `cli`
workload does (1e6 steps, the seed perfbench derives from --seed)
through ratiotails.cli.main, with one CSV function of cli wrapped by
name to time its one call: save_price_series for simulate (the t,price
write, from the path to the renamed file), load_price_series for fit
and tails (the parse, to the series).  fit and tails read a prices.csv
that the working tree's simulate writes once beforehand.  The base is
REV's tree, extracted with `git archive` into a temporary directory
(local; the repository's own checkout and worktree list are untouched).
Pairs alternate which side runs first.

Per command, the JSON holds every run (CSV seconds, the process's peak
RSS, the largest peak RSS of its child processes, and the sha256 of the
command's output file and of its stdout), each side's median and
interquartile range of seconds and of peak RSS, the pairs the working
tree won on each, whether every output's sha256 matches, and the gain
rule's verdict on each: a gain needs the working tree lower in the
median by more than the base's IQR, with equal bytes.  The CSV parse
runs in the command's process, so no command starts one: the peak RSS
column reads the command alone, and the children's column reads 0 (a
base whose parse forked workers shows their peak there).
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

# the `cli` workload's commands (perfbench/workloads.py)
N_STEPS = 10 ** 6
OUTPUT = {"simulate": "prices.csv", "fit": "fit.txt", "tails": "tails.txt"}

CHILD = """
import contextlib, hashlib, io, json, resource, sys, time
import numpy
from ratiotails import cli
command, argv = sys.argv[1], sys.argv[2:]
name = "save_price_series" if command == "simulate" else "load_price_series"
real, seconds = getattr(cli, name), []
def timed(*args, **kwargs):
    t0 = time.perf_counter()
    try:
        return real(*args, **kwargs)
    finally:
        seconds.append(time.perf_counter() - t0)
setattr(cli, name, timed)
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    code = cli.main(argv)
usage = {who: resource.getrusage(who).ru_maxrss / 1024
         for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
print(json.dumps({
    "exit": code, "seconds": seconds[0],
    "peak_rss_mb": usage[resource.RUSAGE_SELF],
    "children_peak_rss_mb": usage[resource.RUSAGE_CHILDREN],
    "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
    "numpy": numpy.__version__}))
"""


def command_argv(command: str, seed: int, threads: int | None) -> list:
    """The `cli` workload's argv of ``command``, which writes
    OUTPUT[command] in the working directory."""
    sim_seed = (seed * 1_000_003 + 7) % (1 << 31)
    if command == "simulate":
        argv = ["simulate", "--model", "ratio", "--family", "power", "--q",
                "1", "--sigma1", "0.38", "--sigma2", "0.38", "--dt", "1e-6",
                "--steps", str(N_STEPS), "--seed", str(sim_seed), "--out",
                OUTPUT[command]]
        return argv + ([] if threads is None else ["--threads", str(threads)])
    if command == "fit":
        return ["fit", "--prices", "prices.csv", "--delta-t", "1e-6",
                "--big-delta-t", "1e-4", "--stride", "1e-4", "--out",
                OUTPUT[command]]
    return ["tails", "--prices", "prices.csv", "--as-returns", "1e-6",
            "--out", OUTPUT[command]]


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


def run_once(tree: str, command: str, argv: list, work: str,
             keep: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("RATIOTAILS_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, command, *argv],
                          env=env, cwd=work, capture_output=True, text=True,
                          check=True, timeout=600)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    out = os.path.join(work, OUTPUT[command])
    record["sha256"] = sha256(out)
    if not keep:
        for path in (out, out + ".manifest"):
            os.unlink(path)
    return record


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "min": min(values),
            "max": max(values)}


def compare(runs: list, key: str) -> dict:
    """Each side's summary of ``key``, the pairs in which the working tree
    was lower, and whether it is lower in the median by more than the
    base's IQR."""
    values = {side: [r[key] for r in runs if r["side"] == side]
              for side in ("base", "change")}
    stats = {side: summary(v) for side, v in values.items()}
    won = sum(c < b for b, c in zip(values["base"], values["change"]))
    lower = (stats["base"]["median"] - stats["change"]["median"]
             > stats["base"]["iqr"])
    return {**stats, "pairs_change_lower": won, "change_lower": lower}


def bench(command: str, trees: dict, work: str, args) -> dict:
    argv = command_argv(command, args.seed, args.threads)
    runs = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            record = run_once(trees[side], command, argv, work)
            record.update(side=side, pair=pair)
            runs.append(record)
            print(f"{command} pair {pair} {side}: {record['seconds']:.3f} s, "
                  f"{record['peak_rss_mb']:.1f} MB, children "
                  f"{record['children_peak_rss_mb']:.1f} MB",
                  file=sys.stderr)
    same = all(len({r[key] for r in runs}) == 1
               for key in ("sha256", "stdout_sha256"))
    seconds = compare(runs, "seconds")
    peak = compare(runs, "peak_rss_mb")
    return {
        "what": f"the process's peak RSS, and the seconds of "
                f"cli.{'save' if command == 'simulate' else 'load'}"
                f"_price_series, in the cli workload's {command} command, "
                "one call per process",
        "argv": argv, "runs": runs, "seconds": seconds, "peak_rss_mb": peak,
        "children_peak_rss_mb": {
            side: summary([r["children_peak_rss_mb"] for r in runs
                           if r["side"] == side])
            for side in ("base", "change")},
        "sha256_equal": same,
        "gain": {"seconds": seconds["change_lower"] and same,
                 "peak_rss_mb": peak["change_lower"] and same},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--command", nargs="+", choices=sorted(OUTPUT),
                        default=["simulate"], help="the commands to run")
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--threads", type=int, default=None,
                        help="simulate --threads (default: the CLI's)")
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_cli_peak.json"))
    args = parser.parse_args(argv)
    base_rev = subprocess.run(["git", "-C", ROOT, "rev-parse", args.base],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    commands = {}
    with tempfile.TemporaryDirectory(prefix="bench-csv-") as tmp:
        trees = {"base": extract(base_rev, tmp), "change": ROOT}
        # simulate writes (and removes) its prices.csv in one directory,
        # fit and tails read the one kept in the other
        work = {"write": os.path.join(tmp, "write"),
                "read": os.path.join(tmp, "read")}
        for path in work.values():
            os.makedirs(path)
        if {"fit", "tails"} & set(args.command):
            run_once(trees["change"], "simulate",
                     command_argv("simulate", args.seed, args.threads),
                     work["read"], keep=True)
        for command in args.command:
            commands[command] = bench(
                command, trees,
                work["write" if command == "simulate" else "read"], args)
        shutil.rmtree(trees["base"])
    report = {
        "base": base_rev, "change": f"working tree on {head}",
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "pairs": args.pairs, "commands": commands,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for command, result in commands.items():
        seconds, peak = result["seconds"], result["peak_rss_mb"]
        print(f"{command}: base {peak['base']['median']:.1f} MB (IQR "
              f"{peak['base']['iqr']:.1f}), change "
              f"{peak['change']['median']:.1f} MB (IQR "
              f"{peak['change']['iqr']:.1f}), lower in "
              f"{peak['pairs_change_lower']} of {args.pairs} pairs; CSV "
              f"{seconds['base']['median']:.3f} s against "
              f"{seconds['change']['median']:.3f} s; sha256 equal: "
              f"{result['sha256_equal']}; gain: {result['gain']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
