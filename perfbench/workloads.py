"""The three workloads.  Each is a closed loop with one client: the next
operation starts when the previous one has finished.

recovery  one acceptance-criterion-6 trial per operation, in-process:
          simulate 1e6 steps, extract changes, fit [power, log] without
          bootstrap; a pass runs one fixed trial per generator.  Fitting
          does ~90% of the work; no file I/O, no CLI import and no
          quadrature, so it is the control for changes to the density and
          fileio layers.
cli       one user pipeline per operation through the console entry point,
          one fresh process per command: check, simulate, fit (with the
          default bootstrap), tails, replay.  Import, CSV write and CSV
          read dominate; writes sit beside reads.
density   one correlated (rho = -0.5) fit plus one fixed batch of density
          curves per operation, in-process.  The only workload where
          quadrature does most of the work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
import layers
from tracer import Span

N_STEPS = 10 ** 6
WORKDIR = ".perfbench-work"
COMMAND_TIMEOUT = 120.0
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    """One operation: program seconds per step ("fit" is the fitting step),
    whether its checks passed, and its decision record."""

    parts: dict
    ok: bool
    recovered: bool
    record: dict
    spans: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.parts.values())


def failed_op(seconds: float, exc: BaseException) -> Op:
    traceback.print_exception(exc, file=sys.stderr)
    return Op({"failed": seconds}, False, False,
              {"error": f"{type(exc).__name__}: {exc}"})


def _child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RATIOTAILS_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def timed_child(argv, root: str, cwd: str | None = None):
    """Run one child to completion; (seconds from spawn to exit, process)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd or root, env=_child_env(root),
                          capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT)
    return time.perf_counter() - t0, proc


def import_seconds(root: str, module: str) -> float:
    """Time of ``import module`` in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    _, proc = timed_child([sys.executable, "-c", code], root)
    proc.check_returncode()
    return float(proc.stdout.strip())


def _median_seconds(fn, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


# probes that only the cli workload exercises read 0 on the others
CLI_ONLY_PROBES = {"fitting.boot_s": 0.0,
                   **{f"cli.overhead_s.{c}": 0.0 for c in layers.COMMANDS}}


def _fit_record(result) -> dict:
    return {"family": result.response.family.value,
            "q_hat": result.param_estimate,
            "nuisance_spread": result.nuisance_spread,
            "nuisance_scale": result.nuisance_scale,
            "threshold": result.threshold}


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

# one trial of each generator of acceptance criterion 6, all with spread
# 0.38 and rho = -1: (name, family, q, time step, seed).  The seeds are the
# first of the 20 criterion 6 runs per generator.
TRIALS = (
    ("power_q1", "power", 1.0, 1e-8, 20260600),
    ("power_q2", "power", 2.0, 1e-12, 20260700),
    ("log", "log", None, 1e-6, 20260800),
    ("gbm", None, None, 1.0, 20260900),
)


class Recovery:
    """A fixed set of four criterion-6 trials, one per generator, each of
    which the acceptance suite also runs.  The benchmark seed orders the
    set.  Every pass does the same work, and the recovery rate is
    comparable with criterion 6's.
    """

    batch = len(TRIALS)
    in_process = True

    def __init__(self, root: str):
        self.root = root

    def setup(self, seed: int) -> None:
        from ratiotails import density, fitting, response, simulate
        self.density, self.fitting = density, fitting
        self.response, self.simulate = response, simulate
        order = np.random.default_rng(seed).permutation(len(TRIALS))
        self.trials = [TRIALS[i] for i in order]

    def _params(self):
        return self.density.OrderFlowParams(1.0, 1.0, 0.38, 0.38, -1.0)

    def op(self, k: int, traced: bool = False) -> Op:
        name, family, q, dt, seed = self.trials[k]
        sim, fitting = self.simulate, self.fitting
        Family = self.response.Family
        t0 = time.perf_counter()
        if family is None:
            series = sim.simulate_gbm(1e-4, 0.01, 1.0, N_STEPS, 1.0, seed=seed)
        else:
            cfg = sim.SimConfig(
                params=self._params(),
                response=self.response.ResponseSpec(Family(family), q),
                tau0=1.0, dt=dt, n_steps=N_STEPS, p0=1.0, seed=seed)
            series = sim.simulate_path(cfg)
        t1 = time.perf_counter()
        w = fitting.WindowSpec(dt, 100.0 * dt, 100.0 * dt)
        flat, windows, _ = fitting.relative_changes(series, w,
                                                    return_windows=True)
        t2 = time.perf_counter()
        result = fitting.fit_g(flat, [Family.POWER, Family.LOG],
                               windows=windows, n_boot=0)
        t3 = time.perf_counter()
        ok = checks.recovered(family and Family(family), q, result)
        record = {"generator": name, "seed": seed, **_fit_record(result),
                  "rejected": int(series.meta.get("rejected", 0)),
                  "passed": ok}
        return Op({"simulate": t1 - t0, "changes": t2 - t1, "fit": t3 - t2},
                  ok, ok, record)

    def probes(self, ops) -> dict:
        first = next(op.record for op in ops
                     if op.record.get("generator") == "power_q1")
        rejected = first["rejected"]
        draw = _median_seconds(lambda: self.simulate.sample_ratio(
            self._params(), N_STEPS, first["seed"]))
        return {"simulate.rejected_frac": rejected / (N_STEPS + rejected),
                "simulate.draw_s": draw, **CLI_ONLY_PROBES}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _key_values(path: str) -> dict:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


class Cli:
    """The user pipeline through ``python -m ratiotails.cli``."""

    batch = 1
    in_process = False

    def __init__(self, root: str):
        self.root = root
        self.work = os.path.join(root, WORKDIR)

    def setup(self, seed: int) -> None:
        self.seed = seed
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def sim_seed(self) -> int:
        return (self.seed * 1_000_003 + 7) % (1 << 31)

    def argv(self, command: str) -> list:
        return {
            "check": ["check", "--family", "sym"],
            "simulate": ["simulate", "--model", "ratio", "--family", "power",
                         "--q", "1", "--sigma1", "0.38", "--sigma2", "0.38",
                         "--dt", "1e-6", "--steps", str(N_STEPS),
                         "--seed", str(self.sim_seed()), "--out", "prices.csv"],
            "fit": ["fit", "--prices", "prices.csv", "--delta-t", "1e-6",
                    "--big-delta-t", "1e-4", "--stride", "1e-4",
                    "--out", "fit.txt"],
            "tails": ["tails", "--prices", "prices.csv", "--as-returns", "1e-6",
                      "--out", "tails.txt"],
            "replay": ["replay", "prices.csv.manifest", "--out", "replayed.csv",
                       "--threads", "2"],
        }[command]

    def op(self, k: int, traced: bool = False) -> Op:
        record = {"seed": self.sim_seed(), "commands": {}}
        spans = []
        seconds = {}
        for command in layers.COMMANDS:
            if traced:
                spans_file = os.path.join(self.work, f"spans-{command}.json")
                prefix = [sys.executable, os.path.join(HERE, "cli_child.py"),
                          spans_file]
            else:
                prefix = [sys.executable, "-m", "ratiotails.cli"]
            wall, proc = timed_child(prefix + self.argv(command),
                                     self.root, cwd=self.work)
            seconds[command] = wall
            entry = {"exit": proc.returncode}
            if proc.returncode != 0:
                entry["stderr"] = proc.stderr[-2000:]
            if command == "simulate" and proc.returncode == 0:
                entry["rejected"] = int(proc.stdout.split("rejected=")[1].split()[0])
            if traced:
                with open(spans_file) as fh:
                    command_spans = [Span.from_dict(d)
                                     for d in json.load(fh)]
                entry["overhead_s"] = layers.cli_overhead(command_spans)
                spans.extend(command_spans)
            record["commands"][command] = entry
            if proc.returncode != 0:
                break

        ok = all(e["exit"] == 0 for e in record["commands"].values())
        ok = ok and len(record["commands"]) == len(layers.COMMANDS)
        recovered = False
        if ok:
            files = ("prices.csv", "replayed.csv", "fit.txt", "tails.txt")
            record["sha256"] = {f: _sha256(os.path.join(self.work, f))
                                for f in files}
            fit = _key_values(os.path.join(self.work, "fit.txt"))
            tails = _key_values(os.path.join(self.work, "tails.txt"))
            record["fit"] = {"family": fit["family"], "q_hat": float(fit["param"])}
            record["tails"] = {"class": tails["class"],
                               "estimate": float(tails["estimate"])}
            recovered = (fit["family"] == "power"
                         and abs(float(fit["param"]) - 1.0) <= 0.2)
            checks_ok = {
                "replay_identical": (record["sha256"]["prices.csv"]
                                     == record["sha256"]["replayed.csv"]),
                "fit_power_q1": recovered,
                "tails_power_law": tails["class"] == "power_law",
            }
            record["checks"] = checks_ok
            ok = all(checks_ok.values())
        record["passed"] = ok
        return Op(seconds, ok, recovered, record, spans)

    def probes(self, ops) -> dict:
        from ratiotails import density, fileio, fitting, response, simulate
        first = ops[0].record
        rejected = first["commands"]["simulate"]["rejected"]
        params = density.OrderFlowParams(1.0, 1.0, 0.38, 0.38, -1.0)
        draw = _median_seconds(lambda: simulate.sample_ratio(
            params, N_STEPS, first["seed"]))

        # bootstrap share of the fit on the last pipeline's prices
        series = fileio.load_price_series(os.path.join(self.work, "prices.csv"))
        w = fitting.WindowSpec(1e-6, 1e-4, 1e-4)
        flat, windows, _ = fitting.relative_changes(series, w,
                                                    return_windows=True)
        fams = [response.Family.POWER, response.Family.LOG]
        t0 = time.perf_counter()
        fitting.fit_g(flat, fams, windows=windows)
        t1 = time.perf_counter()
        fitting.fit_g(flat, fams, windows=windows, n_boot=0)
        t2 = time.perf_counter()

        out = {"simulate.rejected_frac": rejected / (N_STEPS + rejected),
               "simulate.draw_s": draw, "fitting.boot_s": (t1 - t0) - (t2 - t1)}
        for command in layers.COMMANDS:
            out[f"cli.overhead_s.{command}"] = float(np.median(
                [op.record["commands"][command]["overhead_s"] for op in ops]))
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

PATH_SEED = 20261000          # the fixed rho = -0.5 input path
CURVE_RHOS = (-0.5, 0.0, 0.7)
MASS_RHOS = (-1.0, -0.5, 0.0, 0.7)
TRANSFORMS = (("sym", None), ("power", 2.0), ("log", None), ("logpower", 3))
TAIL_KINDS = {"sym": "power_law", "power": "power_law", "log": "exponential",
              "logpower": "stretched_exponential"}
HINKLEY_RTOL = 1e-9
TRANSFORM_RTOL = 1e-6
MASS_ATOL = 1e-8


class Density:
    """A correlated-law fit and a fixed batch of density curves.

    Inputs are fixed, whatever the seed: one rho = -0.5 power (q = 1) path
    and one curve batch, so the quadrature call count repeats exactly.
    """

    batch = 1
    in_process = True

    def __init__(self, root: str):
        self.root = root

    def setup(self, seed: int) -> None:
        from ratiotails import density, fitting, response, simulate
        self.density, self.fitting, self.response = density, fitting, response
        self.simulate = simulate
        self.path_params = density.OrderFlowParams(1.0, 1.0, 0.38, 0.38, -0.5)
        cfg = simulate.SimConfig(
            params=self.path_params,
            response=response.ResponseSpec(response.Family.POWER, 1.0),
            tau0=1.0, dt=1e-8, n_steps=N_STEPS, p0=1.0, seed=PATH_SEED)
        self.series = simulate.simulate_path(cfg)
        self.changes = fitting.relative_changes(
            self.series, fitting.WindowSpec(1e-8, 1e-6, 1e-6))

        self.lin = np.linspace(-1.0, 5.0, 401)
        self.log = np.geomspace(1.0, 1e5, 201)
        self.tgrid = np.linspace(-3.0, 3.0, 40)
        self.refs = {}
        for rho in CURVE_RHOS:
            self.refs["lin", rho] = checks.hinkley_density(
                1.0, 1.0, 0.2, 0.2, rho, self.lin)
            self.refs["log", rho] = checks.hinkley_density(
                1.0, 1.0, 0.5, 0.5, rho, self.log)
        for rho in MASS_RHOS:
            self.refs["mass", rho] = checks.positive_mass(1.0, 1.0, 0.5, 0.5, rho)
        mass = self.refs["mass", -0.5]
        for family, q in TRANSFORMS:
            r, slope = checks.inverse_and_slope(family, q, self.tgrid)
            self.refs["transform", family] = checks.hinkley_density(
                1.0, 1.0, 0.5, 0.5, -0.5, r) / slope / mass

    def curves(self) -> dict:
        """Part (b): only program calls, so its time is the program's."""
        dens, Family = self.density, self.response.Family
        flows = dens.OrderFlowParams
        out = {}
        for rho in CURVE_RHOS:
            out["lin", rho] = dens.ratio_density(flows(1, 1, 0.2, 0.2, rho), self.lin)
            out["log", rho] = dens.ratio_density(flows(1, 1, 0.5, 0.5, rho), self.log)
        anti = flows(1.0, 1.0, 0.2, 0.2, -1.0)
        out["anticorr"] = dens.ratio_density_anticorr(anti, self.lin)
        out["anticorr_cdf"] = dens.ratio_cdf_anticorr(anti, self.lin)
        for rho in MASS_RHOS:
            out["mass", rho] = dens.positive_ratio_mass(flows(1, 1, 0.5, 0.5, rho))
        transform_flows = flows(1.0, 1.0, 0.5, 0.5, -0.5)
        for family, q in TRANSFORMS:
            spec = self.response.ResponseSpec(Family(family), q)
            out["transform", family] = dens.TransformedDensity(
                transform_flows, spec)(self.tgrid)
            out["tail", family] = dens.tail_prediction(transform_flows, spec)
        return out

    def check_curves(self, out: dict) -> dict:
        """Each check's measured figure and whether it passed."""
        found = {}
        for rho in CURVE_RHOS:
            for grid in ("lin", "log"):
                err = checks.max_rel_error(out[grid, rho], self.refs[grid, rho])
                found[f"hinkley_rel_err.{grid}.{rho:g}"] = (err, err <= HINKLEY_RTOL)
            mass = float(np.trapezoid(out["lin", rho], self.lin))
            found[f"mass.{rho:g}"] = (mass, 0.98 <= mass <= 1.001)
        mass = float(np.trapezoid(out["anticorr"], self.lin))
        found["mass.-1"] = (mass, 0.98 <= mass <= 1.001)
        cdf_gap = abs(out["anticorr_cdf"][-1] - out["anticorr_cdf"][0] - mass)
        found["anticorr_cdf_vs_mass"] = (float(cdf_gap), cdf_gap <= 1e-3)
        for rho in MASS_RHOS:
            gap = abs(out["mass", rho] - self.refs["mass", rho])
            found[f"positive_mass_err.{rho:g}"] = (gap, gap <= MASS_ATOL)
        for family, _ in TRANSFORMS:
            err = checks.max_rel_error(out["transform", family],
                                       self.refs["transform", family])
            found[f"transform_rel_err.{family}"] = (err, err <= TRANSFORM_RTOL)
            tail = out["tail", family]
            good = (tail.tail.kind.value == TAIL_KINDS[family]
                    and math.isfinite(tail.prefactor) and tail.prefactor > 0)
            found[f"tail_prefactor.{family}"] = (tail.prefactor, good)
        return found

    def op(self, k: int, traced: bool = False) -> Op:
        Family = self.response.Family
        t0 = time.perf_counter()
        result = self.fitting.fit_g(self.changes, [Family.POWER, Family.LOG],
                                    rho=-0.5)
        t1 = time.perf_counter()
        out = self.curves()
        t2 = time.perf_counter()
        found = self.check_curves(out)
        recovered = (result.response.family is Family.POWER
                     and abs(result.param_estimate - 1.0) <= 0.2)
        ok = recovered and all(good for _, good in found.values())
        record = {"corr_fit": _fit_record(result),
                  "checks": {name: value for name, (value, _) in found.items()},
                  "failed_checks": [n for n, (_, good) in found.items() if not good],
                  "passed": ok}
        return Op({"fit": t1 - t0, "curves": t2 - t1}, ok, recovered, record)

    def probes(self, ops) -> dict:
        rejected = int(self.series.meta["rejected"])
        draw = _median_seconds(lambda: self.simulate.sample_ratio(
            self.path_params, N_STEPS, PATH_SEED))
        return {"simulate.rejected_frac": rejected / (N_STEPS + rejected),
                "simulate.draw_s": draw, **CLI_ONLY_PROBES}

    def close(self) -> None:
        pass


WORKLOADS = {"recovery": Recovery, "cli": Cli, "density": Density}
