"""Command-line surface.

Subcommands: check (admissibility of a response), density (ratio or
transformed density curves), simulate (ratio-driven or GBM price paths),
tails (tail classification of a sample), fit (family recovery from a
price series) and replay (re-run a saved manifest).

Exit codes follow the error's type: 0 success (for check: all
conditions hold; --help and --version), 1 condition failure or numerical
failure, 2 malformed input or domain violation (a parser refusal, an
output that cannot be written or would overwrite an input, another
output or the manifest, a manifest that cannot be replayed), 3
non-identifiable family tie.  No command leaves a partial file behind.

Threads: every parallel stage runs on the CPUs the process may use
(``taskset`` narrows them), and no output ever depends on their count.
Only simulate takes --seed (default 0) and --threads, and replay passes
--threads on to a replayed simulate.  --threads, a positive count (see
parallel.thread_count), overrides the usable CPUs for the threads that
draw the path and format its CSV, in-process.  fit and tails parse their
CSV on the usable CPUs and keep the parsed body as the series until the
changes or returns are taken (see fileio).  fit searches each
candidate's nuisance on its own thread, at any --rho, and scores each
candidate on the full bulk chunk by chunk.  check, density and tails'
classification compute on one core.  fit and tails check their options
before they load any prices or samples; tails checks --as-returns
whenever it is given, and ignores a valid one with --samples.

Start-up: the package loads numpy but no scipy module, about 0.25 s on
a 2-vCPU host, which is all that --help, check --family, simulate,
tails (with any candidates), fit at the default --rho -1 (with or
without --overlay), density at rho = -1 (plain or with --transform)
and replay of their manifests pay before computing.  scipy loads
inside the functions that compute with it, only when they run: density
at rho != -1 and fit at --rho != -1 (scipy.special, ~0.33 s more), and
check --table (scipy.interpolate and scipy.optimize).

One path, _execute, takes a command line to its exit code, main's and
the one replay rebuilds alike, and saves the ``<output>.manifest``
beside the first output given: one param.<option> per option of the
command but --seed and --threads, read off the parser below, from which
replay rebuilds the command line.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .density import (CurveMethod, DensityCurve, OrderFlowParams, PowerMap,
                      TransformedDensity, ratio_density)
from .errors import (DomainError, InputFormatError, InputMismatchError,
                     NonIdentifiableError, RatioTailsError)
from .fileio import (RunManifest, format_key_values, key_values_csv,
                     load_price_series, load_response_table, load_samples,
                     save_density_curve, save_price_series, sha256_file,
                     write_atomic, write_csv)
from .fitting import (WindowSpec, check_fit_options, exponent_report,
                      fit_price_series, scaled_returns)
from .response import (Family, ResponseSpec, check_admissibility,
                       reciprocal_log_grid)
from .simulate import (RejectionPolicy, SimConfig, simulate_gbm,
                       simulate_path)
from .tails import (SWEEP_QUANTILES, TailKind, check_tail_options,
                    classify_tail,  # noqa: F401 (perfbench traces it here)
                    quantile, threshold_sweep)

_CANDIDATE_KINDS = {"power": TailKind.POWER_LAW,
                    "exp": TailKind.EXPONENTIAL,
                    "stretched": TailKind.STRETCHED_EXPONENTIAL}


def _build_response(family: str, q) -> ResponseSpec:
    fam = Family(family)
    if fam in (Family.SYM, Family.LOG):
        return ResponseSpec(fam)
    if q is None:
        raise InputFormatError(f"--family {family} requires --q")
    return ResponseSpec(fam, float(q))


class _Parser(argparse.ArgumentParser):
    """argparse, its refusals raised as InputFormatError: bad input."""

    def error(self, message):
        raise InputFormatError(message)


def _input_path(path: str) -> str:
    """argparse type of an input file option: the manifest records the
    file's sha256, and replay checks it."""
    return path


def _output_path(path: str) -> str:
    """argparse type of an output file option (see _execute)."""
    return path


def _options(parser: argparse.ArgumentParser, command: str) -> dict:
    """Option name (no leading --) -> argparse action, for every option
    of ``command`` but --seed and --threads."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    if command not in sub.choices:
        raise InputFormatError(f"unknown command {command!r}")
    return {a.option_strings[-1][2:]: a
            for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "seed", "threads")}


def _refuse_overwrites(inputs: list, outputs: list) -> None:
    """Refuse a run in which an output (the manifest last) is an input or
    an earlier output: the same real path, or the same file where both
    exist.  Each entry is a (name, path) pair."""
    for i, (name, out) in enumerate(outputs):
        for other, path in inputs + outputs[:i]:
            if os.path.realpath(out) == os.path.realpath(path) or (
                    os.path.exists(out) and os.path.exists(path)
                    and os.path.samefile(out, path)):
                raise InputFormatError(
                    f"{name} {out} would overwrite {other} {path}")


def _execute(parser: argparse.ArgumentParser, argv, source: str = "") -> int:
    """The exit code of the command line ``argv``, parsed (a refusal
    raises InputFormatError, after ``source``) and run once no output
    would overwrite an input, another output or the manifest.  A command
    with an output saves its manifest beside the first one: each option's
    value (a flag as true/false, an unset one as ""), the seed, the
    sha256 of each input file given, the digests the command adds to
    args.input_hashes, and the start and end of the run."""
    try:
        args = parser.parse_args(argv)
    except InputFormatError as exc:
        raise InputFormatError(f"{source}{exc}") from None
    started = RunManifest.now()
    args.parser, args.input_hashes = parser, {}
    options = _options(parser, args.command)
    values = {key: getattr(args, a.dest) for key, a in options.items()}
    inputs, outputs = ([(f"--{k}", v) for k, v in values.items()
                        if v and options[k].type is kind]
                       for kind in (_input_path, _output_path))
    if outputs:
        outputs.append(("the manifest", outputs[0][1] + ".manifest"))
    _refuse_overwrites(inputs, outputs)
    code = args.run(args)
    if outputs:
        args.input_hashes.update(
            (os.path.basename(path), sha256_file(path)) for _, path in inputs)
        params = {k: "" if v is None else str(v).lower() if isinstance(v, bool)
                  else str(v) for k, v in values.items()}
        RunManifest(command=args.command, params=params,
                    seed=getattr(args, "seed", None), version=__version__,
                    input_hashes=args.input_hashes, started=started,
                    finished=RunManifest.now()).save(outputs[-1][1])
    return code


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _run_check(args) -> int:
    if args.table:
        response = load_response_table(args.table)
    elif args.family:
        response = _build_response(args.family, args.q)
        if args.normalize:
            response = response.normalized()
    else:
        raise InputFormatError("provide --family or --table")

    grid = reciprocal_log_grid(args.grid_max_log, args.grid_points)
    report = check_admissibility(response, grid)
    text = report.summary()
    print(text)
    if args.out:
        write_atomic(args.out, text + "\n")
    return 0 if report.satisfies_all else 1


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def _density_grid(args) -> np.ndarray:
    if args.points < 2:
        raise InputFormatError("--points must be at least 2")
    if not np.isfinite([args.x_min, args.x_max]).all():
        raise InputFormatError("--x-min and --x-max must be finite")
    if not args.x_max > args.x_min:
        raise InputFormatError("--x-max must exceed --x-min")
    if args.log_grid:
        if args.x_min <= 0:
            raise InputFormatError("--log-grid needs a positive --x-min")
        return np.geomspace(args.x_min, args.x_max, args.points)
    return np.linspace(args.x_min, args.x_max, args.points)


def _run_density(args) -> int:
    params = OrderFlowParams(args.mu1, args.mu2, args.sigma1, args.sigma2,
                             args.rho)
    grid = _density_grid(args)
    if args.transform == "pow" and args.q is None:
        raise InputFormatError("--transform pow requires --q")
    # means or spreads far out of scale can leave the float range on the
    # way; the curve rejects values that are not finite
    with np.errstate(all="ignore"):
        if args.transform == "none":
            fn = lambda x: ratio_density(params, x)
        elif args.transform == "pow":
            fn = TransformedDensity(params, PowerMap(args.q))
        else:
            fn = TransformedDensity(params,
                                    _build_response(args.transform, args.q))
        curve = DensityCurve.from_function(fn, grid, CurveMethod.EXACT)
    save_density_curve(curve, args.out)

    print(f"points={len(grid)} mass={curve.mass:.6f}")
    try:
        span = (grid[-1] / 100.0, grid[-1])
        if span[0] > 0 and span[0] < span[1]:
            slope = curve.loglog_tail_slope(*span)
            print(f"loglog_slope[{span[0]:g},{span[1]:g}]={slope:.4f}")
    except (DomainError, FloatingPointError):
        pass
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _run_simulate(args) -> int:
    if args.model == "gbm":
        series = simulate_gbm(args.mu, args.sigma, args.dt, args.steps,
                              args.p0, args.seed, threads=args.threads)
    else:
        params = OrderFlowParams(args.mu1, args.mu2, args.sigma1, args.sigma2,
                                 args.rho)
        spec = _build_response(args.family, args.q)
        cfg = SimConfig(params=params, response=spec, tau0=args.tau0,
                        dt=args.dt, n_steps=args.steps, p0=args.p0,
                        seed=args.seed,
                        rejection_policy=RejectionPolicy(args.policy))
        series = simulate_path(cfg, threads=args.threads)
        args.input_hashes["config"] = cfg.digest()

    save_price_series(series, args.out, threads=args.threads)
    log_prices, rejected = series.log_prices, series.meta.get("rejected", 0)
    del series  # its times are dead before the returns
    r = np.diff(log_prices)
    del log_prices  # dead before np.var's temporary
    print(f"steps={args.steps} mean_log_return={np.mean(r):.6e} "
          f"var_log_return={np.var(r):.6e} rejected={rejected}")
    return 0


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def _parse_candidates(raw: str):
    kinds = []
    for name in raw.split(","):
        name = name.strip()
        if name not in _CANDIDATE_KINDS:
            raise InputFormatError(
                f"unknown tail candidate {name!r}; choose from "
                f"{sorted(_CANDIDATE_KINDS)}")
        kinds.append(_CANDIDATE_KINDS[name])
    return kinds


def _run_tails(args) -> int:
    if bool(args.samples) == bool(args.prices):
        raise InputFormatError("provide exactly one of --samples / --prices")
    if args.prices and args.as_returns is None:
        raise InputFormatError("--prices requires --as-returns DT")
    # --as-returns is checked whenever it is given: with --samples it is
    # ignored, but a malformed one is still bad input
    kinds = check_tail_options(_parse_candidates(args.candidates),
                               args.threshold_quantile, args.as_returns)
    if args.samples:
        values = load_samples(args.samples)
    else:  # the series is dropped once its returns are taken
        values = scaled_returns(load_price_series(args.prices),
                                args.as_returns)

    report, *sweep = threshold_sweep(
        values, kinds, side=args.side,
        quantiles=(args.threshold_quantile, *SWEEP_QUANTILES))
    lines = dict(report.key_values())
    for swept in sweep:
        lines[f"sweep.{swept.threshold:.6g}.class"] = swept.tail.kind.value
        lines[f"sweep.{swept.threshold:.6g}.estimate"] = swept.estimate
    text = format_key_values(lines)
    print(text, end="")
    if args.out:
        write_atomic(args.out, text)
    if args.csv:
        write_atomic(args.csv, key_values_csv([r.key_values() for r in sweep]))
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _run_fit(args) -> int:
    w = WindowSpec(args.delta_t, args.big_delta_t, args.stride)
    fams = check_fit_options(
        [f.strip() for f in args.candidates.split(",") if f.strip()],
        args.threshold_quantile, args.rho)
    # no name holds the series, so the fit drops it once it has the changes
    result, changes = fit_price_series(
        load_price_series(args.prices), w, fams,
        interpolate=args.interpolate, return_changes=True,
        threshold_quantile=args.threshold_quantile, rho=args.rho,
        n_boot=args.boot)
    text = exponent_report(result)
    print(text)
    if args.out:
        write_atomic(args.out, format_key_values(result.key_values()))
    if args.csv:
        write_atomic(args.csv, key_values_csv([result.key_values()]))
    if args.overlay:
        _write_overlay(changes, result, args.overlay)
    return 0


def _write_overlay(changes, result, path: str) -> None:
    """Empirical density of the fitted changes next to the fitted model
    density."""
    from .fitting import _change_log_pdf

    lo, hi = quantile(changes, 0.001), quantile(changes, 0.999)
    hist, edges = np.histogram(changes, bins=160, range=(lo, hi), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(over="ignore"):
        model = np.exp(_change_log_pdf(result.response, result.nuisance_scale,
                                       result.nuisance_spread, result.rho,
                                       centers))
    model = np.where(np.isfinite(model), model, 0.0)
    write_csv(path, "x,f_model,f_empirical", (centers, model, hist))


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _check_inputs(manifest: RunManifest, options: dict) -> None:
    """Refuse to replay over an input file that changed since the run."""
    for key, action in options.items():
        if action.type is not _input_path:
            continue
        path = manifest.params.get(key, "")
        recorded = manifest.input_hashes.get(os.path.basename(path))
        if not (path and recorded and os.path.isfile(path)):
            continue  # a missing file is the command's own error
        actual = sha256_file(path)
        if actual != recorded:
            raise InputMismatchError(
                f"input {path} changed since the manifest was written: "
                f"sha256 {actual}, recorded {recorded}")


def _run_replay(args) -> int:
    manifest = RunManifest.load(args.manifest)
    if manifest.version and manifest.version != __version__:
        raise InputMismatchError(
            f"{args.manifest} was written by ratiotails {manifest.version}; "
            f"this is ratiotails {__version__}")
    options = _options(args.parser, manifest.command)
    _check_inputs(manifest, options)
    argv = [manifest.command]
    params = dict(manifest.params)
    if args.out is not None and "out" in params:
        # the run's other outputs go beside the new one, not over its own
        for key, action in options.items():
            if action.type is _output_path and params.get(key):
                params[key] = f"{args.out}.{key}"
        params["out"] = args.out
    for key, value in params.items():
        if key not in options:
            raise InputFormatError(f"{args.manifest}: param.{key} is not an "
                                   f"option of {manifest.command}")
        if isinstance(options[key], argparse._StoreTrueAction):
            if value == "true":
                argv.append(f"--{key}")
        elif value != "":
            argv.extend([f"--{key}", value])
    if manifest.seed is not None:
        argv.extend(["--seed", str(manifest.seed)])
    if args.threads is not None and manifest.command == "simulate":
        argv.extend(["--threads", str(args.threads)])
    return _execute(args.parser, argv, f"{args.manifest}: ")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _threads(text: str) -> int:
    """argparse type of --threads: a count parallel.thread_count takes."""
    from . import parallel

    try:
        return parallel.thread_count(int(text))
    except ValueError:  # a DomainError too
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive count") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ratiotails",
        description="Ratio-driven price dynamics: densities, simulation, "
                    "tail estimation and family recovery")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check response admissibility")
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--table", type=_input_path,
                   help="x,g CSV of a tabulated response")
    p.add_argument("--normalize", action="store_true",
                   help="rescale to unit slope at r=1 before checking")
    p.add_argument("--grid-max-log", type=float, default=6.0)
    p.add_argument("--grid-points", type=int, default=120)
    p.add_argument("--out", type=_output_path)
    p.set_defaults(run=_run_check)

    p = sub.add_parser("density", help="evaluate a density curve to CSV")
    p.add_argument("--mu1", type=float, default=1.0)
    p.add_argument("--mu2", type=float, default=1.0)
    p.add_argument("--sigma1", type=float, default=0.5)
    p.add_argument("--sigma2", type=float, default=0.5)
    p.add_argument("--rho", type=float, default=-1.0)
    p.add_argument("--transform", default="none",
                   choices=["none", "pow"] + [f.value for f in Family])
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--x-min", type=float, default=-2.0)
    p.add_argument("--x-max", type=float, default=6.0)
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--log-grid", action="store_true")
    p.add_argument("--out", type=_output_path, required=True)
    p.set_defaults(run=_run_density)

    p = sub.add_parser("simulate", help="simulate a price path to CSV")
    p.add_argument("--model", choices=["ratio", "gbm"], default="ratio")
    p.add_argument("--mu1", type=float, default=1.0)
    p.add_argument("--mu2", type=float, default=1.0)
    p.add_argument("--sigma1", type=float, default=0.35)
    p.add_argument("--sigma2", type=float, default=0.35)
    p.add_argument("--rho", type=float, default=-1.0)
    p.add_argument("--family", default="sym",
                   choices=[f.value for f in Family])
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--p0", type=float, default=1.0)
    p.add_argument("--policy", choices=[x.value for x in RejectionPolicy],
                   default="resample")
    p.add_argument("--mu", type=float, default=0.05, help="gbm drift")
    p.add_argument("--sigma", type=float, default=0.2, help="gbm volatility")
    p.add_argument("--out", type=_output_path, required=True)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--threads", type=_threads,
                   help="threads that draw the path and format its CSV "
                        "(default: the usable CPUs); never changes results")
    p.set_defaults(run=_run_simulate)

    p = sub.add_parser("tails", help="classify the tail of a sample")
    p.add_argument("--samples", type=_input_path,
                   help="single-column value CSV")
    p.add_argument("--prices", type=_input_path,
                   help="t,price CSV to convert to returns")
    p.add_argument("--as-returns", type=float, default=None,
                   help="return sampling scale for --prices")
    p.add_argument("--candidates", default="power,exp")
    p.add_argument("--threshold-quantile", type=float, default=0.99)
    p.add_argument("--side", choices=["abs", "right", "left"], default="abs")
    p.add_argument("--out", type=_output_path)
    p.add_argument("--csv", type=_output_path,
                   help="write the threshold sweep as CSV rows")
    p.set_defaults(run=_run_tails)

    p = sub.add_parser("fit", help="recover the response family from prices")
    p.add_argument("--prices", type=_input_path, required=True)
    p.add_argument("--delta-t", type=float, required=True)
    p.add_argument("--big-delta-t", type=float, required=True)
    p.add_argument("--stride", type=float, required=True)
    p.add_argument("--candidates", default="power,log")
    p.add_argument("--threshold-quantile", type=float, default=0.998)
    p.add_argument("--rho", type=float, default=-1.0,
                   help="correlation of the order-flow pair, in [-1, 1)")
    p.add_argument("--interpolate", action="store_true")
    p.add_argument("--boot", type=int, default=None)
    p.add_argument("--out", type=_output_path)
    p.add_argument("--overlay", type=_output_path)
    p.add_argument("--csv", type=_output_path,
                   help="write the result as a CSV row")
    p.set_defaults(run=_run_fit)

    p = sub.add_parser("replay", help="re-run a saved manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None,
                   help="override the output path; the run's other outputs "
                        "go to OUT.csv and OUT.overlay")
    p.add_argument("--threads", type=_threads,
                   help="--threads of a replayed simulate")
    p.set_defaults(run=_run_replay)

    return parser


def main(argv=None) -> int:
    try:
        return _execute(build_parser(), argv)
    except NonIdentifiableError as exc:
        print(f"non-identifiable: {exc}", file=sys.stderr)
        for name, score in sorted(exc.scores.items()):
            print(f"  score {name} = {score:.6f}", file=sys.stderr)
        return 3
    except RatioTailsError as exc:
        if isinstance(exc, ValueError):  # the package's bad-input errors
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
