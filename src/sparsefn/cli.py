"""Command-line entry point: solve / rate / estimate / test / prior / simulate.

Exit codes: 0 success, 1 input error, 2 numerical failure (solver bracket
cap); a failure inside a simulation exits with the code of its cause.  Every
output embeds {tool_version, config_hash, seed} from ``sim.meta`` so any
artifact can be reproduced from its own metadata: a command hashes its parsed
arguments except the output paths and ``--workers``, each input file by the
floats read from it; ``simulate`` hashes the parsed config.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from ._version import __version__
from .config import _CHOICES, ConfigError, parse_config
from .estimators import VARIANTS, EstimationInput, EstimatorSpec, linear_test
from .loading import (LOADING_KINDS, LoadingSpec, LoadingVector, drop_zero_loadings, make_loading,
                      spec_schema)
from .lowerbound import (C_ALPHA1, THETA_KINDS, ThetaSpec, build_prior, chi2_mixture_bound,
                         prior_moments, sample_prior)
from .rates import RateCalculator, closed_form_for_spec
from .sim import SimulationError, SimulationReport, meta, risk_grid, strict_json
from .threshold import BracketError, solve_adaptive_beta, solve_beta, solve_lambda_H

__all__ = ["main", "console_main"]


class CliError(ValueError):
    """User input error; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        raise CliError(message)


_UNHASHED = ("func", "out", "samples_out", "workers")


def _params(args) -> dict:
    """The parsed arguments that decide an output: all but where it goes."""
    return {k: v for k, v in vars(args).items() if k not in _UNHASHED}


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None) -> None:
    _write(strict_json(payload, indent=2, sort_keys=True) + "\n", out)


def _finite_float(text: str) -> float:
    """argparse type of every float option: NaN and +-inf are input errors."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _int_list(text: str) -> str:
    """argparse type of ``--s-grid``: comma-separated integers, kept as
    written, since the output's hash reads the option as given."""
    try:
        [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma-separated integers: {text!r}") from None
    return text


_OPTION_TYPES = {int: int, float: _finite_float, str: str}
_RESOLVED = {"zeta": "1e3 for alpha >= 2, else 1e4", "c_h": "tau * 4^(1/alpha)"}


def _add_spec_args(p: argparse.ArgumentParser, cls, section: str, keys,
                   row: dict | None = None) -> None:
    """An option ``--<key>`` for each field ``key`` of the spec dataclass
    ``cls`` (the config's ``<section>.<key>``) with the type and default of
    its ``loading.spec_schema`` and the choices of ``config._CHOICES``.  A
    kind table's ``row`` replaces the defaults, and a None in it makes the
    option required."""
    for key in keys:
        name, hint, default = spec_schema(cls)[key]
        if row is not None:
            default = row[key]
        shown = "%(default)s" if default is not None else _RESOLVED.get(key)
        p.add_argument("--" + key.replace("_", "-"), type=_OPTION_TYPES[hint],
                       choices=_CHOICES.get((cls, name)),
                       default=default, required=row is not None and default is None,
                       help=f"as {section}.{key} in a config"
                            + (f" (default {shown})" if shown else ""))


def _spec(cls, args, **fields):
    """The spec dataclass ``cls`` of ``fields`` and of the options that
    ``_add_spec_args`` made for its other fields.  A ValueError whose message
    names a field first is an input error under that field's option."""
    fields = {k: v for k, v in vars(args).items() if k in spec_schema(cls)} | fields
    try:
        return cls(**fields)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        name = name.rstrip(":")
        if name not in fields:
            raise
        option = "--loading-file" if name == "values" else "--" + name.replace("_", "-")
        raise CliError(f"argument {option}: {rest}") from exc


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    """The options of every command but ``simulate``: the loading, the noise
    tail exponent and the output file."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--loading-spec", choices=[k for k in LOADING_KINDS if k != "explicit"],
                        help="generated loading family")
    source.add_argument("--loading-file", help="explicit loading, one float per line")
    p.add_argument("--drop-zeros", action="store_true",
                   help="drop zero entries from --loading-file before validation")
    _add_spec_args(p, LoadingSpec, "loading", ("d", "gamma_d", "gamma_lambda", "c", "gamma"))
    p.add_argument("--alpha", type=_finite_float, required=True, help="noise tail exponent")
    p.add_argument("--out", help="write the output here instead of stdout")


def _loading_from_args(args) -> tuple[LoadingVector, LoadingSpec]:
    if not args.loading_file:
        if args.drop_zeros:
            raise CliError("argument --drop-zeros: requires --loading-file")
        spec = _spec(LoadingSpec, args, kind=args.loading_spec)
        return make_loading(spec), spec
    values = raw = _read_floats(args, "loading_file")
    if args.drop_zeros:
        values, kept = drop_zero_loadings(raw)
        if kept.size < raw.size:
            print(f"dropped {raw.size - kept.size} zero loadings", file=sys.stderr)
    spec = _spec(LoadingSpec, args, kind="explicit", values=tuple(values.tolist()))
    return make_loading(spec), spec


def _read_floats(args, name: str) -> np.ndarray:
    """The floats, one per line, of the file that ``args.<name>`` names.  They
    replace the path in ``args``, so the output's hash counts what was read."""
    path = getattr(args, name)
    vals = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    vals.append(_finite_float(line.strip()))
    except OSError as exc:
        raise CliError(f"cannot read floats from {path}: {exc}") from exc
    except argparse.ArgumentTypeError as exc:
        raise CliError(f"cannot read floats from {path}: line {lineno}: {exc}") from exc
    setattr(args, name, vals)
    return np.asarray(vals, dtype=float)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    if args.target is not None and args.equation != "oracle":
        raise CliError(f"argument --target: not read by equation {args.equation!r}")
    loading, _ = _loading_from_args(args)
    if args.s is None and (args.equation != "oracle" or args.target is None):
        needs = "--s or --target" if args.equation == "oracle" else "--s"
        raise CliError(f"{args.equation} equation needs {needs}")
    if args.equation == "oracle":
        target = args.target if args.target is not None else args.s / 2.0
        sol = solve_beta(loading, args.alpha, target)
    else:
        solve = solve_adaptive_beta if args.equation == "adaptive" else solve_lambda_H
        sol = solve(loading, args.alpha, args.s)
    payload = sol.to_dict()
    payload["meta"] = meta(_params(args))
    _emit(payload, args.out)
    return 0


def _rate_row(calc: RateCalculator, spec: LoadingSpec, alpha: float, s: int) -> dict:
    prof, adp = calc.oracle(s), calc.adaptive(s)
    closed = closed_form_for_spec(spec, calc.loading, alpha, s)
    return {"s": s, **{k: getattr(prof, k) for k in ("beta", "lambda_o", "nu", "j1", "phi_o")},
            **{k: getattr(adp, k) for k in ("lambda_star", "nu_star", "phi_star", "phi_adp")},
            "closed_form": closed, "ratio": (prof.phi_o / closed) if closed else None}


def _cmd_rate(args) -> int:
    if args.s_grid is not None and not args.csv:
        raise CliError("argument --s-grid: not read without --csv")
    if args.s_grid is not None and args.s is not None:
        raise CliError("argument --s: not read with --s-grid")
    loading, spec = _loading_from_args(args)
    calc = RateCalculator(loading, args.alpha)
    if args.csv:
        if args.s_grid:
            grid = [int(x) for x in args.s_grid.split(",")]
        else:
            grid = [args.s] if args.s is not None else list(range(1, min(loading.d, 32) + 1))
        rows = [_rate_row(calc, spec, args.alpha, s) for s in grid]
        report = SimulationReport("rate", list(rows[0]), rows, meta(_params(args)))
        _write(report.to_csv(), args.out)
        return 0
    if args.s is None:
        raise CliError("rate needs --s (or --csv with --s-grid)")
    payload = _rate_row(calc, spec, args.alpha, args.s)
    payload["s_star"] = calc.s_star()
    payload["s0"] = calc.s0()
    payload["meta"] = meta(_params(args))
    _emit(payload, args.out)
    return 0


def _input_from_args(args, sigma: float | None) -> tuple[EstimationInput, EstimatorSpec]:
    """The observations and the estimator knobs that ``args`` sets."""
    spec = _spec(EstimatorSpec, args)
    loading, _ = _loading_from_args(args)
    y = _read_floats(args, "y_file")
    return EstimationInput(y, loading, args.alpha, args.tau, sigma=sigma,
                           kappa=spec.kappa), spec


def _cmd_estimate(args) -> int:
    inp, spec = _input_from_args(args, None if args.sigma_unknown else args.sigma)
    variant = VARIANTS[spec.variant]
    if variant.needs_s and spec.s is None:
        raise CliError(f"--variant {spec.variant} needs --s")
    res = variant.run(inp, spec.s, None, zeta=spec.zeta, c_h=spec.c_h,
                      gamma_split=spec.gamma_split, shuffle_seed=args.shuffle_blocks)
    payload = {k: getattr(res, k) for k in ("value", "s_used", "threshold", "variant")}
    payload.update(kept_indices=list(res.kept_indices), meta=meta(_params(args)))
    _emit(payload, args.out)
    return 0


def _cmd_test(args) -> int:
    inp, spec = _input_from_args(args, args.sigma)
    if spec.s is None:
        raise CliError("test needs --s")
    res = linear_test(inp, spec.s, args.t0, args.B)
    payload = {"decision": res.decision, "statistic": res.statistic,
               "threshold": res.threshold,
               "meta": meta(_params(args))}
    _emit(payload, args.out)
    return 0


def _cmd_prior(args) -> int:
    if args.samples < 0:
        raise CliError(f"argument --samples: must be >= 0, got {args.samples}")
    theta = _spec(ThetaSpec, args, kind="prior")
    loading, _ = _loading_from_args(args)
    prior = build_prior(loading, args.alpha, theta.s, theta.c1, theta.c_alpha2)
    mom = prior_moments(prior)
    bound = chi2_mixture_bound(prior, args.alpha, args.c_alpha1)
    payload = {k: getattr(prior, k) for k in ("s", "c1", "c_alpha2", "lambda_o", "nu")}
    payload.update(sum_pi=float(prior.pi.sum()), moments=dataclasses.asdict(mom),
                   chi2_bound=bound.bound, tv_bound=bound.tv_bound,
                   meta=meta(_params(args), args.seed))
    if args.samples:
        theta = sample_prior(prior, args.seed, size=args.samples)
        with open(args.samples_out, "w", encoding="utf-8") as fh:
            for row in theta:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        payload["samples_written"] = args.samples
        payload["samples_file"] = args.samples_out
    _emit(payload, args.out)
    return 0


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    cfg = parse_config(text)
    report = risk_grid(cfg.sim, cfg.grid)
    _write(report.to_csv() if args.format == "csv" else report.to_json() + "\n", args.out)
    if args.out:
        print(f"wrote {len(report.rows)} rows to {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_observed_args(p: argparse.ArgumentParser, knobs) -> None:
    """The options of a command that reads observations, with the estimator
    knobs ``knobs``."""
    _add_problem_args(p)
    _add_spec_args(p, EstimatorSpec, "estimator", knobs)
    p.add_argument("--tau", type=_finite_float, required=True, help="noise tail scale")
    p.add_argument("--sigma", type=_finite_float, default=EstimationInput.sigma,
                   help="noise level (default %(default)s)")
    p.add_argument("--y-file", required=True, help="observations, one float per line")


@functools.cache  # built on the first main() call, not at import
def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsefn",
                     description="Minimax and adaptive estimation of sparse linear functionals")
    parser.add_argument("--version", action="version", version=f"sparsefn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a threshold equation")
    _add_problem_args(p)
    p.add_argument("--s", type=int, help="sparsity level")
    p.add_argument("--target", type=_finite_float, help="explicit right-hand side (oracle only)")
    p.add_argument("--equation", choices=["oracle", "adaptive", "asym"], default="oracle",
                   help="which implicit equation to solve (default oracle)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("rate", help="compute rate profiles")
    _add_problem_args(p)
    p.add_argument("--s", type=int, help="sparsity level")
    p.add_argument("--csv", action="store_true", help="emit one CSV row per s")
    p.add_argument("--s-grid", type=_int_list, help="comma-separated s values for --csv")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("estimate", help="run one estimator on observations")
    _add_observed_args(p, ("variant", "s", "kappa", "zeta", "gamma_split", "c_h"))
    p.add_argument("--sigma-unknown", action="store_true",
                   help="treat sigma as unknown (median-of-means route)")
    p.add_argument("--shuffle-blocks", type=int, default=None, metavar="SEED",
                   help="permute coordinates with this seed before "
                        "median-of-means blocking (default off)")
    p.set_defaults(func=_cmd_estimate)

    # the test statistic is the known-sparsity (oracle) estimate
    p = sub.add_parser("test", help="run the linear-functional test")
    _add_observed_args(p, ("s", "kappa"))
    p.add_argument("--t0", type=_finite_float, required=True, help="null value of the functional")
    p.add_argument("--B", type=_finite_float, required=True, help="rejection threshold constant")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("prior", help="build the least-favorable prior")
    _add_problem_args(p)
    _add_spec_args(p, ThetaSpec, "theta", ("s", "c1", "c_alpha2"), THETA_KINDS["prior"])
    p.add_argument("--c-alpha1", type=_finite_float, default=C_ALPHA1,
                   help="chi-square bound constant (default %(default)s)")
    p.add_argument("--samples", type=int, default=0, help="also draw this many theta vectors")
    p.add_argument("--samples-out", default="prior_samples.txt",
                   help="file for --samples (one vector per line)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.set_defaults(func=_cmd_prior)

    p = sub.add_parser("simulate", help="run a replicated risk experiment from a config file")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="output format (default csv)")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (BracketError, SimulationError) as exc:
        # a failed replicate exits like the error that failed it
        if isinstance(exc, BracketError) or isinstance(exc.__cause__, BracketError):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
