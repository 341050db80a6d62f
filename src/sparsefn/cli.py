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
import functools
import math
import sys

import numpy as np

from ._version import __version__
from .config import ConfigError, parse_config
from .estimators import VARIANTS, EstimationInput, linear_test
from .loading import LoadingSpec, LoadingVector, drop_zero_loadings, make_loading
from .lowerbound import build_prior, chi2_mixture_bound, prior_moments, sample_prior
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


def _add_loading_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loading-spec", choices=["homogeneous", "two_phase", "exp_decay"],
                   help="generated loading family")
    p.add_argument("--d", type=int, help="dimension for a generated loading")
    p.add_argument("--gamma-d", type=_finite_float, help="two_phase head-count exponent")
    p.add_argument("--gamma-lambda", type=_finite_float, help="two_phase head-value exponent")
    p.add_argument("--c", type=_finite_float,
                   help="exp_decay scale of the decay profile c*x^gamma")
    p.add_argument("--gamma", type=_finite_float, help="exp_decay exponent (>= 1)")
    p.add_argument("--loading-file", help="explicit loading, one float per line")
    p.add_argument("--drop-zeros", action="store_true",
                   help="drop zero entries from --loading-file before validation")


def _loading_from_args(args) -> tuple[LoadingVector, LoadingSpec | None]:
    if args.loading_file:
        raw = values = _read_floats(args, "loading_file")
        if args.drop_zeros:
            values, kept = drop_zero_loadings(raw)
            dropped = raw.size - kept.size
            if dropped:
                print(f"dropped {dropped} zero loadings", file=sys.stderr)
        spec = LoadingSpec(kind="explicit", values=tuple(float(v) for v in values))
        return make_loading(spec), spec
    if not args.loading_spec:
        raise CliError("one of --loading-spec or --loading-file is required")
    if args.d is None:
        raise CliError("--d is required with --loading-spec")
    spec = LoadingSpec(kind=args.loading_spec, d=args.d, gamma_d=args.gamma_d,
                       gamma_lambda=args.gamma_lambda, c=args.c, gamma=args.gamma)
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
    loading, _spec = _loading_from_args(args)
    if args.equation == "oracle":
        if args.target is not None:
            target = args.target
        elif args.s is not None:
            target = args.s / 2.0
        else:
            raise CliError("oracle equation needs --s or --target")
        sol = solve_beta(loading, args.alpha, target)
    elif args.equation == "adaptive":
        if args.s is None:
            raise CliError("adaptive equation needs --s")
        sol = solve_adaptive_beta(loading, args.alpha, args.s)
    else:
        if args.s is None:
            raise CliError("asym equation needs --s")
        sol = solve_lambda_H(loading, args.alpha, args.s)
    payload = sol.to_dict()
    payload["meta"] = meta(_params(args))
    _emit(payload, args.out)
    return 0


def _rate_row(calc: RateCalculator, spec: LoadingSpec | None, alpha: float, s: int) -> dict:
    prof = calc.oracle(s)
    adp = calc.adaptive(s)
    closed = closed_form_for_spec(spec, calc.loading, alpha, s) if spec is not None else None
    return {
        "s": s,
        "beta": prof.beta,
        "lambda_o": prof.lambda_o,
        "nu": prof.nu,
        "j1": prof.j1,
        "phi_o": prof.phi_o,
        "lambda_star": adp.lambda_star,
        "nu_star": adp.nu_star,
        "phi_star": adp.phi_star,
        "phi_adp": adp.phi_adp,
        "closed_form": closed,
        "ratio": (prof.phi_o / closed) if closed else None,
    }


def _cmd_rate(args) -> int:
    loading, spec = _loading_from_args(args)
    if spec is not None and spec.kind == "explicit":
        spec = None
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


def _input_from_args(args, loading: LoadingVector) -> EstimationInput:
    y = _read_floats(args, "y_file")
    sigma = None if args.sigma_unknown else args.sigma
    return EstimationInput(y, loading, args.alpha, args.tau, sigma=sigma,
                           kappa=args.kappa)


def _cmd_estimate(args) -> int:
    loading, _spec = _loading_from_args(args)
    inp = _input_from_args(args, loading)
    variant = VARIANTS[args.variant]
    if variant.needs_s and args.s is None:
        raise CliError(f"--variant {args.variant} needs --s")
    res = variant.run(inp, args.s, None, zeta=args.zeta, c_h=args.c_h,
                      gamma_split=args.gamma_split, shuffle_seed=args.shuffle_blocks)
    payload = {
        "value": res.value,
        "s_used": res.s_used,
        "threshold": res.threshold,
        "kept_indices": list(res.kept_indices),
        "variant": res.variant,
        "meta": meta(_params(args)),
    }
    _emit(payload, args.out)
    return 0


def _cmd_test(args) -> int:
    loading, _spec = _loading_from_args(args)
    inp = _input_from_args(args, loading)
    if args.s is None:
        raise CliError("test needs --s")
    if args.variant != "oracle":
        raise CliError("the test statistic is defined through the known-sparsity "
                       "thresholding estimator; only --variant oracle is supported")
    res = linear_test(inp, args.s, args.t0, args.B)
    payload = {"decision": res.decision, "statistic": res.statistic,
               "threshold": res.threshold,
               "meta": meta(_params(args))}
    _emit(payload, args.out)
    return 0


def _cmd_prior(args) -> int:
    loading, _spec = _loading_from_args(args)
    prior = build_prior(loading, args.alpha, args.s, args.c1, args.c_alpha2)
    mom = prior_moments(prior)
    bound = chi2_mixture_bound(prior, args.alpha, args.c_alpha1)
    payload = {
        "s": prior.s,
        "c1": prior.c1,
        "c_alpha2": prior.c_alpha2,
        "lambda_o": prior.lambda_o,
        "nu": prior.nu,
        "sum_pi": float(prior.pi.sum()),
        "moments": {"mean_support": mom.mean_support, "var_support": mom.var_support,
                    "mean_L": mom.mean_L, "var_L": mom.var_L},
        "chi2_bound": bound.bound,
        "tv_bound": bound.tv_bound,
        "meta": meta(_params(args), args.seed),
    }
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

@functools.cache  # built on the first main() call, not at import
def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsefn",
                     description="Minimax and adaptive estimation of sparse linear functionals")
    parser.add_argument("--version", action="version", version=f"sparsefn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a threshold equation")
    _add_loading_args(p)
    p.add_argument("--alpha", type=_finite_float, required=True, help="noise tail exponent")
    p.add_argument("--s", type=int, help="sparsity level")
    p.add_argument("--target", type=_finite_float, help="explicit right-hand side (oracle only)")
    p.add_argument("--equation", choices=["oracle", "adaptive", "asym"], default="oracle",
                   help="which implicit equation to solve (default oracle)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("rate", help="compute rate profiles")
    _add_loading_args(p)
    p.add_argument("--alpha", type=_finite_float, required=True, help="noise tail exponent")
    p.add_argument("--s", type=int, help="sparsity level")
    p.add_argument("--csv", action="store_true", help="emit one CSV row per s")
    p.add_argument("--s-grid", help="comma-separated s values for --csv")
    p.add_argument("--out", help="write output here instead of stdout")
    p.set_defaults(func=_cmd_rate)

    for name, helptext in (("estimate", "run one estimator on observations"),
                           ("test", "run the linear-functional test")):
        p = sub.add_parser(name, help=helptext)
        _add_loading_args(p)
        p.add_argument("--variant", default="oracle", choices=VARIANTS,
                       help="estimator variant (default oracle)")
        p.add_argument("--s", type=int, help="sparsity level")
        p.add_argument("--alpha", type=_finite_float, required=True, help="noise tail exponent")
        p.add_argument("--tau", type=_finite_float, required=True, help="noise tail scale")
        p.add_argument("--sigma", type=_finite_float, default=1.0, help="noise level (default 1)")
        p.add_argument("--sigma-unknown", action="store_true",
                       help="treat sigma as unknown (median-of-means route)")
        p.add_argument("--kappa", type=_finite_float, default=1.0,
                       help="threshold multiplier (default 1)")
        p.add_argument("--zeta", type=_finite_float, default=None,
                       help="Lepski band constant (default 1e3 for alpha>=2 else 1e4)")
        p.add_argument("--gamma-split", type=_finite_float, default=0.5,
                       help="median-of-means block fraction (default 0.5)")
        p.add_argument("--shuffle-blocks", type=int, default=None, metavar="SEED",
                       help="permute coordinates with this seed before "
                            "median-of-means blocking (default off)")
        p.add_argument("--c-h", type=_finite_float, default=None,
                       help="nonsym threshold constant (default tau*4^(1/alpha))")
        p.add_argument("--y-file", required=True, help="observations, one float per line")
        p.add_argument("--out", help="write JSON here instead of stdout")
        if name == "test":
            p.add_argument("--t0", type=_finite_float, required=True,
                           help="null value of the functional")
            p.add_argument("--B", type=_finite_float, required=True,
                           help="rejection threshold constant")
            p.set_defaults(func=_cmd_test)
        else:
            p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("prior", help="build the least-favorable prior")
    _add_loading_args(p)
    p.add_argument("--alpha", type=_finite_float, required=True, help="noise tail exponent")
    p.add_argument("--s", type=int, required=True, help="sparsity level")
    p.add_argument("--c1", type=_finite_float, default=0.5,
                   help="activation mass constant (default 0.5)")
    p.add_argument("--c-alpha2", type=_finite_float, default=1.0,
                   help="value scale constant (default 1)")
    p.add_argument("--c-alpha1", type=_finite_float, default=1.0,
                   help="chi-square bound constant (default 1)")
    p.add_argument("--samples", type=int, default=0, help="also draw this many theta vectors")
    p.add_argument("--samples-out", default="prior_samples.txt",
                   help="file for --samples (one vector per line)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--out", help="write JSON here instead of stdout")
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
