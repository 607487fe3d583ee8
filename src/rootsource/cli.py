"""Unified command line: simulate, fit, root-prob, baseline, evaluate, bench.

Exit codes: 0 success, 2 validation/usage error, 3 numerical failure.  Every
subcommand accepts --config with a flat key=value file mirroring its flags
(explicit flags win) and prints its resolved configuration to stderr.  Event
streams read from/write to stdin/stdout when a path is '-'.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from . import dataio
from .baselines import running_window
from .bench import run_bench
from .errors import NumericalError, ValidationError
from .fitting import PriorConfig, _default_init, fit, jitter_init
from .metrics import evaluate_root_probabilities
from .model import unit_mark_impact
from .rootprob import (root_probabilities, root_probabilities_mark,
                       root_probabilities_temporal)
from .simulate import SimConfig, make_synthetic_params
from .simulate import simulate as run_simulation


def _config_callback(ctx, param, value):
    if value:
        cfg = dataio.read_config(value)
        # default_map is keyed by parameter name, so translate flag spellings
        # ("--mean-lengths" or "--events") to their destinations
        names = {}
        for p in ctx.command.params:
            for opt in getattr(p, "opts", ()):
                names[opt.lstrip("-").replace("-", "_")] = p.name
        unknown = [k for k in cfg
                   if k.replace("-", "_") not in names
                   and k.replace("-", "_") not in {p.name for p in ctx.command.params}]
        if unknown:
            raise click.UsageError(
                f"unknown config key(s) for {ctx.info_name}: {', '.join(sorted(unknown))}")
        normalized = {names.get(k.replace("-", "_"), k.replace("-", "_")): v
                      for k, v in cfg.items()}
        ctx.default_map = {**(ctx.default_map or {}), **normalized}
    return value


def _config_option():
    return click.option("--config", type=click.Path(exists=True, dir_okay=False),
                        callback=_config_callback, is_eager=True,
                        help="Flat key=value file; explicit flags override it.")


def _echo_config(ctx):
    pairs = " ".join(f"{k}={v}" for k, v in sorted(ctx.params.items())
                     if k != "config")
    click.echo(f"[{ctx.info_name}] {pairs}", err=True)


def _in(path):
    return sys.stdin if path == "-" else path


def _out(path):
    return sys.stdout if path == "-" else path


@click.group()
@click.option("--seed", type=int, default=None,
              help="Global seed; overrides per-command seeds.")
@click.pass_context
def cli(ctx, seed):
    ctx.obj = {"seed": seed}


def _resolve_seed(ctx, local_seed):
    g = (ctx.obj or {}).get("seed")
    return g if g is not None else local_seed


@cli.command()
@_config_option()
@click.option("--T", "T", type=float, required=True, help="Observation window length.")
@click.option("--S", "S", type=int, default=5, show_default=True)
@click.option("--V", "V", type=int, default=5000, show_default=True)
@click.option("--rho", type=float, default=0.1, show_default=True)
@click.option("--diag", type=float, default=0.4, show_default=True,
              help="Self-excitation A[s,s].")
@click.option("--offdiag", type=float, default=0.1, show_default=True,
              help="Cross-excitation A[s,s'].")
@click.option("--gamma", type=float, default=0.3, show_default=True)
@click.option("--nu", type=float, default=10.0, show_default=True)
@click.option("--mean-lengths", type=str, default=None,
              help="Comma list of per-source mean text lengths; default 10,20,...,10S.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-events", type=int, default=None)
@click.option("--events", "events_out", default="-", show_default=True,
              help="Event JSONL output ('-' = stdout).")
@click.option("--truth", "truth_out", default=None,
              help="Ground-truth sidecar JSONL output path.")
@click.option("--params-out", default=None,
              help="Generating-parameters JSON output path.")
@click.pass_context
def simulate(ctx, config, T, S, V, rho, diag, offdiag, gamma, nu, mean_lengths,
             seed, max_events, events_out, truth_out, params_out):
    """Sample a synthetic event sequence with its latent branching structure."""
    seed = _resolve_seed(ctx, seed)
    _echo_config(ctx)
    params = make_synthetic_params(S=S, V=V, seed=seed, rho=rho, diag=diag,
                                   offdiag=offdiag, gamma=gamma, nu=nu)
    if mean_lengths is not None:
        lengths = np.array([float(v) for v in str(mean_lengths).split(",")])
    else:
        lengths = 10.0 * np.arange(1, S + 1)
    cfg = SimConfig(params=params, T=T, mean_text_length=lengths, seed=seed,
                    max_events=max_events)
    events, truth = run_simulation(cfg)
    click.echo(f"[simulate] generated {len(events)} events over T={T:g}", err=True)
    dataio.write_events(events, _out(events_out))
    if truth_out:
        dataio.write_truth(truth, truth_out)
    if params_out:
        dataio.write_params(params, params_out)


@cli.command(name="fit")
@_config_option()
@click.option("--events", "events_in", default="-", show_default=True,
              help="Event JSONL input ('-' = stdin).")
@click.option("--empirical-bayes/--ml", "empirical_bayes", default=False,
              show_default=True, help="Prior mode.")
@click.option("--c", "c", type=float, default=0.1, show_default=True,
              help="Expected immigrant proportion for the empirical-Bayes prior.")
@click.option("--nu", type=float, required=True, help="Kernel bandwidth.")
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--max-iters", type=int, default=200, show_default=True)
@click.option("--truncate-window", "window", type=float, default=None,
              help="Keep candidate parents within window*nu; exact when absent.")
@click.option("--seed", type=int, default=None,
              help="Randomize the initial point (off by default).")
@click.option("--params-out", default="-", show_default=True)
@click.option("--eta-out", default=None, help="Posterior npz output path.")
@click.option("--trace-out", default=None, help="ELBO trace CSV output path.")
@click.pass_context
def fit_cmd(ctx, config, events_in, empirical_bayes, c, nu, tol, max_iters,
            window, seed, params_out, eta_out, trace_out):
    """Fit (rho, A, theta, gamma) by variational EM."""
    seed = _resolve_seed(ctx, seed)
    _echo_config(ctx)
    events = dataio.read_events(_in(events_in))
    if empirical_bayes:
        prior = PriorConfig.empirical_bayes(events, c=c)
    else:
        prior = PriorConfig.maximum_likelihood(events.S)
    init = None
    if seed is not None:
        init = jitter_init(_default_init(events, prior, nu, None, unit_mark_impact),
                           seed)
    report = fit(events, init=init, prior=prior, tol=tol, max_iters=max_iters,
                 window=window, nu=nu)
    click.echo(f"[fit] {report.iterations} iterations, "
               f"converged={report.converged}, "
               f"elbo={report.elbo_trace[-1]:.6f}", err=True)
    dataio.write_params(report.params, _out(params_out))
    if eta_out:
        dataio.write_eta(report.eta, eta_out)
    if trace_out:
        with open(trace_out, "w") as fp:
            fp.write("iteration,elbo\n")
            for k, v in enumerate(report.elbo_trace.tolist(), start=1):
                fp.write(f"{k},{v!r}\n")


@cli.command(name="root-prob")
@_config_option()
@click.option("--events", "events_in", default="-", show_default=True)
@click.option("--params", "params_in", required=True,
              help="Model-parameters JSON input.")
@click.option("--mode", type=click.Choice(["full", "temporal", "mark"]),
              default="full", show_default=True)
@click.option("--truncate-window", "window", type=float, default=None)
@click.option("--out", default="-", show_default=True, help="CSV output.")
@click.pass_context
def root_prob(ctx, config, events_in, params_in, mode, window, out):
    """Compute per-event root-source probabilities.

    Uses the E-step posteriors + forward substitution.
    """
    _echo_config(ctx)
    events = dataio.read_events(_in(events_in))
    params = dataio.read_params(params_in)
    compute = {"full": root_probabilities,
               "temporal": root_probabilities_temporal,
               "mark": root_probabilities_mark}[mode]
    rpm = compute(events, params, window=window)
    dataio.write_rootprob(rpm, _out(out))


@cli.command()
@_config_option()
@click.option("--events", "events_in", default="-", show_default=True)
@click.option("--rw", "rw", required=True,
              help="Window size M: a positive integer or 'inf'.")
@click.option("--include-self/--no-include-self", default=False, show_default=True,
              help="Count the event itself inside its own window.")
@click.option("--out", default="-", show_default=True, help="CSV output.")
@click.pass_context
def baseline(ctx, config, events_in, rw, include_self, out):
    """Running-window heuristic RW_M over the same CSV schema as root-prob."""
    _echo_config(ctx)
    events = dataio.read_events(_in(events_in))
    text = str(rw).strip().lower()
    if text in ("inf", "infinity"):
        M = math.inf
    else:
        try:
            M = int(text)
        except ValueError:
            raise ValidationError(f"--rw must be a positive integer or 'inf', got {rw!r}")
    rpm = running_window(events, M, events.S, include_self=include_self)
    dataio.write_rootprob(rpm, _out(out))


@cli.command()
@_config_option()
@click.option("--rootprob", "rootprob_in", required=True, help="Root-prob CSV input.")
@click.option("--truth", "truth_in", required=True, help="Ground-truth sidecar.")
@click.option("--est-params", default=None, help="Fitted-parameters JSON (for RSE).")
@click.option("--true-params", default=None, help="True-parameters JSON (for RSE).")
@click.option("--ks", default="1,2,3", show_default=True,
              help="Comma list of k for top-k accuracy.")
@click.option("--out", default=None, help="Report JSON output path.")
@click.pass_context
def evaluate(ctx, config, rootprob_in, truth_in, est_params, true_params, ks, out):
    """Score a root-probability matrix against ground truth."""
    _echo_config(ctx)
    rpm = dataio.read_rootprob(rootprob_in)
    truth = dataio.read_truth(truth_in)
    p_est = dataio.read_params(est_params) if est_params else None
    p_true = dataio.read_params(true_params) if true_params else None
    k_list = [int(v) for v in str(ks).split(",") if v.strip()]
    report = evaluate_root_probabilities(rpm, truth.root_sources, ks=k_list,
                                         params_est=p_est, params_true=p_true)
    for line in report.lines():
        click.echo(line)
    if out:
        dataio.write_eval(report, out)


@cli.command()
@_config_option()
@click.option("--scales", default="1000,2000,4000,8000", show_default=True,
              help="Comma list of target event counts.")
@click.option("--truncate-window", "window", type=float, default=20.0,
              show_default=True)
@click.option("--exact", is_flag=True, default=False,
              help="Benchmark exact mode (quadratic) instead of the window.")
@click.option("--sweeps", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default=None, help="Rows as JSON output path.")
@click.pass_context
def bench(ctx, config, scales, window, exact, sweeps, seed, out):
    """Time fit sweeps and the root-probability pass across problem sizes."""
    seed = _resolve_seed(ctx, seed)
    _echo_config(ctx)
    scale_list = [int(v) for v in str(scales).split(",") if v.strip()]
    report = run_bench(scale_list, window=None if exact else window,
                       sweeps=sweeps, seed=seed)
    for line in report.table():
        click.echo(line)
    line_fit = report.sweep_fit()
    if line_fit is not None:
        a, b, r2 = line_fit
        if exact:
            click.echo(f"exact mode is O(n^2); linear fit shown for reference: "
                       f"R^2={r2:.4f}")
        else:
            click.echo(f"sweep time vs n: slope={a:.3e}s/event, R^2={r2:.4f}")
    if out:
        import json
        rows = [{"target": r.target, "n": r.n, "build_seconds": r.build_seconds,
                 "sweep_seconds": r.sweep_seconds,
                 "rootprob_seconds": r.rootprob_seconds} for r in report.rows]
        with open(out, "w") as fp:
            json.dump({"schema": "bench-v1", "exact": exact,
                       "sweeps": sweeps, "rows": rows}, fp, indent=2)
            fp.write("\n")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(130)
    except click.UsageError as err:
        err.show()
        sys.exit(2)
    except click.ClickException as err:
        err.show()
        sys.exit(err.exit_code)
    except ValidationError as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(2)
    except OSError as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(2)
    except NumericalError as err:
        click.echo(f"numerical failure: {err}", err=True)
        sys.exit(3)
    return 0


if __name__ == "__main__":
    main()
