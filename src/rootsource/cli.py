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
from .fitting import PriorConfig, _default_init, _structure_for, fit, jitter_init
from .metrics import evaluate_root_probabilities
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


def _comma_list(value, flag: str, kind=int) -> list:
    """Entries of a comma list such as "1,2,3"; a malformed entry is a ValidationError."""
    try:
        return [kind(v) for v in str(value).split(",") if v.strip()]
    except ValueError:
        raise ValidationError(
            f"{flag} must be a comma list of {kind.__name__}s, got {value!r}") from None


def _in(path):
    return sys.stdin if path == "-" else path


def _out(path):
    return sys.stdout if path == "-" else path


@click.group()
@click.option("--seed", type=click.IntRange(min=0), default=None,
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
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
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
    if mean_lengths is not None:
        lengths = np.array(_comma_list(mean_lengths, "--mean-lengths", float))
    else:
        lengths = 10.0 * np.arange(1, S + 1)
    params = make_synthetic_params(S=S, V=V, seed=seed, rho=rho, diag=diag,
                                   offdiag=offdiag, gamma=gamma, nu=nu)
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
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Randomize the initial point (off by default).")
@click.option("--params-out", default="-", show_default=True)
@click.option("--trace-out", default=None, help="ELBO trace CSV output path.")
@click.pass_context
def fit_cmd(ctx, config, events_in, empirical_bayes, c, nu, tol, max_iters,
            window, seed, params_out, trace_out):
    """Fit (rho, A, theta, gamma) by variational EM."""
    seed = _resolve_seed(ctx, seed)
    _echo_config(ctx)
    events = dataio.read_events(_in(events_in))
    # the layout and its memory check before the S-sized prior; held here, so
    # that fit finds and reuses it
    layout = _structure_for(events, nu, window)
    if empirical_bayes:
        prior = PriorConfig.empirical_bayes(events, c=c)
    else:
        prior = PriorConfig.maximum_likelihood(events.S)
    init = None
    if seed is not None:
        init = jitter_init(_default_init(events, prior, nu), seed)
    report = fit(events, init=init, prior=prior, tol=tol, max_iters=max_iters,
                 window=window, nu=nu)
    click.echo(f"[fit] {report.iterations} iterations, "
               f"converged={report.converged}, "
               f"elbo={report.elbo_trace[-1]:.6f}", err=True)
    if report.window_dropped_max is not None:
        click.echo(f"[fit] the window dropped at most {report.window_dropped_max:.3g} "
                   f"(mean {report.window_dropped_mean:.3g}) of an event's "
                   f"excitation intensity", err=True)
    dataio.write_params(report.params, _out(params_out))
    if trace_out:
        dataio.write_trace(report.elbo_trace, trace_out)


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

    Solves r_i = eta_i0 e_{s_i} + sum_j eta_ij r_j over the E-step posteriors,
    a block of rows at a time.
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
    k_list = _comma_list(ks, "--ks")
    rpm = dataio.read_rootprob(rootprob_in)
    truth = dataio.read_truth(truth_in)
    p_est = dataio.read_params(est_params) if est_params else None
    p_true = dataio.read_params(true_params) if true_params else None
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
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", default=None, help="Rows as JSON output path.")
@click.pass_context
def bench(ctx, config, scales, window, exact, sweeps, seed, out):
    """Time the simulator, fit sweeps and the root-probability pass across sizes.

    Drawing each size's input and the structure build have their own columns,
    and each sweep is split into the E-step, the (rho, A) and the (theta,
    gamma) M-steps, each timed as its fastest over the sweeps.  One objective
    evaluation on the last sweep's state has its own column.  The root pass
    reuses the sweeps' pair layout, as a root pass after a fit does, so its
    time excludes the build.  It runs at the last M-step's parameters, so it
    computes its E-step.  Each row also counts the candidate pairs and
    token-overlap triples, the MiB of the structure's arrays, and gives the
    process's peak RSS so far.  Before the scales, the cold start of a CLI
    command (a fresh interpreter importing rootsource.cli) is timed as the
    median of three.
    """
    seed = _resolve_seed(ctx, seed)
    _echo_config(ctx)
    report = run_bench(_comma_list(scales, "--scales"), window=None if exact else window,
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
        dataio.write_bench(report, out)


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
