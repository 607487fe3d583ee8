"""Runtime-scaling benchmark for the simulator, the fit sweeps and the root pass.

An E/M sweep costs O(kernel cells + overlap pairs + triples), with at most
min(pairs, n 2S) cells: with a truncation window all three grow as n * w,
so wall time per sweep should fit a linear model in n; in exact mode the
overlap pairs and triples grow as n^2, and the sweep is reported as
quadratic rather than held to a linear bar.  The one-time PairStructure
build, with its triples and overlap pairs, is timed separately from the
per-sweep cost, and the fastest sweep is
split into its E-step and its two M-steps; the objective and the argmax
threads (`mini_conversations`) on the last E-step are timed once each.  The
draw of each scale's input by `simulate` has its own column.  The report
also times the cold start: a fresh interpreter importing the command line,
as every CLI command pays.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np

from .errors import ValidationError
from .fitting import PriorConfig, default_init, elbo, update_rho_alpha, update_theta_gamma
from .layout import PairStructure
from .metrics import mini_conversations
from .model import ModelParams
from .posterior import update_eta
from .rootprob import root_probabilities
from .simulate import make_synthetic_config, simulate

__all__ = ["BenchRow", "BenchReport", "run_bench", "linear_fit_r2"]


@dataclass
class BenchRow:
    target: int
    n: int
    simulate_seconds: float
    build_seconds: float
    sweep_seconds: float
    rootprob_seconds: float
    pairs: int
    triples: int
    e_step_seconds: float
    rho_A_seconds: float
    theta_gamma_seconds: float
    objective_seconds: float
    threads_seconds: float  # mini_conversations on the last E-step state
    structure_mb: float  # the PairStructure's arrays, cells included, after the sweeps, MiB
    peak_rss_mb: float | None  # the process's peak RSS after this row


@dataclass
class BenchReport:
    import_seconds: float  # cold start, see _import_seconds()
    rows: list = field(default_factory=list)
    window: float | None = None
    sweeps: int = 0

    def table(self) -> list:
        mode = "exact" if self.window is None else f"window={self.window:g}"
        out = [f"scaling benchmark ({mode}, {self.sweeps} sweeps per scale)",
               f"cold start (import rootsource.cli): {self.import_seconds:.3f} s"]
        out.append(f"{'target':>8} {'events':>8} {'sim[s]':>8} {'build[s]':>10} {'sweep[s]':>10} "
                   f"{'E[s]':>8} {'rhoA[s]':>8} {'thg[s]':>8} {'elbo[s]':>8} {'threads[s]':>10} "
                   f"{'rootprob[s]':>12} "
                   f"{'pairs':>11} {'triples':>11} {'struct[MiB]':>11} {'RSS[MB]':>8}")
        for r in self.rows:
            rss = "-" if r.peak_rss_mb is None else f"{r.peak_rss_mb:.0f}"
            out.append(f"{r.target:>8} {r.n:>8} {r.simulate_seconds:>8.3f} "
                       f"{r.build_seconds:>10.3f} "
                       f"{r.sweep_seconds:>10.3f} {r.e_step_seconds:>8.3f} "
                       f"{r.rho_A_seconds:>8.3f} {r.theta_gamma_seconds:>8.3f} "
                       f"{r.objective_seconds:>8.3f} {r.threads_seconds:>10.4f} "
                       f"{r.rootprob_seconds:>12.3f} {r.pairs:>11} {r.triples:>11} "
                       f"{r.structure_mb:>11.1f} {rss:>8}")
        if not self.rows:
            out.append("(no scales requested)")
        return out

    def sweep_fit(self):
        """Linear fit of per-sweep seconds against n; None with < 2 rows."""
        if len(self.rows) < 2:
            return None
        ns = np.array([r.n for r in self.rows], dtype=np.float64)
        ts = np.array([r.sweep_seconds for r in self.rows])
        return linear_fit_r2(ns, ts)


def linear_fit_r2(x, y):
    """Least-squares line y = a x + b; returns (a, b, r_squared)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2:
        raise ValidationError("need at least two points for a linear fit")
    a, b = np.polyfit(x, y, 1)
    pred = a * x + b
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(a), float(b), r2


def _import_seconds() -> float:
    """Median wall time of three fresh interpreters, one after another, that
    import rootsource.cli: interpreter start plus the package's imports.

    Each child imports this copy of the package, whatever the working
    directory or an installed copy.  subprocess and statistics are imported
    here, their only user, so that `import rootsource` loads neither.
    """
    import statistics
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rootsource.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


RATE = 2.5  # the synthetic setup's stationary events per time unit


def run_bench(scales, window: float | None = 20.0, sweeps: int = 3,
              seed: int = 0) -> BenchReport:
    """Simulate at each target size; time the draw, structure build, E/M sweeps, root pass.

    sweep_seconds is the fastest whole sweep (other work on the host only
    ever adds time), and e_step_seconds, rho_A_seconds and
    theta_gamma_seconds are that sweep's E-step and M-steps.  objective_seconds
    times one `elbo` on the last sweep's state at the last M-step's
    parameters, outside the sweeps: the weights' terms there and at the
    state's own parameters, and the state's masses, nothing per pair (at
    its own parameters, as in `fit`'s trace, `elbo` needs none of these).
    threads_seconds times one `mini_conversations` on
    that state, which reads the E-step's terms, not per-pair posteriors.  The
    root pass is an E-step plus a block forward substitution over the
    posteriors that it builds a block of rows at a time.  Like a root pass
    after `fit`, it reuses the live PairStructure of the sweeps, so
    rootprob_seconds excludes the build, which build_seconds times.  It runs
    at the parameters of the last M-step, which no E-step has seen, so it
    runs its own E-step: the path of a root pass that cannot reuse a fit's
    final E-step.  Each row also counts the layout's candidate pairs and
    token-overlap triples, sums the nbytes of its arrays after the sweeps,
    the lazily built `cells` tuple's included (structure_mb, in MiB), and
    records the process's peak RSS (ru_maxrss, which never decreases) after
    the row.  Scales are target event counts;
    the synthetic setup has stationary rate 2.5 events per time unit, so
    T = n / RATE.  Sweep timing excludes the one-time candidate-structure
    build (with its token-overlap triples and overlap pairs, all built when
    the layout is made), matching how a long fit amortizes it.  The
    report's import_seconds is the median of three cold starts, before any
    scale.
    """
    if sweeps < 1:
        raise ValidationError("sweeps must be at least 1")
    report = BenchReport(window=window, sweeps=sweeps, import_seconds=_import_seconds())
    for target in scales:
        if target <= 0:
            raise ValidationError("scales must be positive event counts")
        cfg = make_synthetic_config(T=target / RATE, seed=seed)
        t0 = time.perf_counter()
        events, _ = simulate(cfg)
        sim = time.perf_counter() - t0
        prior = PriorConfig.maximum_likelihood(events.S)
        params = default_init(events, prior, cfg.params.nu)

        t0 = time.perf_counter()
        structure = PairStructure(events, params.nu, window=window)
        build = time.perf_counter() - t0

        phases = np.zeros((sweeps, 3))
        for k in range(sweeps):
            t0 = time.perf_counter()
            state = update_eta(events, params, structure)
            t1 = time.perf_counter()
            rho, A = update_rho_alpha(events, state, prior)
            t2 = time.perf_counter()
            theta, gamma = update_theta_gamma(events, state,
                                              (params.theta, params.gamma))
            phases[k] = (t1 - t0, t2 - t1, time.perf_counter() - t2)
            params = ModelParams(rho=rho, A=A, theta=theta, gamma=gamma,
                                 nu=params.nu)
        fastest = phases[phases.sum(axis=1).argmin()]
        # the array attributes and the arrays of the lazily built cells tuple
        structure_mb = sum(a.nbytes for v in vars(structure).values()
                           for a in (v if isinstance(v, tuple) else (v,))
                           if isinstance(a, np.ndarray)) / 2.0 ** 20
        e_step, rho_a, theta_gamma = fastest.tolist()

        t0 = time.perf_counter()
        elbo(events, params, state, prior)
        objective = time.perf_counter() - t0
        t0 = time.perf_counter()
        mini_conversations(state, events)
        threads = time.perf_counter() - t0
        del state  # the root pass below computes its own posteriors

        t0 = time.perf_counter()
        root_probabilities(events, params, window=window)
        rootprob = time.perf_counter() - t0

        rss = (None if resource is None
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        report.rows.append(BenchRow(target=target, n=len(events),
                                    simulate_seconds=sim, build_seconds=build,
                                    sweep_seconds=float(fastest.sum()),
                                    rootprob_seconds=rootprob,
                                    pairs=structure.n_pairs,
                                    triples=structure.n_triples,
                                    e_step_seconds=e_step, rho_A_seconds=rho_a,
                                    theta_gamma_seconds=theta_gamma,
                                    objective_seconds=objective,
                                    threads_seconds=threads,
                                    structure_mb=structure_mb, peak_rss_mb=rss))
    return report
