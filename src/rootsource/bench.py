"""Runtime-scaling benchmark for the fit sweeps and the root-probability pass.

With a truncation window each E/M sweep touches O(n * w) candidate pairs, so
wall time per sweep should fit a linear model in n; exact mode is O(n^2) and
is reported as quadratic rather than held to a linear bar.  The one-time
PairStructure build is timed separately from the per-sweep cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .fitting import (PairStructure, PriorConfig, _default_init, update_eta,
                      update_rho_alpha, update_theta_gamma)
from .model import ModelParams
from .rootprob import root_probabilities
from .simulate import make_synthetic_config, simulate

__all__ = ["BenchRow", "BenchReport", "run_bench", "linear_fit_r2"]


@dataclass
class BenchRow:
    target: int
    n: int
    build_seconds: float
    sweep_seconds: float
    rootprob_seconds: float


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)
    window: float | None = None
    sweeps: int = 0

    def table(self) -> list:
        mode = "exact" if self.window is None else f"window={self.window:g}"
        out = [f"scaling benchmark ({mode}, {self.sweeps} sweeps per scale)",
               f"{'target':>8} {'events':>8} {'build[s]':>10} "
               f"{'sweep[s]':>10} {'rootprob[s]':>12}"]
        for r in self.rows:
            out.append(f"{r.target:>8} {r.n:>8} {r.build_seconds:>10.3f} "
                       f"{r.sweep_seconds:>10.3f} {r.rootprob_seconds:>12.3f}")
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


def run_bench(scales, window: float | None = 20.0, sweeps: int = 3,
              seed: int = 0, rate: float = 2.5) -> BenchReport:
    """Simulate at each target size; time structure build, E/M sweeps, root pass.

    The root pass is the E-step posteriors + forward substitution.  Scales
    are target event counts; the synthetic setup has stationary rate
    2.5 events per time unit, so T = n / rate.  Sweep timing excludes the
    one-time candidate-structure build, matching how a long fit amortizes it.
    """
    if sweeps < 1:
        raise ValidationError("sweeps must be at least 1")
    report = BenchReport(window=window, sweeps=sweeps)
    for target in scales:
        if target <= 0:
            raise ValidationError("scales must be positive event counts")
        cfg = make_synthetic_config(T=target / rate, seed=seed)
        events, _ = simulate(cfg)
        prior = PriorConfig.maximum_likelihood(events.S)
        params = _default_init(events, prior, cfg.params.nu, None,
                               cfg.params.mark_impact)

        t0 = time.perf_counter()
        structure = PairStructure(events, params.nu, window=window)
        build = time.perf_counter() - t0

        t0 = time.perf_counter()
        for _ in range(sweeps):
            state = update_eta(events, params, structure)
            rho, A = update_rho_alpha(events, state, prior)
            theta, gamma = update_theta_gamma(events, state,
                                              (params.theta, params.gamma))
            params = ModelParams(rho=rho, A=A, theta=theta, gamma=gamma,
                                 nu=params.nu)
        sweep = (time.perf_counter() - t0) / sweeps

        t0 = time.perf_counter()
        root_probabilities(events, params, window=window)
        rootprob = time.perf_counter() - t0

        report.rows.append(BenchRow(target=target, n=len(events),
                                    build_seconds=build, sweep_seconds=sweep,
                                    rootprob_seconds=rootprob))
    return report
