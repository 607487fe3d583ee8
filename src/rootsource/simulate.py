"""Exact cluster-construction sampler for marked Hawkes processes.

Immigrants arrive per source as a homogeneous Poisson process with rate
rho[s] on [0, T].  Every event e_j then spawns, for each target source s,
Poisson(A[s, s_j] * int_{t_j}^T kappa(t - t_j) dt) offspring whose timestamps
are drawn from the kernel restricted to (t_j, T] by inverse CDF.
Marks are drawn causally: length from a truncated-Poisson length law, then
each token either from theta[s] or (with probability gamma) from the parent's
normalized bag.  The latent branching structure and the per-token inheritance
choices are recorded as ground truth.

Sampling offspring counts directly (instead of Ogata thinning) makes the
ground-truth branching exact by construction and keeps every draw attributable
to a single generator stream, so output is bit-reproducible given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .model import EventSequence, ModelParams

__all__ = [
    "BranchingStructure",
    "GroundTruth",
    "SimConfig",
    "simulate",
    "trace_roots",
    "expected_event_count",
    "make_synthetic_params",
    "make_synthetic_config",
]


@dataclass
class BranchingStructure:
    """Per-event parent assignment: 0 = immigrant, j >= 1 = offspring of event j (1-based)."""

    parent: np.ndarray

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int64)
        idx = np.arange(1, self.parent.size + 1)
        if np.any(self.parent < 0) or np.any(self.parent >= idx):
            raise ValidationError("parent indices must satisfy 0 <= parent(i) < i")


@dataclass
class GroundTruth:
    """Latent branching plus derived root labels for a simulated sequence.

    roots[k] is the source label of the root of event k's tree;
    root_event[k] is that root's 1-based event index; inherited_tokens[k]
    counts how many of event k's tokens were copied from its parent's bag.
    """

    branching: BranchingStructure
    roots: np.ndarray
    root_event: np.ndarray
    inherited_tokens: np.ndarray


@dataclass
class SimConfig:
    params: ModelParams
    T: float
    mean_text_length: np.ndarray
    seed: int = 0
    max_events: int | None = None

    def __post_init__(self):
        self.T = float(self.T)
        if self.T <= 0:
            raise ValidationError("T must be positive")
        means = np.broadcast_to(np.asarray(self.mean_text_length, dtype=np.float64),
                                (self.params.S,)).copy()
        if np.any(means <= 0):
            raise ValidationError("mean text lengths must be positive")
        self.mean_text_length = means


def expected_event_count(params: ModelParams, T: float) -> float:
    """Analytic expected total count of the cluster process on [0, T].

    Uses the branching-process identity E[N] = 1' (I - A)^{-1} m with m the
    expected immigrant counts, ignoring the window-edge truncation of
    offspring (so this slightly overestimates).  Near/above critical A the
    inverse blows up; the value is then only used to size the cascade guard.
    """
    m = np.array([params.rho[s] * T for s in range(params.S)])
    radius = float(np.max(np.abs(np.linalg.eigvals(params.A))))
    if radius < 0.99:
        return float(np.linalg.solve(np.eye(params.S) - params.A, m).sum())
    return float(m.sum() / (1.0 - min(radius, 0.99)))


def _root_positions(parent: np.ndarray) -> np.ndarray:
    """0-based root event position per event; parents always precede children."""
    n = parent.size
    root = np.arange(n)
    for k in range(n):
        p = parent[k]
        if p > 0:
            root[k] = root[p - 1]
    return root


def trace_roots(branching: BranchingStructure, events: EventSequence) -> np.ndarray:
    """Source label of each event's root, following parent links to the tree origin."""
    parent = branching.parent
    if parent.size != len(events):
        raise ValidationError("branching and events disagree on length")
    root = _root_positions(parent)
    return events.sources[root]


def _draw_length(rng: np.random.Generator, mean: float) -> int:
    # Poisson truncated to >= 1; rejection is cheap for any positive mean.
    L = int(rng.poisson(mean))
    while L == 0:
        L = int(rng.poisson(mean))
    return L


def _draw_tokens(rng: np.random.Generator, cum: np.ndarray, size: int) -> np.ndarray:
    toks = np.searchsorted(cum, rng.random(size), side="right")
    return np.minimum(toks, cum.size - 1)


def simulate(config: SimConfig) -> tuple[EventSequence, GroundTruth]:
    """Sample a marked Hawkes sequence with ground-truth branching.

    Deterministic given config.seed: all draws come from one PCG64 stream in
    a fixed order (immigrants by source, then each event's offspring by
    insertion order).  Raises NumericalError if the cascade exceeds the event
    cap (config.max_events, default 50x the analytic expected count).
    """
    params = config.params
    S, V, T = params.S, params.V, config.T
    rng = np.random.default_rng(config.seed)
    nu = params.nu
    theta_cum = np.cumsum(params.theta, axis=1)

    cap = config.max_events
    if cap is None:
        cap = max(1000, int(np.ceil(50.0 * expected_event_count(params, T))))

    t_list: list[float] = []
    s_list: list[int] = []
    parent_list: list[int] = []  # build-order position, -1 for immigrants
    tok_list: list[np.ndarray] = []
    cnt_list: list[np.ndarray] = []
    cum_list: list[np.ndarray] = []  # parent-bag CDF for offspring token draws
    inherited: list[int] = []

    def _add_event(t: float, s: int, parent_pos: int):
        L = _draw_length(rng, config.mean_text_length[s])
        if parent_pos >= 0 and cum_list[parent_pos].size > 0:
            inherit = rng.random(L) < params.gamma
            k = int(inherit.sum())
            toks = np.empty(L, dtype=np.int64)
            if k:
                pcum = cum_list[parent_pos]
                pick = np.searchsorted(pcum, rng.random(k) * pcum[-1], side="right")
                toks[:k] = tok_list[parent_pos][np.minimum(pick, pcum.size - 1)]
            if L - k:
                toks[k:] = _draw_tokens(rng, theta_cum[s], L - k)
        else:
            k = 0
            toks = _draw_tokens(rng, theta_cum[s], L)
        uniq, cnt = np.unique(toks, return_counts=True)
        t_list.append(t)
        s_list.append(s)
        parent_list.append(parent_pos)
        tok_list.append(uniq.astype(np.int32))
        cnt_list.append(cnt.astype(np.float64))
        cum_list.append(np.cumsum(cnt.astype(np.float64)))
        inherited.append(k)
        if len(t_list) > cap:
            raise NumericalError(
                f"cascade exceeded the event cap ({cap}); branching-ratio rows "
                f"of A may be at or above 1 (spectral radius "
                f"{np.max(np.abs(np.linalg.eigvals(params.A))):.3f})")

    # Immigrants: a homogeneous Poisson count, then uniform times.
    for s in range(S):
        n_imm = rng.poisson(params.rho[s] * T)
        times = rng.uniform(0.0, T, size=n_imm)
        for t in times:
            _add_event(float(t), s, -1)

    # Offspring cascade, processed in insertion order.
    idx = 0
    while idx < len(t_list):
        t_j = t_list[idx]
        delta = T - t_j
        if delta > 0:
            pint = 1.0 - np.exp(-delta / nu)
            means = params.A[:, s_list[idx]] * pint
            counts = rng.poisson(means)
            for s in range(S):
                if counts[s]:
                    dts = -nu * np.log1p(-rng.random(counts[s]) * pint)
                    for dt in dts:
                        _add_event(t_j + float(dt), s, idx)
        idx += 1

    n = len(t_list)
    times = np.array(t_list)
    order = np.argsort(times, kind="stable")
    times = times[order]
    if n > 1 and np.any(np.diff(times) <= 0):
        raise NumericalError("duplicate timestamps generated; re-run with another seed")

    pos_of_build = np.empty(n, dtype=np.int64)
    pos_of_build[order] = np.arange(n)
    parent_build = np.array(parent_list, dtype=np.int64)
    parent_sorted = np.where(parent_build[order] >= 0,
                             pos_of_build[parent_build[order]] + 1, 0)

    sources = np.array(s_list, dtype=np.int64)[order]
    toks = [tok_list[b] for b in order]
    cnts = [cnt_list[b] for b in order]
    sizes = np.array([a.size for a in toks], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    tok_index = np.concatenate(toks) if n else np.empty(0, dtype=np.int32)
    tok_count = np.concatenate(cnts) if n else np.empty(0, dtype=np.float64)
    events = EventSequence(times, sources, indptr, tok_index, tok_count, T, S, V)

    branching = BranchingStructure(parent_sorted)
    root_pos = _root_positions(parent_sorted)
    truth = GroundTruth(
        branching=branching,
        roots=sources[root_pos],
        root_event=root_pos + 1,
        inherited_tokens=np.array(inherited, dtype=np.int64)[order],
    )
    return events, truth


def make_synthetic_params(S: int = 5, V: int = 5000, seed: int = 0, rho: float = 0.1,
                          diag: float = 0.4, offdiag: float = 0.1, gamma: float = 0.3,
                          nu: float = 10.0) -> ModelParams:
    """Standard synthetic benchmark parameters with theta ~ Dirichlet(1) rows.

    Defaults: S=5 sources with base multiplier 0.1, excitation matrix with
    0.4 on the diagonal and 0.1 off it (row sum 0.8 = branching ratio),
    inheritance rate 0.3, bandwidth 10.  Dirichlet(1) rows are drawn as
    normalized unit-rate exponentials from the given seed.
    """
    rng = np.random.default_rng(seed)
    theta = rng.exponential(size=(S, V))
    theta /= theta.sum(axis=1, keepdims=True)
    A = np.full((S, S), offdiag)
    np.fill_diagonal(A, diag)
    return ModelParams(rho=np.full(S, rho), A=A, theta=theta, gamma=gamma, nu=nu)


def make_synthetic_config(T: float, seed: int = 0, params: ModelParams | None = None,
                          **param_kwargs) -> SimConfig:
    """SimConfig for the synthetic benchmark: mean text lengths 10, 20, ..., 10*S."""
    if params is None:
        params = make_synthetic_params(seed=seed, **param_kwargs)
    means = 10.0 * (1 + np.arange(params.S))
    return SimConfig(params=params, T=T, mean_text_length=means, seed=seed)
