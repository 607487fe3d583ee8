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

The sampler runs in two phases.  Phase 1 (`_draw_stream`) is one sequential
pass that makes every generator call in the stream order of an event-by-event
sampler: immigrants by source, then each event's offspring in insertion order,
every event's length followed by its mark uniforms.  It keeps only scalars per
event and the uniforms.  No draw depends on a mark, so phase 2
(`_resolve_marks`) turns the uniforms into tokens afterwards, with a few
array operations per source and per generation.  The stream order, and so
every output for a given seed, is that of the event-by-event sampler, which
the tests keep as a reference.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._numeric import ragged_ranges, root_positions
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


# numpy's largest Poisson mean: a larger one raises "lam value too large"
POISSON_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


@dataclass
class SimConfig:
    """What `simulate` draws from: parameters, window length, text lengths, seed.

    T is the window length, positive and finite.  mean_text_length gives the
    mean of each source's truncated-Poisson text length, one value for all
    sources or one per source, each positive and finite; it is stored as one
    per source.  Each mean length, and each source's expected immigrant
    count rho[s] T, must be at most numpy's largest Poisson mean
    (POISSON_MAX, about 9.2e18).  The parameters need at least one source
    and one token (every mark draws at least one).  seed is the generator's
    seed, a nonnegative integer, and max_events, when given an integer of at
    least 1, caps the cascade (default: 50 times the expected count).  Each
    violation raises a ValidationError naming the field.
    """

    params: ModelParams
    T: float
    mean_text_length: np.ndarray
    seed: int = 0
    max_events: int | None = None

    def __post_init__(self):
        self.T = float(self.T)
        if not 0 < self.T < np.inf:
            raise ValidationError(f"T must be positive and finite, got {self.T}")
        S, V = self.params.S, self.params.V
        if S < 1:
            raise ValidationError(f"S must be at least 1, got {S}")
        if V < 1:  # every mark draws at least one token
            raise ValidationError(f"V must be at least 1, got {V}")
        means = np.asarray(self.mean_text_length, dtype=np.float64)
        if means.ndim > 1 or means.size not in (1, S):
            raise ValidationError(f"{means.size} mean text lengths given for {S} sources; "
                                  f"give one, or one per source")
        if not np.all((means > 0) & (means < np.inf)):
            raise ValidationError(f"mean text lengths must be positive and finite, "
                                  f"got {means.tolist()}")
        if np.any(means > POISSON_MAX):
            raise ValidationError(f"mean text lengths must be at most numpy's largest Poisson "
                                  f"mean, {POISSON_MAX:.4g}, got {means.tolist()}")
        self.mean_text_length = np.broadcast_to(means, (S,)).copy()
        immigrants = self.params.rho * self.T  # as `_draw_stream` draws them
        if np.any(immigrants > POISSON_MAX):
            s = int(np.argmax(immigrants))
            raise ValidationError(f"T = {self.T} is too long: rho[{s}] T = {immigrants[s]:.4g} "
                                  f"exceeds numpy's largest Poisson mean, {POISSON_MAX:.4g}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        cap = self.max_events
        if cap is not None and not isinstance(cap, numbers.Integral):
            raise ValidationError(f"max_events must be an integer, got {cap!r}")
        if cap is not None and cap < 1:
            raise ValidationError(f"max_events must be at least 1, got {cap}")


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


def trace_roots(branching: BranchingStructure, events: EventSequence) -> np.ndarray:
    """Source label of each event's root, following parent links to the tree origin."""
    parent = branching.parent
    if parent.size != len(events):
        raise ValidationError("branching and events disagree on length")
    root = root_positions(parent)
    return events.sources[root]


def _draw_length(rng: np.random.Generator, mean: float) -> int:
    # Poisson truncated to >= 1; rejection is cheap for any positive mean.
    L = int(rng.poisson(mean))
    while L == 0:
        L = int(rng.poisson(mean))
    return L


# Up to this many excited targets, per-target scalar Poisson calls cost less
# than one array call, whose argument checks cost about 15 scalar calls.
_SCALAR_POISSON_MAX = 16


def _cap_error(cap: int, params: ModelParams) -> NumericalError:
    return NumericalError(
        f"cascade exceeded the event cap ({cap}); branching-ratio rows "
        f"of A may be at or above 1 (spectral radius "
        f"{np.max(np.abs(np.linalg.eigvals(params.A))):.3f})")


def _draw_stream(config: SimConfig, cap: int):
    """Phase 1: every generator draw, in the stream order, keeping only scalars.

    Per source, an immigrant count and uniform times; per immigrant, a length
    L and L mark uniforms.  Then per event in insertion order, which is
    generation order: Poisson offspring counts for every target source it
    excites, then per target the offspring lags, each offspring followed by
    its length L and 2 L mark uniforms.  The event-by-event sampler drew
    those as L inheritance tests, k picks from the parent and L - k theta
    draws; every parent has L >= 1, so the three calls are one block of the
    stream.  The kernel integrals and the lags' times are computed a
    generation at a time with the same elementwise operations as one event
    at a time.

    Returns (times, sources, parent, L, u, gen_start) in insertion order:
    parent -1 for an immigrant, u the mark uniforms concatenated, and the
    events of generation g at gen_start[g]:gen_start[g+1].
    """
    params = config.params
    S, T, nu = params.S, config.T, params.nu
    rng = np.random.default_rng(config.seed)
    poisson, random = rng.poisson, rng.random
    mean_len = config.mean_text_length.tolist()
    times: list[np.ndarray] = []
    s_list: list[int] = []
    parent: list[int] = []
    lengths: list[int] = []
    u: list[np.ndarray] = []

    for s in range(S):
        count = rng.poisson(params.rho[s] * T)
        if len(lengths) + count > cap:  # before the count's times and marks
            raise _cap_error(cap, params)
        t = rng.uniform(0.0, T, size=count)
        for _ in range(t.size):
            L = _draw_length(rng, mean_len[s])
            lengths.append(L)
            u.append(random(L))
        times.append(t)
        s_list += [s] * t.size
    parent += [-1] * len(lengths)

    # per exciting source, the targets it excites and their A entries: a
    # zero mean draws nothing from the stream, so only these are drawn, by
    # scalar calls, or by one array call where that costs less
    targets = [np.flatnonzero(params.A[:, s]) for s in range(S)]
    excite = [params.A[t, s] for s, t in enumerate(targets)]
    scalar = [(t.tolist(), a.tolist()) for t, a in zip(targets, excite)]
    gen_start = [0]
    t_gen = np.concatenate(times)
    while t_gen.size:
        a, b = gen_start[-1], len(lengths)
        gen_start.append(b)
        delta = T - t_gen
        pint = 1.0 - np.exp(-delta / nu)
        lags = []
        for j, (d, p, s_j) in enumerate(zip(delta.tolist(), pint.tolist(), s_list[a:b])):
            if not d > 0:
                continue
            if targets[s_j].size > _SCALAR_POISSON_MAX:
                counts = poisson(excite[s_j] * p)
                hit = np.flatnonzero(counts)
                born = zip(targets[s_j][hit].tolist(), counts[hit].tolist())
            else:
                to, means = scalar[s_j]
                born = zip(to, [poisson(lam * p) for lam in means])
            for s, count in born:
                if count:
                    lags.append(random(count))
                    for _ in range(count):
                        L = _draw_length(rng, mean_len[s])
                        lengths.append(L)
                        u.append(random(2 * L))
                    s_list += [s] * count
                    parent += [a + j] * count
            if len(lengths) > cap:
                raise _cap_error(cap, params)
        at = np.array(parent[b:], dtype=np.int64) - a
        t_gen = t_gen[at] + -nu * np.log1p(-np.concatenate(lags or [np.empty(0)]) * pint[at])
        times.append(t_gen)
    return (np.concatenate(times), np.array(s_list, dtype=np.int64),
            np.array(parent, dtype=np.int64), np.array(lengths, dtype=np.int64),
            np.concatenate(u) if u else np.empty(0), np.array(gen_start, dtype=np.int64))


def _resolve_marks(params: ModelParams, sources, parent, L, u, gen_start):
    """Phase 2: every event's tokens from its mark uniforms, a generation at a time.

    An immigrant's L uniforms, and an offspring's last L - k after its k
    inherited tokens, are theta draws: one searchsorted per source.  An
    offspring's first L uniforms are the inheritance tests (u < gamma), and
    each of its k picks from parent p is the parent's sorted raw tokens at
    min(floor(u L_p), L_p - 1), the parent's count-weighted CDF searched at
    u L_p.  The raw tokens, laid out by event, are sorted within each event
    one generation at a time, since the next generation picks from them.

    Returns (raw, event, k): the sorted raw tokens, the event of each, and
    the number of inherited tokens per event.
    """
    n, S, V = L.size, params.S, params.V
    child = parent >= 0
    width = np.where(child, 2 * L, L)
    ustart = np.cumsum(width) - width
    rbound = np.concatenate([[0], np.cumsum(L)])
    rstart = rbound[:-1]
    event = np.repeat(np.arange(n), L)

    tested = u[ragged_ranges(ustart[child], ustart[child] + L[child])[1]] < params.gamma
    ends = np.concatenate([[0], np.cumsum(tested)])[np.cumsum(L[child])]
    k = np.zeros(n, dtype=np.int64)
    k[child] = np.diff(ends, prepend=0)

    raw = np.empty(rbound[-1], dtype=np.int64)
    first = ustart + np.where(child, L + k, 0)
    draw_u = u[ragged_ranges(first, first + L - k)[1]]
    draw_ev, draw_at = ragged_ranges(rstart + k, rstart + L)
    draw_s = sources[draw_ev]
    by_source = np.argsort(draw_s, kind="stable")
    bounds = np.searchsorted(draw_s[by_source], np.arange(S + 1))
    theta_cum = np.cumsum(params.theta, axis=1)
    for s in range(S):
        sel = by_source[bounds[s]:bounds[s + 1]]
        raw[draw_at[sel]] = np.minimum(
            np.searchsorted(theta_cum[s], draw_u[sel], side="right"), V - 1)

    pick_ev, pick_at = ragged_ranges(rstart, rstart + k)
    p = parent[pick_ev]
    pick_u = u[ragged_ranges(ustart + L, ustart + L + k)[1]]
    pick_from = rstart[p] + np.minimum(np.floor(pick_u * L[p]).astype(np.int64), L[p] - 1)
    pick_bounds = np.searchsorted(pick_at, rbound[gen_start])
    for g in range(gen_start.size - 1):
        lo, hi = pick_bounds[g], pick_bounds[g + 1]
        raw[pick_at[lo:hi]] = raw[pick_from[lo:hi]]
        block = slice(rbound[gen_start[g]], rbound[gen_start[g + 1]])
        ev = event[block] * V
        raw[block] = np.sort(ev + raw[block]) - ev
    return raw, event, k


def simulate(config: SimConfig) -> tuple[EventSequence, GroundTruth]:
    """Sample a marked Hawkes sequence with ground-truth branching.

    Deterministic given config.seed: all draws come from one PCG64 stream in
    a fixed order (immigrants by source, then each event's offspring by
    insertion order; see the module docstring for the two phases).  Raises
    NumericalError if the cascade exceeds the event cap (config.max_events,
    default 50x the analytic expected count).
    """
    params = config.params
    cap = config.max_events
    if cap is None:
        cap = max(1000, int(np.ceil(50.0 * expected_event_count(params, config.T))))
    times, sources, parent, L, u, gen_start = _draw_stream(config, cap)
    n = times.size
    order = np.argsort(times, kind="stable")
    times = times[order]
    if n > 1 and np.any(np.diff(times) <= 0):
        raise NumericalError("duplicate timestamps generated; re-run with another seed")

    raw, event, k = _resolve_marks(params, sources, parent, L, u, gen_start)
    # runs of equal tokens within an event, then the events' runs in time order
    key = event * params.V + raw
    start = np.flatnonzero(np.diff(key, prepend=-1) != 0)
    run_count = np.diff(start, append=key.size)
    run_start = np.concatenate([[0], np.cumsum(np.bincount(event[start], minlength=n))])
    runs = ragged_ranges(run_start[order], run_start[order + 1])[1]
    indptr = np.concatenate([[0], np.cumsum(np.diff(run_start)[order])])
    events = EventSequence(times, sources[order], indptr, raw[start][runs].astype(np.int32),
                           run_count[runs].astype(np.float64), config.T, params.S, params.V)

    pos_of_build = np.empty(n, dtype=np.int64)
    pos_of_build[order] = np.arange(n)
    parent_sorted = np.where(parent[order] >= 0, pos_of_build[parent[order]] + 1, 0)
    root_pos = root_positions(parent_sorted)
    truth = GroundTruth(
        branching=BranchingStructure(parent_sorted),
        roots=events.sources[root_pos],
        root_event=root_pos + 1,
        inherited_tokens=k[order],
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
