"""Root-source probabilities from the E-step posteriors, and the enumeration oracle.

The s-root probability of event i is the posterior probability, over latent
branching structures, that the tree containing event i was started by source
s.  Parent assignments are conditionally independent given the observed
events, so with the E-step's parent posteriors eta_i0 (immigrant) and eta_ij
(parent j < i) the probabilities satisfy

    r_i^(s) = eta_i0 delta(s_i = s) + sum_{j<i} eta_ij r_j^(s),

a unit lower-triangular system (I - H) R = diag(eta_0) onehot(s) in the
sparse posteriors H (the branching-structure posterior of Veen & Schoenberg,
2008).  Each pass takes the PairStructure of the same events and kernel
settings that is still alive (a fit's, while its report is held) or builds
one, gets the posteriors, and solves the system by block forward
substitution.  All three passes get them from the E-step that fits use
(`fitting._e_step`, from the kernel cells and the overlap pairs), expanded
a block of children at a time (`fitting._eta_blocks`): each block's rows
add the earlier rows' part in one matrix product, then solve their own unit
lower-triangular block, and no per-pair array is built.  When the last
`update_eta` state for the same events and settings is still alive and ran
at parameters equal in value to the pass's (a fit's final state, while its
report is held; `fitting._state_at`), the full pass reads its terms and
runs only the block substitution, so a reused and a recomputed pass agree
bit for bit.  The temporal-only variant is the full pass on a copy of the
events without marks, where every mark density is 1: it builds that copy's
layout, which holds no overlap pairs; the mark-only variant keeps just the
densities, with the overlap pairs and, per child, one count of parents per
mark half in place of the cells.
Every row of r sums to 1 because every row of eta does, so no row is
renormalized.

`enumerate_oracle` recomputes r by brute force over all joint parent
assignments (product over events of their candidate sets) and is the ground
truth the solve is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .fitting import _check_memory, _e_step, _eta_blocks, _state_at, _structure_for
from .model import (EventSequence, ModelParams, compensator, excited_intensity,
                    log_mark_density_immigrant, log_mark_density_offspring)

__all__ = [
    "RootProbMatrix",
    "root_probabilities",
    "root_probabilities_temporal",
    "root_probabilities_mark",
    "enumerate_oracle",
]

MODES = ("full", "temporal_only", "mark_only", "running_window")


@dataclass
class RootProbMatrix:
    """n x S row-stochastic matrix; r[i, s] = probability that source s roots event i.

    mode records which weights produced it: "full", "temporal_only",
    "mark_only", or "running_window" for the heuristic baseline.
    """

    r: np.ndarray
    mode: str = "full"

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=np.float64)
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.r.ndim != 2:
            raise ValidationError("r must be a 2-d matrix")
        if self.r.size:
            if not np.all((self.r >= 0) & (self.r <= 1)):
                raise ValidationError("root probabilities must lie in [0, 1]")
            if np.any(np.abs(self.r.sum(axis=1) - 1.0) > 1e-9):
                raise ValidationError("root probability rows must sum to 1")

    @property
    def n(self) -> int:
        return self.r.shape[0]

    @property
    def S(self) -> int:
        return self.r.shape[1]

    def argmax_sources(self) -> np.ndarray:
        """Most probable root source per event (0-based; ties -> lowest index)."""
        return self.r.argmax(axis=1)


def _root_pass(events: EventSequence, params: ModelParams, use_time: bool,
               mode: str, window: float | None) -> RootProbMatrix:
    params.validate()
    n, S, V = len(events), events.S, events.V
    # the n x S result r before any layout is built, then with a reused layout
    _check_memory(n, 0, 0, S, V, window, roots=True)
    st = _structure_for(events, params.nu, window)
    _check_memory(n, st.n_pairs, st.n_triples, S, V, st.window, roots=True)
    # not update_eta: the record of a fit's E-step in `_LAST` stays
    state = (use_time and _state_at(st, params)) or _e_step(st, params, use_time)
    # r starts as eta_i0 e_{s_i}; each block adds its earlier parents' part,
    # then solves (I - eta over its own rows and parents) r = that
    r = np.zeros((n, S))
    r[np.arange(n), events.sources] = state.eta0
    for a, b, lo_a, D in _eta_blocks(state):
        rhs = r[a:b]
        rhs += D[:a - lo_a].T @ r[lo_a:a]
        r[a:b] = np.linalg.solve((np.eye(b - a) - D[a - lo_a:]).T, rhs)
    # rounding can push a lone dominant entry to 1 + ulp
    return RootProbMatrix(np.clip(r, 0.0, 1.0, out=r), mode)


def root_probabilities(events: EventSequence, params: ModelParams,
                       window: float | None = None) -> RootProbMatrix:
    """Full-model root probabilities (intensity and mark factors)."""
    return _root_pass(events, params, True, "full", window)


def root_probabilities_temporal(events: EventSequence, params: ModelParams,
                                window: float | None = None) -> RootProbMatrix:
    """Sub-model variant using intensity factors only: the full model on the
    events with their marks removed, where every mark density is 1."""
    view = EventSequence(events.times, events.sources, np.zeros(len(events) + 1, dtype=np.int64),
                         [], [], events.T, events.S, events.V)
    return _root_pass(view, params, True, "temporal_only", window)


def root_probabilities_mark(events: EventSequence, params: ModelParams,
                            window: float | None = None) -> RootProbMatrix:
    """Sub-model variant using mark densities only."""
    return _root_pass(events, params, False, "mark_only", window)


ORACLE_CAP = 12


def _choice_log_weights(events: EventSequence, params: ModelParams) -> np.ndarray:
    """(n, n+1) matrix: column 0 the immigrant log weight, column j+1 parent j."""
    ev = list(events)
    n = len(ev)
    W = np.full((n, n + 1), -np.inf)
    for k, e in enumerate(ev):
        mu = params.rho[e.s]
        W[k, 0] = ((math.log(mu) if mu > 0 else -np.inf)
                   + log_mark_density_immigrant(params, e))
        for j in range(k):
            lam = excited_intensity(params, e.s, ev[j], e.t)
            W[k, j + 1] = ((math.log(lam) if lam > 0 else -np.inf)
                           + log_mark_density_offspring(params, e, ev[j]))
    return W


def enumerate_posteriors(events: EventSequence, params: ModelParams):
    """Brute force over all joint parent assignments.

    Returns (r, eta, log_marginal): the root matrix, the exact per-event
    parent posteriors as an (n, n+1) matrix (column 0 immigrant, column j+1
    parent j), and the coefficient-free log marginal likelihood of the
    sequence (compensator included, multinomial coefficients excluded, so it
    is directly comparable to the variational objective).
    """
    params.validate()
    n, S = len(events), events.S
    if n > ORACLE_CAP:
        raise ValidationError(f"enumeration oracle capped at {ORACLE_CAP} events, got {n}")
    if n == 0:
        return np.zeros((0, S)), np.zeros((0, 1)), -compensator(params, events)
    W = _choice_log_weights(events, params)
    row_max = np.array([W[k, :k + 1].max() for k in range(n)])
    if not np.all(np.isfinite(row_max)):
        k = int(np.argmax(~np.isfinite(row_max)))
        raise NumericalError(
            f"all parent hypotheses for event {k + 1} have zero probability")
    shift = row_max.sum()

    sources = events.sources
    radices = tuple(k + 1 for k in range(n))
    total_assignments = math.prod(radices)
    r_acc = np.zeros((n, S))
    eta_acc = np.zeros((n, n + 1))
    total = 0.0
    chunk = 1 << 20
    rows = np.arange(n)[:, None]
    for start in range(0, total_assignments, chunk):
        ids = np.arange(start, min(start + chunk, total_assignments))
        choice = np.stack(np.unravel_index(ids, radices))
        w = np.exp(W[rows, choice].sum(axis=0) - shift)
        cols = np.arange(ids.size)
        roots = np.empty((n, ids.size), dtype=np.int64)
        for k in range(n):
            c = choice[k]
            parent_root = roots[np.maximum(c, 1) - 1, cols]
            roots[k] = np.where(c == 0, k, parent_root)
        for k in range(n):
            r_acc[k] += np.bincount(sources[roots[k]], weights=w, minlength=S)
            eta_acc[k, :k + 1] += np.bincount(choice[k], weights=w, minlength=k + 1)
        total += w.sum()
    if total <= 0:
        raise NumericalError("all branching structures have zero probability")
    log_marginal = math.log(total) + shift - compensator(params, events)
    # division can round a lone dominant entry to 1 + ulp
    return (np.clip(r_acc / total, 0.0, 1.0), np.clip(eta_acc / total, 0.0, 1.0),
            log_marginal)


def enumerate_oracle(events: EventSequence, params: ModelParams) -> RootProbMatrix:
    """Root probabilities by explicit enumeration; reference for the solve (n <= 12)."""
    r, _, _ = enumerate_posteriors(events, params)
    return RootProbMatrix(r, "full")
