"""Evaluation metrics: identification accuracy, log-probability, top-k, RSE,
social power, and the argmax-parent conversation forest."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numeric import segment_max
from .errors import ValidationError
from .fitting import VariationalState, _check_built_for, _log_kernel_a
from .model import EventSequence
from .rootprob import RootProbMatrix
from .simulate import BranchingStructure, _root_positions

__all__ = [
    "EvalReport",
    "identification_accuracy",
    "true_root_log_probability",
    "top_k_accuracy",
    "relative_square_error",
    "social_power",
    "mini_conversations",
    "MiniConversations",
    "evaluate_root_probabilities",
]

LOG_FLOOR = 1e-12


def _check_lengths(r: RootProbMatrix, truth) -> np.ndarray:
    truth = np.asarray(truth, dtype=np.int64)
    if truth.ndim != 1 or truth.shape[0] != r.n:
        raise ValidationError("truth labels must match the number of rows")
    if r.n and (truth.min() < 0 or truth.max() >= r.S):
        raise ValidationError("truth labels out of source range")
    return truth


def identification_accuracy(r: RootProbMatrix, truth) -> float:
    """Fraction of events whose argmax root source (ties -> lowest index) is correct."""
    truth = _check_lengths(r, truth)
    if r.n == 0:
        return 0.0
    return float(np.mean(r.argmax_sources() == truth))


def true_root_log_probability(r: RootProbMatrix, truth) -> float:
    """sum_i log r_i[truth_i], entries floored at 1e-12 before the log."""
    truth = _check_lengths(r, truth)
    picked = np.maximum(r.r[np.arange(r.n), truth], LOG_FLOOR)
    return float(np.sum(np.log(picked)))


def top_k_accuracy(r: RootProbMatrix, truth, k: int) -> float:
    """Fraction of events whose true root ranks among the k largest entries.

    Ranking ties are broken by lowest source index (stable sort on -r).
    """
    truth = _check_lengths(r, truth)
    if k < 1:
        raise ValidationError("k must be at least 1")
    if r.n == 0:
        return 0.0
    k = min(k, r.S)
    order = np.argsort(-r.r, axis=1, kind="stable")
    hits = np.any(order[:, :k] == truth[:, None], axis=1)
    return float(np.mean(hits))


def relative_square_error(estimate, truth) -> float:
    """||estimate - truth||^2 / ||truth||^2 (Frobenius / Euclidean)."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValidationError("estimate and truth must have the same shape")
    denom = float(np.sum(truth * truth))
    if denom == 0.0:
        raise ValidationError("truth has zero norm")
    diff = estimate - truth
    return float(np.sum(diff * diff)) / denom


def social_power(r: RootProbMatrix) -> np.ndarray:
    """Per-source accumulated root probability: column sums of r (total = n)."""
    return r.r.sum(axis=0)


@dataclass
class MiniConversations:
    """Forest induced by each event's argmax parent posterior.

    branching holds the argmax parent per event (1-based, 0 = new root);
    conversations lists each tree's 1-based event indices in time order,
    the root first, ordered by root index.
    """

    branching: BranchingStructure
    conversations: list = field(default_factory=list)


def mini_conversations(eta: VariationalState, events: EventSequence) -> MiniConversations:
    """Group events into threads by the argmax of each variational posterior.

    eta comes from `update_eta` or a fit: the parents are read from the
    E-step's own terms, not from per-pair posteriors.  Child i's candidates
    are its overlap pairs (their eta_overlap) and, per kernel cell, the
    cell's latest event m, valued in the order of operations of
    `fitting._log_kernel_a`, as the root passes (and eta_pair) value it,
    bit for bit.  Within a cell every parent that shares no token with i
    has eta = C kappa(t_i - t_j), which does not grow with the lag, so m
    bounds the others, and an overlap pair is a candidate itself.  Ties
    follow np.argmax over (immigrant, parents in time order): the immigrant
    when eta_i0 reaches the largest candidate, else the earliest candidate
    that does.  It can differ from np.argmax only on ties within rounding:
    two same-class events whose t_j / nu round to the same value (times a
    few ulps apart), where np.argmax takes the earlier and this m; and at
    gamma = 0, where an overlap pair's mark term is 0, so its eta and its
    cell's value for the same parent may differ in the last bit.  A state
    built on another events object, even one of the same length, raises
    ValidationError.
    """
    st = eta.structure
    _check_built_for(st, events, "state")
    n = len(eta)
    cell_start, cell_key, _, cell_last = st.cells[:4]
    # each cell's value at its latest event, as the root passes value eta
    seg = np.repeat(np.arange(2 * n), np.diff(cell_start))
    i = seg >> 1
    v_cell = np.exp((_log_kernel_a(eta, i, cell_key) + events.times[cell_last] / st.nu)
                    + eta._factors[1].ravel()[seg])
    v_ov, ov_start = eta.eta_overlap, st.ov_row_start
    best = np.maximum(segment_max(v_cell, cell_start[::2]), segment_max(v_ov, ov_start))
    # the earliest candidate at the best value: the overlap pairs come in
    # parent order per child, so the first hit of each child; the cells in
    # class order, so the least m
    first = np.full(n, n)
    hit = np.flatnonzero(v_ov == np.repeat(best, st.ov_row_len))
    child = np.searchsorted(ov_start, hit, side="right") - 1
    lead = np.flatnonzero(np.diff(child, prepend=-1))
    first[child[lead]] = st.ov_parent[hit[lead]]
    hit = np.flatnonzero(v_cell == best[i])
    np.minimum.at(first, i[hit], cell_last[hit])
    parent = np.where(eta.eta0 < best, first + 1, 0)  # 0 = immigrant, j -> event j
    root = _root_positions(parent)
    # threads in root order, members in time order
    order = np.argsort(root, kind="stable")
    starts = np.flatnonzero(np.diff(root[order], prepend=-1)).tolist()
    members = (order + 1).tolist()
    convs = [members[a:b] for a, b in zip(starts, starts[1:] + [n])]
    return MiniConversations(branching=BranchingStructure(parent=parent), conversations=convs)


@dataclass
class EvalReport:
    """Bundle of the evaluation quantities for one root-probability matrix."""

    accuracy: float
    log_prob: float
    top_k: dict
    power: np.ndarray
    n_events: int
    rse_A: float | None = None
    rse_theta: np.ndarray | None = None

    def lines(self) -> list:
        out = [f"events            {self.n_events}",
               f"accuracy          {self.accuracy:.4f}",
               f"log-probability   {self.log_prob:.2f}"]
        for k in sorted(self.top_k):
            out.append(f"top-{k} accuracy    {self.top_k[k]:.4f}")
        if self.rse_A is not None:
            out.append(f"RSE(A)            {self.rse_A:.4f}")
        if self.rse_theta is not None:
            vals = " ".join(f"{v:.4f}" for v in self.rse_theta)
            out.append(f"RSE(theta) rows   {vals}")
        power = " ".join(f"{v:.2f}" for v in self.power)
        out.append(f"social power      {power}")
        return out


def evaluate_root_probabilities(r: RootProbMatrix, truth, ks=(1, 2, 3),
                                params_est=None, params_true=None) -> EvalReport:
    """Compute the standard metric bundle; RSE terms only when both params given."""
    rse_A = rse_theta = None
    if params_est is not None and params_true is not None:
        rse_A = relative_square_error(params_est.A, params_true.A)
        rse_theta = np.array([relative_square_error(params_est.theta[s],
                                                    params_true.theta[s])
                              for s in range(params_true.S)])
    return EvalReport(
        accuracy=identification_accuracy(r, truth),
        log_prob=true_root_log_probability(r, truth),
        top_k={int(k): top_k_accuracy(r, truth, int(k)) for k in ks},
        power=social_power(r),
        n_events=r.n,
        rse_A=rse_A,
        rse_theta=rse_theta,
    )
