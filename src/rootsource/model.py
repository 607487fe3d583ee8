"""Core types, intensities, and mark densities for marked multivariate Hawkes processes.

Each event carries a timestamp t, a source label s (0-based, out of S), and a
sparse bag-of-tokens mark x over a vocabulary of size V.  The conditional
intensity of source s at time t given the history is

    lambda_s(t | H) = rho[s] + sum_{t_j < t} A[s, s_j] * kappa(t - t_j)

with the normalized exponential kernel kappa(lag) = exp(-lag / nu) / nu, so
that the kernel integrates to 1 over (0, inf).

Marks: an immigrant event draws each of its L tokens from theta[s]; an
offspring of parent j draws each token from the mixture
(1 - gamma) * theta[s] + gamma * x_tilde_j, where x_tilde_j is the parent's
normalized token-count vector.  All mark densities here drop the multinomial
coefficient L!/prod(x_v!): it is constant across the immigrant and all
offspring hypotheses for a fixed event, so it cancels in every normalized
quantity and only shifts log-likelihoods by a data-dependent constant.

All densities are computed in log space; -inf is the sentinel for a
zero-probability mark and propagates through downstream normalizations as an
exact zero weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._numeric import scatter_sum
from .errors import ValidationError

__all__ = [
    "Event",
    "EventSequence",
    "ModelParams",
    "base_intensity",
    "excited_intensity",
    "total_intensity",
    "log_mark_density_immigrant",
    "log_mark_density_offspring",
    "compensator",
]


def _canonical_mark(x) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a mark, a dict or a (tokens, counts) pair, into sorted arrays.

    Zero counts are dropped; duplicate token entries are summed.
    """
    if x is None:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64)
    if isinstance(x, dict):
        x = list(x), list(x.values())
    tokens = np.asarray(x[0], dtype=np.int32)
    counts = np.asarray(x[1], dtype=np.float64)
    order = np.argsort(tokens, kind="stable")
    tokens, counts = tokens[order], counts[order]
    if tokens.size and np.any(tokens[1:] == tokens[:-1]):
        uniq, inv = np.unique(tokens, return_inverse=True)
        counts = np.bincount(inv, weights=counts, minlength=uniq.size)
        tokens = uniq.astype(np.int32)
    keep = counts > 0
    return tokens[keep], counts[keep]


@dataclass
class Event:
    """One event: 1-based ordinal index, timestamp, source, sparse token counts."""

    index: int
    t: float
    s: int
    tokens: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    @classmethod
    def make(cls, index: int, t: float, s: int, x=None) -> "Event":
        tokens, counts = _canonical_mark(x)
        return cls(index=index, t=float(t), s=int(s), tokens=tokens, counts=counts)

    @property
    def L(self) -> float:
        return float(self.counts.sum())

    def mark_dict(self) -> dict:
        return {int(v): float(c) for v, c in zip(self.tokens, self.counts)}

    def normalized_counts(self) -> np.ndarray:
        L = self.counts.sum()
        return self.counts / L if L > 0 else self.counts

    def counts_at(self, tokens: np.ndarray) -> np.ndarray:
        """Counts of this event's mark at the given (sorted) token indices; 0 elsewhere."""
        out = np.zeros(len(tokens), dtype=np.float64)
        if self.tokens.size == 0 or len(tokens) == 0:
            return out
        pos = np.searchsorted(self.tokens, tokens)
        pos = np.clip(pos, 0, self.tokens.size - 1)
        hit = self.tokens[pos] == tokens
        out[hit] = self.counts[pos[hit]]
        return out


class EventSequence:
    """Time-ordered events over [0, T] in columnar form.

    Times are strictly increasing in (0, T]; sources are 0-based labels in
    [0, S); marks are stored CSR-style (tok_indptr/tok_index/tok_count) with
    token indices sorted within each row.  Construction checks all of this
    and refuses a violation with a ValidationError naming the first bad
    event.

    The derived arrays (`entry_event`, `lengths` and the token postings) are
    cached properties, each built on first read and shared after.  The
    arrays must not be mutated after construction: those caches, the pair
    layouts that fits and root passes derive from the sequence and reuse
    while they are alive, and the final E-step of a fit that a root pass
    reuses would no longer match them.  Build a new EventSequence instead.
    """

    def __init__(self, times, sources, tok_indptr, tok_index, tok_count, T, S, V):
        self.times = np.asarray(times, dtype=np.float64)
        self.sources = np.asarray(sources, dtype=np.int64)
        self.tok_indptr = np.asarray(tok_indptr, dtype=np.int64)
        self.tok_index = np.asarray(tok_index, dtype=np.int32)
        self.tok_count = np.asarray(tok_count, dtype=np.float64)
        self.T = float(T)
        self.S = int(S)
        self.V = int(V)
        self._validate()

    def _validate(self):
        n = len(self.times)
        if len(self.sources) != n or len(self.tok_indptr) != n + 1:
            raise ValidationError("inconsistent array lengths in event sequence")
        if not 0 < self.T < np.inf or self.S < 1 or self.V < 0:
            raise ValidationError("T must be positive and finite, S >= 1, V >= 0")
        ptr = self.tok_indptr
        if ptr[0] != 0 or np.any(ptr[1:] < ptr[:-1]):
            raise ValidationError("tok_indptr must start at 0 and never decrease")
        if not ptr[-1] == self.tok_index.size == self.tok_count.size:
            raise ValidationError("tok_indptr must end at the number of mark entries, "
                                  "with one token index and one count each")
        if n == 0:
            return

        def refuse(bad, message, entries=False):
            """Raise message for the first True of bad, over events or mark entries."""
            if bad.any():
                k = int(np.argmax(bad))
                raise ValidationError(message, event=int(self.entry_event[k]) if entries else k)

        refuse(~((self.times > 0) & (self.times <= self.T)),
               "event timestamps must lie in (0, T]")
        dt = np.diff(self.times)
        if np.any(dt <= 0):
            k = int(np.argmax(dt <= 0))
            raise ValidationError(
                f"timestamps must be strictly increasing; tie or inversion at events "
                f"{k + 1} and {k + 2}", event=k + 1)
        refuse((self.sources < 0) | (self.sources >= self.S), "source labels out of range")
        tok = self.tok_index
        if tok.size:
            refuse((tok < 0) | (tok >= self.V), "token indices out of range", entries=True)
            refuse(self.tok_count <= 0, "stored token counts must be positive", entries=True)
            refuse(~(np.isfinite(self.tok_count) & (self.tok_count == np.floor(self.tok_count))),
                   "token counts must be finite integers", entries=True)
            # an entry is in order when it starts an event or its token is above the one before
            in_order = np.zeros(tok.size + 1, dtype=bool)
            in_order[ptr] = True
            in_order[1:-1] |= tok[1:] > tok[:-1]
            refuse(~in_order[:-1], "token indices not sorted/unique within an event", entries=True)

    @classmethod
    def from_events(cls, events, T, S=None, V=None) -> "EventSequence":
        events = list(events)
        times = np.array([e.t for e in events], dtype=np.float64)
        sources = np.array([e.s for e in events], dtype=np.int64)
        if S is None:
            S = int(sources.max()) + 1 if events else 1
        sizes = np.array([e.tokens.size for e in events], dtype=np.int64)
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        tok_index = (np.concatenate([e.tokens for e in events])
                     if events else np.empty(0, dtype=np.int32))
        tok_count = (np.concatenate([e.counts for e in events])
                     if events else np.empty(0, dtype=np.float64))
        if V is None:
            V = int(tok_index.max()) + 1 if tok_index.size else 0
        return cls(times, sources, indptr, tok_index, tok_count, T, S, V)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, k: int) -> Event:
        if not 0 <= k < len(self):
            raise IndexError(k)
        lo, hi = self.tok_indptr[k], self.tok_indptr[k + 1]
        return Event(index=k + 1, t=float(self.times[k]), s=int(self.sources[k]),
                     tokens=self.tok_index[lo:hi], counts=self.tok_count[lo:hi])

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    @cached_property
    def entry_event(self) -> np.ndarray:
        """The event of each mark entry (in tok_index order), int64."""
        return np.repeat(np.arange(len(self)), np.diff(self.tok_indptr))

    @cached_property
    def lengths(self) -> np.ndarray:
        """Per-event total token counts L_i, float64."""
        return scatter_sum(self.entry_event, self.tok_count, len(self))

    def token_postings(self):
        """Column-oriented view of the marks: per token, which events use it.

        Returns (indptr, event_ids, normalized_counts): for token v, the
        slice indptr[v]:indptr[v+1] lists the events containing v (sorted
        ascending) and their counts normalized by the event's length.  The
        entries are those of a CSC transpose of the marks with sorted
        indices, bit for bit.  `posting_positions` inverts the order; the
        raw counts are tok_count, each at its entry's posting.  The arrays
        are built on the first call of either method and shared by later
        calls; raises ValidationError when V and the number of mark entries
        cannot be packed into one 64-bit sort key.
        """
        return self._postings[:3]

    def posting_positions(self) -> np.ndarray:
        """Each mark entry's position in `token_postings`: entry k (in
        tok_index order) is posting posting_positions()[k]."""
        return self._postings[3]

    @cached_property
    def _postings(self):
        """`token_postings`' three arrays and `posting_positions`."""
        V, tok = self.V, self.tok_index
        nnz = tok.size
        # Entries by token, then by event.  Tokens are unique within an
        # event and the entries are stored event by event, so one sort of
        # the packed key (token, entry) orders them; the entry gives each
        # posting its event and count, and each entry its posting.
        e_bits = max(nnz - 1, 0).bit_length()
        bits = V.bit_length() + e_bits  # not V - 1: indptr[V] searches V
        if bits > 64:
            raise ValidationError(f"{V} tokens and {nnz} mark entries are too many to "
                                  f"index together in 64 bits")
        kt = np.uint32 if bits <= 32 else np.uint64  # uint32 sorts in half the time
        key = tok.astype(kt) << kt(e_bits)
        key |= np.arange(nnz, dtype=kt)
        key.sort()
        indptr = np.searchsorted(key, np.arange(V + 1, dtype=kt) << kt(e_bits))
        key &= kt((1 << e_bits) - 1)
        entry = key.astype(np.intp)
        del key
        ev = self.entry_event[entry]
        norm = self.lengths[ev]
        with np.errstate(invalid="ignore"):
            np.divide(self.tok_count[entry], norm, out=norm)
        at = np.empty(nnz, dtype=np.intp)
        at[entry] = np.arange(nnz)
        return indptr.astype(np.int64, copy=False), ev, norm, at

    def token_counts_by_source(self) -> np.ndarray:
        """Dense (S, V) matrix of total token counts per source."""
        cell = self.sources[self.entry_event] * self.V + self.tok_index
        out = np.bincount(cell, weights=self.tok_count, minlength=self.S * self.V)
        # without entries, bincount returns integer zeros
        return out.astype(np.float64, copy=False).reshape(self.S, self.V)


@dataclass
class ModelParams:
    """Full parameter set Theta = (rho, A, theta, gamma) plus the kernel bandwidth.

    rho : (S,) nonnegative base rates.
    A : (S, S) nonnegative excitation matrix; A[s, s'] is the strength with
        which source s' excites source s (row = excited, column = exciting).
    theta : (S, V) row-stochastic token distributions.
    gamma : token inheritance rate in [0, 1] (fitting keeps it interior).
    nu : kernel bandwidth.
    """

    rho: np.ndarray
    A: np.ndarray
    theta: np.ndarray
    gamma: float
    nu: float

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64)
        self.A = np.asarray(self.A, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.gamma = float(self.gamma)
        self.nu = float(self.nu)
        self.validate()

    def validate(self):
        S = self.rho.shape[0]
        if self.rho.ndim != 1 or not np.all((self.rho >= 0) & (self.rho < np.inf)):
            raise ValidationError("rho must be a finite nonnegative vector")
        if self.A.shape != (S, S) or not np.all((self.A >= 0) & (self.A < np.inf)):
            raise ValidationError("A must be a finite nonnegative S x S matrix")
        if self.theta.ndim != 2 or self.theta.shape[0] != S:
            raise ValidationError("theta must have one row per source")
        if not np.all(self.theta >= 0):  # also false for NaN; inf fails the row sums
            raise ValidationError("theta entries must be nonnegative")
        if self.theta.shape[1] > 0:
            rowsums = self.theta.sum(axis=1)
            if np.any(np.abs(rowsums - 1.0) > 1e-9):
                raise ValidationError("theta rows must sum to 1 within 1e-9")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError("gamma must lie in [0, 1]")
        if not 0 < self.nu < np.inf:
            raise ValidationError("nu must be positive and finite")

    @property
    def S(self) -> int:
        return self.rho.shape[0]

    @property
    def V(self) -> int:
        return self.theta.shape[1]


def base_intensity(params: ModelParams, s: int, t: float) -> float:
    """mu_s(t) = rho[s], constant in t."""
    if not 0 <= s < params.S:
        raise ValidationError(f"source index {s} out of range [0, {params.S})")
    return float(params.rho[s])


def excited_intensity(params: ModelParams, s: int, parent: Event, t: float) -> float:
    """lambda_parent_s(t) = A[s, parent.s] * kappa(t - parent.t)."""
    if not 0 <= s < params.S:
        raise ValidationError(f"source index {s} out of range [0, {params.S})")
    if t <= parent.t:
        raise ValidationError("excited intensity requires t > parent.t")
    lag = t - parent.t
    return float(params.A[s, parent.s] * (np.exp(-lag / params.nu) / params.nu))


def total_intensity(params: ModelParams, s: int, t: float, history) -> float:
    """Conditional intensity of source s at t: base plus all excitation terms."""
    total = base_intensity(params, s, t)
    for e in history:
        total += excited_intensity(params, s, e, t)
    return total


def log_mark_density_immigrant(params: ModelParams, e: Event) -> float:
    """log f(x | t, s) = sum_v x_v log theta[s, v]; 0 for an empty mark."""
    if not 0 <= e.s < params.S:
        raise ValidationError(f"source index {e.s} out of range [0, {params.S})")
    if e.tokens.size == 0:
        return 0.0
    th = params.theta[e.s, e.tokens]
    with np.errstate(divide="ignore"):
        logs = np.log(th)
    return float(np.dot(e.counts, logs))


def log_mark_density_offspring(params: ModelParams, e: Event, parent: Event) -> float:
    """log f(x | t, s, e_parent) under the inherited-vocabulary mixture.

    Each child token mixes theta[e.s] with the parent's normalized bag:
    sum_v x_v log[(1 - gamma) theta[s, v] + gamma xt_parent_v].  A parent with
    an empty mark has no bag to inherit, so the immigrant density is used.
    """
    if parent.t >= e.t:
        raise ValidationError("offspring density requires parent.t < e.t")
    if parent.counts.sum() == 0:
        return log_mark_density_immigrant(params, e)
    if e.tokens.size == 0:
        return 0.0
    g = params.gamma
    parent_norm = parent.counts_at(e.tokens) / parent.counts.sum()
    mix = (1.0 - g) * params.theta[e.s, e.tokens] + g * parent_norm
    with np.errstate(divide="ignore"):
        logs = np.log(mix)
    return float(np.dot(e.counts, logs))


def compensator(params: ModelParams, events: EventSequence) -> float:
    """Integral over [0, T] of the total intensity summed across sources.

    For the exponential kernel this is
    sum_s rho[s] * T + sum_i colsum(A)[s_i] * (1 - exp(-(T - t_i)/nu)).
    """
    total = sum(params.rho[s] * events.T for s in range(params.S))
    if len(events):
        kint = 1.0 - np.exp(-(events.T - events.times) / params.nu)
        col = params.A.sum(axis=0)
        total += float(np.dot(col[events.sources], kint))
    return float(total)
