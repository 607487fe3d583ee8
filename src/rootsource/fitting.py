"""Variational EM for the marked Hawkes model with latent branching.

The mean-field posterior Q(z) = prod_i Multi(z_i | 1, eta_i) gives the
surrogate objective (coefficient-free ELBO)

    L~ = - sum_s rho[s] T
         - sum_s sum_i A[s, s_i] int_{t_i}^T kappa(t - t_i) dt
         + sum_i eta_i0 log( rho[s_i] f(x_i | t_i, s_i) )
         + sum_i sum_{j<i} eta_ij log( A[s_i, s_j] kappa(t_i - t_j) f(x_i | t_i, s_i, e_j) )
         - sum_i sum_j eta_ij log eta_ij   [+ Gamma log-prior terms]

maximized by block-coordinate ascent with closed-form updates: eta by
normalized posterior weights, (rho, A) by Gamma-posterior means, and
(theta, gamma) by maximizing a Jensen minorant that is tight at the current
estimates, so every sweep is monotone in L~.

The E-step is exact (all j < i pairs) by default.  An optional truncation
window keeps only pairs with t_i - t_j <= window * nu; dropped pairs have
kernel weight below exp(-window), and the same restricted objective is then
maximized monotonically.  The pair layout (child i's parents are lo_i..i-1)
and the token-overlap triples (i, j, v) are built once per fit in a
PairStructure and reused across sweeps, and by root passes on the same
events while the fit's state is alive.  It builds the triples and their
overlap pairs on construction, and its one lazy part on first use: the
kernel cells with the overlap pairs' kernel terms, which the mark-only root
pass never reads.  An overlap pair is
stored as its parent event, grouped by child, which is all that its readers
need.  Two weak tables keyed by (id(events), nu, window) find the live
layout (`_LIVE`) and the last `update_eta` state on it (`_LAST`), so a full
root pass at the fit's final parameters reads its posteriors; each access
is one lookup, with no lock.

The E-step's log weights leave out c_i = sum over child i's live tokens of
x log((1 - gamma) theta), a constant all components of child i share: the
posteriors do not depend on it, and the normalizers and the objective add it
back.  Relative to c_i, a parent with a non-empty mark that shares no token
with child i has weight A[s_i, s_j] kappa(t_i - t_j), and one with an empty
mark that weight times f_imm e^{-c_i}.  So a sweep need not visit the pairs:
the exponential kernel lets per-class sums of kappa over the earlier events
(Ozaki 1979), one class per source and parents with a non-empty or an empty
mark, give every child's total over such parents, and only the pairs that
share a token (the overlap pairs) add a correction.  The sums are stored
sparsely, one cell per child and parent class with a candidate in the
child's window, so there are at most min(pairs, n 2S) of them however many
sources there are.  `_weights` computes the terms of every weight and
`_e_step` is the one normalizer: it sums them over the cells and the overlap
pairs, for the full model and for the mark-only root pass; the temporal-only
pass is the full model on the events without their marks.
The E-step, both M-steps and the objective cost O(cells + overlap pairs +
triples).  `elbo` at the E-step's own parameters sums its normalizers, the
compensator and the prior, which `fit` records as its trace; at other
parameters it adds the state's masses times the weights' terms at both, and
needs nothing per pair either.  Nothing here builds per-pair posteriors: the
root passes expand the E-step's terms a block of children at a time
(`_eta_blocks`), and `VariationalState.eta_pair` copies those blocks into
one array only when it is read.

Every sweep reads the triples twice through their overlap pair (tri_ov):
the E-step sums sigma per overlap pair and the (theta, gamma) step gathers
eta per triple.  The triples are laid out child-major (by child, then
token, then parent), so both reads stay inside one child's overlap pairs
instead of jumping across the whole overlap array as a token-major layout
does; both take the triple's ratio g xt / ((1 - g) theta) as xt over an
S x V table, (1 - g) theta / g, gathered by the triple's key.
"""

from __future__ import annotations

import copy
import math
import os
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numeric import ragged_ranges, scatter_sum, segment_max, segment_sum, xlogy
from .errors import NumericalError, ValidationError
from .model import EventSequence, ModelParams

__all__ = [
    "PriorConfig",
    "PairStructure",
    "VariationalState",
    "FitReport",
    "update_eta",
    "update_rho_alpha",
    "update_theta_gamma",
    "elbo",
    "fit",
]

THETA_FLOOR = 1e-12
NUMERATOR_FLOOR = 1e-12
GAMMA_FLOOR = 1e-6


@dataclass
class PriorConfig:
    """Independent Gamma priors rho_s ~ Gamma(a_rho[s], b_rho), A[s,:] ~ Gamma(a_alpha[s], b_alpha).

    Maximum-likelihood mode is the improper prior a=1, b=0, under which the
    rho/A updates coincide with the ML closed forms.  Empirical-Bayes mode
    sets a_rho[s] = a_alpha[s] = N_s, b_rho = T/c, b_alpha = T/(1-c) from an
    expected immigrant proportion c, from which `fit`'s default initial
    point takes rho and A as shapes over rates.  A shape array of more than
    one dimension raises ValidationError naming it and its shape, and c with
    a zero rate one naming c and that rate.
    """

    a_rho: np.ndarray
    b_rho: float
    a_alpha: np.ndarray
    b_alpha: float
    c: float | None = None

    def __post_init__(self):
        self.a_rho = np.atleast_1d(np.asarray(self.a_rho, dtype=np.float64))
        self.a_alpha = np.atleast_1d(np.asarray(self.a_alpha, dtype=np.float64))
        self.b_rho = float(self.b_rho)
        self.b_alpha = float(self.b_alpha)
        for name in ("a_rho", "a_alpha"):
            shape = getattr(self, name).shape
            if len(shape) != 1:
                raise ValidationError(f"prior {name} must be 1-D, not of shape {shape}")
        if np.any(self.a_rho <= 0) or np.any(self.a_alpha <= 0):
            raise ValidationError("prior shapes must be positive")
        if self.b_rho < 0 or self.b_alpha < 0:
            raise ValidationError("prior rates must be nonnegative")
        if self.c is not None and not 0 < self.c < 1:
            raise ValidationError("c must lie in (0, 1)")
        if self.c is not None and 0 in (self.b_rho, self.b_alpha):
            zero = " and ".join(f"{n} = 0" for n in ("b_rho", "b_alpha") if getattr(self, n) == 0)
            raise ValidationError(f"prior c = {self.c} needs positive rates, not {zero}")

    @classmethod
    def maximum_likelihood(cls, S: int) -> "PriorConfig":
        return cls(a_rho=np.ones(S), b_rho=0.0, a_alpha=np.ones(S), b_alpha=0.0)

    @classmethod
    def empirical_bayes(cls, events: EventSequence, c: float = 0.1) -> "PriorConfig":
        if not 0 < c < 1:
            raise ValidationError("c must lie in (0, 1)")
        counts = np.bincount(events.sources, minlength=events.S).astype(np.float64)
        shapes = np.maximum(counts, 1.0)  # Gamma shape must stay positive
        return cls(a_rho=shapes, b_rho=events.T / c,
                   a_alpha=shapes, b_alpha=events.T / (1.0 - c), c=c)


# Two tables keyed by (id(events), nu, window), both holding their values
# weakly, so a layout or a state lives exactly as long as its users keep it:
# _LIVE the PairStructure built last for the key, _LAST the state of the last
# `update_eta` on such a layout.  A value holds its events, so no other
# object can take that id while the entry exists, and callers holding
# different sequences never see each other's entries.  Every access is one
# get or one set, with no iteration, so neither table needs a lock; threads
# that miss the same key at once each build a layout, and the last is kept.
_LIVE: "weakref.WeakValueDictionary[tuple, PairStructure]" = weakref.WeakValueDictionary()
_LAST: "weakref.WeakValueDictionary[tuple, VariationalState]" = weakref.WeakValueDictionary()

# Peak bytes per candidate pair, token-overlap triple, kernel cell and
# parameter entry (S V + S S) of a three-sweep fit (structure, E-steps with
# the previous state alive, M-steps).  Nothing per pair outlives the build
# of the overlap pairs, whose pair-length int32 map is the pairs' charge:
# exact fits with one-token marks over V = 5 000 (n = 2 695 and 5 956,
# 3.6 M and 17.7 M pairs, 0.7 k and 3.5 k triples) peaked at 4.1 to 4.3 B
# per pair, everything included.  The overlap pairs are at most the triples
# and fit in TRIPLE_BYTES; the cells are charged by their bound min(pairs,
# n 2S), and their build peaks at 56 to 66 B per cell (72 at S = 5).  Under
# tracemalloc 18 runs needed at most 73.7 B per triple beyond the other
# terms and peaked at 79% to 99.7% of the estimate: the synthetic defaults
# exact at n = 1 542 and window 20 at n = 9 861, with their marks at
# initial gamma 0.3 and 1 and redrawn over V = 2 to 128 tokens (0.2 to 10.6
# triples per pair).  The parameters (theta, (1 - gamma) theta, the
# token counts and the theta-step's sums; A, its log and the cell sums)
# took 42 to 56 B per entry beyond that, with S V or S S of 1 M to 10 M and
# 60 to 1 000 events.  Root passes with few pairs and an n x S result of
# 10 M entries peaked at 9.2 to 9.8 B per entry, all included (the result
# and a boolean check of it).
PAIR_BYTES = 5
TRIPLE_BYTES = 74
CELL_BYTES = 64
PARAM_BYTES = 60
ROOT_BYTES = 10
# Children per block of the root passes' dense posteriors (`_eta_blocks`):
# large enough that per-block numpy calls cost little, small enough that
# the block's triangular solve stays cheap.
ROOT_BLOCK = 64


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _gib(nbytes: int) -> str:
    """nbytes in GiB for a message: one decimal, or e-notation from 2^20 GiB
    on, which Decimal formats however large the int."""
    if nbytes < 2**50:
        return f"{nbytes / 2**30:.1f}"
    from decimal import Decimal
    return f"{Decimal(nbytes) / 2**30:.2e}"


def _check_memory(n: int, n_pairs: int, n_triples: int, S: int, V: int,
                  window: float | None, roots: bool = False) -> None:
    layout = n_pairs * PAIR_BYTES + n_triples * TRIPLE_BYTES + min(n_pairs, 2 * n * S) * CELL_BYTES
    result = roots * n * S * ROOT_BYTES
    param = S * (V + S) * PARAM_BYTES + result
    have = _physical_memory()
    if have is None or layout + param <= have:
        return
    fixes = []
    if param > have:  # fewer tokens shrink the parameters, not the n x S result
        fixes.append("use fewer %s (for example a larger %s in rootsource.ingest)" % (
            ("sources", "min_author_count") if result > have
            else ("sources or tokens", "min_author_count or min_count")))
    if param <= have or layout > have:
        hint = "a smaller" if window is not None else "a"
        fixes.append(f"pass {hint} truncation window (--truncate-window) to limit the "
                     f"candidate parents")
    what = f" and the root probabilities of {n} events" if roots else ""
    triples = f" and {n_triples} token-overlap triples" if n_triples else ""
    raise ValidationError(
        f"{n_pairs} candidate parent pairs{triples} need about {_gib(layout)} GiB and "
        f"the parameters of {S} sources and {V} tokens{what} {_gib(param)} GiB, more "
        f"than the {_gib(have)} GiB of physical memory; " + "; ".join(fixes))


def _first_partners(events: EventSequence, lo: np.ndarray):
    """Each mark entry's first in-window partner and own position in the postings.

    Postings are sorted by (token, event), so the composite key tok * n + event
    is ascending and the in-window partners of posting p, of event i, are the
    postings keyed tok * n + [lo_i, i), just before p.  Returns (first, pos)
    per mark entry, in event order: entry k has the partners [first[k],
    pos[k]), one token-overlap triple each.
    """
    n = len(events)
    indptr, post_ev, _ = events.token_postings()
    key = np.repeat(np.arange(events.V, dtype=np.int64) * n, np.diff(indptr))
    start = key + lo[post_ev]
    key += post_ev
    pos = events.posting_positions()
    # one search per posting, whose keys ascend as the postings do, then the
    # entries' gather: several times faster than a search per entry
    return np.searchsorted(key, start, side="left")[pos], pos


def _class_states(cls: np.ndarray, times: np.ndarray, nu: float):
    """Events grouped by class, each class in time order, and their own states.

    Returns (q, cq, own): q[p] is an event, cq[p] its class, ascending, and
    own[p] = sum over the class events m <= q[p] of exp(-(t[q[p]] - t_m) / nu)
    >= 1.  own follows the recursion E_p = 1 + d_p E_{p-1}, with d_p the
    decay since the class's previous event (0 for its first), as a
    Hillis-Steele scan: log2(n) passes that compose (decay, sum) pairs.
    Every term is a product of decays, so nothing overflows however long the
    sequence, and no term is subtracted.
    """
    q = np.argsort(cls, kind="stable")
    cq = cls[q]
    tq = times[q]
    gap = np.diff(tq, prepend=tq[:1])
    gap[np.diff(cq, prepend=-1) != 0] = np.inf  # a class's first event
    decay = np.exp(-gap / nu)
    own = np.ones(q.size)
    step = 1
    while step < q.size:
        own[step:] += decay[step:] * own[:-step]
        decay[step:] *= decay[:-step]
        step *= 2
    return q, cq, own


def _kernel_cells(events: EventSequence, nu: float, lo: np.ndarray):
    """Per child and parent class, the log sum of kappa over its candidate parents.

    Class c < S holds the events of source c with a non-empty mark, class
    S + c those with an empty one.  Child i has a cell for class c when a
    class-c event lies in [lo_i, i), holding log sum over those events j of
    kappa(t_i - t_j).  A sum over the class events up to the latest one, m,
    is exp(-(t_i - t_m) / nu) E_m with E_m >= 1 from `_class_states`, so no
    cell underflows however far back its events lie, and the in-window sum,
    E_m less the decayed state before the window, keeps E_m's last term.

    Returns (cell_start, cell_key, cell_log, cell_last), grouped by child:
    child i's cells of non-empty-mark classes are cell_start[2i]:cell_start[2i+1]
    and those of empty-mark classes cell_start[2i+1]:cell_start[2i+2], each in
    class order; cell_key is s_i * S + the class's source, and cell_last the
    cell's latest event m.
    """
    times, S, n = events.times, events.S, len(events)
    q, cq, own = _class_states(events.sources + S * (events.lengths == 0), times, nu)
    # event q[m] is the latest of its class before each child up to the
    # class's next event; of those, the children up to hi[m] have it in
    # their window, and so a cell
    hi = np.searchsorted(lo, q, side="right") - 1
    stop = np.minimum(hi, np.append(np.where(cq[1:] == cq[:-1], q[1:], n), n))
    m, i = ragged_ranges(q + 1, stop + 1)
    c = cq[m]
    # the latest class event before i's window, from the ascending composite
    # key class * n + event
    b = np.searchsorted(cq * n + q, c * n + lo[i]) - 1
    tq = times[q]
    log = own[m]
    early = (b >= 0) & (cq[b] == c)
    b = b[early]
    log[early] -= np.exp(-(tq[m[early]] - tq[b]) / nu) * own[b]
    del b, early
    np.log(log, out=log)
    log -= (times[i] - tq[m]) / nu + math.log(nu)
    last = q[m]
    del m
    # the children come in class order, so a stable sort keeps it per child
    seg = 2 * i + (c >= S)
    order = np.argsort(seg, kind="stable")
    cell_start = np.concatenate([[0], np.cumsum(np.bincount(seg, minlength=2 * n))])
    del seg
    # the key in place, then one gather at a time, each replacing its
    # source: so storing cell_last raises the build's peak by nothing
    c %= S
    cell_key = events.sources[i]
    cell_key *= S
    cell_key += c
    del i, c
    cell_key = cell_key[order]
    log = log[order]
    last = last[order]
    return cell_start, cell_key, log, last


class PairStructure:
    """Fixed candidate-parent layout for one event sequence and kernel setting.

    Pairs (i, j) with j < i (and t_i - t_j <= window * nu when a window is
    given) are laid out flat, nothing stored per pair: child i's parents are
    lo[i]..i-1, at row_start[i]:row_start[i+1].  Token-overlap triples
    (i, j, v) with x_{i,v} > 0 and x_{j,v} > 0 drive the mark-mixture
    corrections and the theta/gamma updates, child-major: grouped by child
    i, then token v, then parent j, so that a sweep's reads through tri_ov
    stay inside one child's overlap pairs.  The distinct (i, j) among them
    are the overlap pairs (ov_*): child i's are ov_row_start[i]:
    ov_row_start[i+1], and ov_parent holds their parents j in ascending
    order; tri_ov is the overlap pair of each triple.  tri_pair, each
    triple's position in the pair order, is the build's key for the
    distinct pairs.  cells holds, per child and parent class (source, empty
    or non-empty mark) with a candidate in the child's window, the log sum
    of kappa over those candidates (see `_kernel_cells`), and then each
    overlap pair's kernel cell and log kernel; the E-step reads the cells
    and the overlap pairs.  `__init__` builds the triples and the overlap
    pairs (`_build_overlaps`); cells, the one lazy part, is built on first
    use, since the mark-only pass reads none of it.  n_triples counts the
    triples before they are built.

    Everything here depends only on events, nu and window, so one instance
    is shared across sweeps, and later E-steps and root passes on the same
    events object with the same settings reuse it for as long as it is alive:
    `__init__` enters it in `_LIVE` under that key (see `_structure_for`),
    and `update_eta` its last state in `_LAST` (see `_state_at`).  A deep
    copy or a pickle holds every array and a copy of its events, so it finds
    neither entry.
    The pairs and then the triples are counted first; a layout that would
    not fit in physical memory, with its cells at their bound and the S x V
    and S x S parameter arrays, raises ValidationError before anything
    triple- or parameter-sized is allocated, and pairs and parameters that
    alone do not fit before anything V-sized.
    """

    def __init__(self, events: EventSequence, nu: float, window: float | None = None):
        if not 0 < nu < np.inf:
            raise ValidationError("nu must be positive and finite")
        if window is not None and not window > 0:
            raise ValidationError("truncation window must be positive")
        n = len(events)
        times = events.times
        S, V = events.S, events.V

        self.events = events
        self.nu = float(nu)
        self.window = None if window is None else float(window)

        if window is None:
            self.lo = np.zeros(n, dtype=np.int64)
        else:
            self.lo = np.searchsorted(times, times - window * nu, side="left")
        self.row_len = np.arange(n) - self.lo
        self.n_pairs = int(self.row_len.sum())
        # the pairs and parameters, before the postings' V-long token index
        _check_memory(n, self.n_pairs, 0, S, V, window)
        partners = _first_partners(events, self.lo)
        self.n_triples = int((partners[1] - partners[0]).sum())
        _check_memory(n, self.n_pairs, self.n_triples, S, V, window)
        self.row_start = np.concatenate([[0], np.cumsum(self.row_len)])
        self.kint = 1.0 - np.exp(-(events.T - times) / nu)

        self.counts_by_source = events.token_counts_by_source()
        self.nnz_row = events.entry_event
        # the distinct (source, token) keys of the marks, and each mark
        # entry's among them: the E-step takes logs of theta only there
        key = events.sources[self.nnz_row] * V + events.tok_index
        used = np.zeros(S * V, dtype=bool)
        used[key] = True
        self.key_used = np.flatnonzero(used)
        self.key_at = (np.cumsum(used) - 1)[key]

        self._build_overlaps(partners)
        _LIVE[_key(events, nu, window)] = self

    @property
    def pair_i(self) -> np.ndarray:
        """Child index of every pair; rebuilt on each access, not stored."""
        return np.repeat(np.arange(len(self.events)), self.row_len)

    def _build_overlaps(self, partners) -> None:
        """tri_*: one triple per mark entry and in-window partner (partners
        from `_first_partners`), grouped by child, then token, then parent;
        and ov_*: the distinct pairs among them, the overlap pairs, by child
        and their parents ov_parent in ascending order, with tri_ov each
        triple's.

        The mark entries come event by event, so each child's triples are
        contiguous and each sweep's reads through tri_ov stay inside that
        child's overlap pairs, ov_row_start[i]:ov_row_start[i+1].  Everything
        of the child's side is an entry's, repeated over its partners.
        """
        _, post_ev, post_norm = self.events.token_postings()
        entry, j_sel = ragged_ranges(*partners)
        self.tri_xjv = post_norm[j_sel]
        self.tri_pair = post_ev[j_sel]
        del j_sel
        self.tri_pair += (self.row_start[:-1] - self.lo)[self.nnz_row][entry]
        self.tri_key = self.key_used[self.key_at][entry]
        self.tri_xiv = self.events.tok_count[entry]
        del entry
        shared = np.zeros(self.n_pairs, dtype=bool)
        shared[self.tri_pair] = True
        ov = np.flatnonzero(shared)
        del shared
        # a pair-length map to overlap positions: a gather, where a search of
        # the overlap pairs per triple costs several times as much
        at = np.empty(self.n_pairs, dtype=np.int32 if ov.size < 2**31 else np.intp)
        at[ov] = np.arange(ov.size)
        self.tri_ov = at[self.tri_pair].astype(np.intp)
        del at
        self.ov_row_start = np.searchsorted(ov, self.row_start)
        self.ov_row_len = np.diff(self.ov_row_start)
        # each position less its child's row_start - lo: the parent
        i = np.repeat(np.arange(len(self.events)), self.ov_row_len)
        ov -= (self.row_start[:-1] - self.lo)[i]
        self.ov_parent = ov

    @cached_property
    def cells(self):
        """(cell_start, cell_key, cell_log, cell_last) of `_kernel_cells`, then
        (ov_cell, ov_log_kernel): each overlap pair's kernel cell s_i S + s_j
        (the flat index of A[s_i, s_j]) and its log kappa(t_i - t_j) =
        (t_j - t_i) / nu - log nu."""
        i = np.repeat(np.arange(len(self.events)), self.ov_row_len)
        j, sources, t = self.ov_parent, self.events.sources, self.events.times
        ov_cell = sources[i] * self.events.S + sources[j]
        ov_log_kernel = (t[j] - t[i]) / self.nu - np.log(self.nu)
        return (*_kernel_cells(self.events, self.nu, self.lo), ov_cell, ov_log_kernel)


class VariationalState:
    """Mean-field parent posteriors from one E-step over a PairStructure.

    eta0[k] is event k's immigrant probability and log_z holds the per-event
    log-normalizers.  The state carries the M-steps' and `elbo`'s inputs:
    eta_overlap (eta on the overlap pairs), eta_cells (the S x S sums of eta
    per child and parent source), eta_empty (each child's eta mass on parents
    with an empty mark), _at, a `ModelParams` copy of its own parameters
    (set by `update_eta`, whose `_weights` gate they passed), and, once
    `elbo` asks at other parameters, the mean log weight at _at; and
    _factors, the terms from which `_eta_blocks` expands eta over blocks of
    children for the root passes.  eta_pair, eta on every pair of the
    structure, is built from those blocks on first access; nothing in the
    package reads it.

    The arrays must not be mutated in place: while the state is alive and
    `_LAST` holds it as the last `update_eta` on its layout's key, a full
    root pass at the parameters of its E-step reads them instead of
    recomputing them (see `_state_at`).
    """

    def __init__(self, structure: PairStructure, eta0: np.ndarray, log_z: np.ndarray):
        self.structure = structure
        self.eta0 = eta0
        self.log_z = log_z

    @cached_property
    def eta_pair(self) -> np.ndarray:
        """eta on every pair, in pair order, copied from `_eta_blocks` into
        one array; no pass reads it."""
        st = self.structure
        out = np.empty(st.n_pairs)
        for a, b, lo_a, D in _eta_blocks(self):
            j = np.arange(lo_a, b)
            keep = (j >= st.lo[a:b, None]) & (j < np.arange(a, b)[:, None])
            out[st.row_start[a]:st.row_start[b]] = D.T[keep]
        return out

    @cached_property
    def _mean_log_w(self) -> float:
        """The mean log weight at the parameters of the state's E-step, for
        `elbo` at other parameters; from the copy that `update_eta` made
        (`_at`)."""
        return _mean_log_weight(self, *_weights(self.structure, self._at))

    def __len__(self) -> int:
        return self.eta0.size


@dataclass
class FitReport:
    params: ModelParams
    eta: VariationalState
    elbo_trace: np.ndarray
    iterations: int
    converged: bool
    numerator_clamps: int = 0
    window: float | None = None
    # windowed fits: the largest and the mean share of an event's excitation
    # intensity sum_j A[s_i, s_j] kappa(t_i - t_j) that the window left out,
    # at the returned parameters (None in exact mode)
    window_dropped_max: float | None = None
    window_dropped_mean: float | None = None


def _key(events, nu, window) -> tuple:
    return id(events), float(nu), None if window is None else float(window)


def _structure_for(events, nu, window):
    """The live PairStructure built last for these events and kernel settings,
    else a new one."""
    return _LIVE.get(_key(events, nu, window)) or PairStructure(events, nu, window=window)


def _state_at(structure: PairStructure, params: ModelParams) -> "VariationalState | None":
    """The last `update_eta` state on a layout of structure's events and
    settings, if it is alive and ran at params' values, else None.

    The values are compared (`_same`), not the objects: a fit that stops at
    an exact fixed point returns new parameters equal to those of its last
    E-step.
    """
    state = _LAST.get(_key(structure.events, structure.nu, structure.window))
    return state if state is not None and _same(state._at, params) else None


def _same(p: ModelParams, q: ModelParams) -> bool:
    """Whether p and q hold equal rho, A, theta, gamma and nu, by value: equal
    parameters pass `_weights`' gate together."""
    return (p.gamma == q.gamma and p.nu == q.nu and np.array_equal(p.rho, q.rho)
            and np.array_equal(p.A, q.A) and np.array_equal(p.theta, q.theta))


def _weights(structure: PairStructure, params: ModelParams, use_time: bool = True):
    """The terms of the log posterior weights, relative to a per-child constant.

    Returns (log_a, logw_imm, c, factor, sigma).  c_i sums x log((1 - g)
    theta) over child i's live tokens, those with (1 - g) theta[s_i, v] > 0
    (a dead token, at a zero in theta or g = 1, only a parent can emit);
    the posteriors do not depend on it.  logw_imm + c is log(rho f_imm) and
    log_a is log A flattened.  A parent j that shares no token with child i
    has log A[s_i, s_j] + log kappa(t_i - t_j) + factor[i, 0] (0, or -inf
    when child i has a dead token), or + factor[i, 1] = log f_imm - c_i when
    its mark is empty.  An overlap pair has sigma + log_a[ov_cell] + ov_log_kernel:
    sigma sums x log1p(g xt / ((1 - g) theta)) over its triples (x log(g xt)
    for a dead token), -inf when they miss one of the child's dead tokens.
    use_time=False leaves out rho and A kappa (log_a None).  On events with
    no marks c and factor are 0 and sigma is empty: the temporal-only terms.
    Parameters whose S or V differ from the events', or whose nu differs
    from the structure's, raise ValidationError naming both values: every
    E-step, root pass and `elbo` passes this gate.
    """
    events = structure.events
    if params.S != events.S or params.V != events.V:
        raise ValidationError(
            f"parameters of S x V = {params.S} x {params.V} do not match the events' "
            f"S x V = {events.S} x {events.V}")
    if params.nu != structure.nu:
        raise ValidationError(f"the structure was built for nu = {structure.nu}, "
                              f"the parameters have nu = {params.nu}")
    n = len(events)
    with np.errstate(divide="ignore"):
        log_rho = np.log(params.rho)
        log_a = np.log(params.A).ravel() if use_time else None
    factor = np.zeros((n, 2))
    used, at = structure.key_used, structure.key_at
    theta = params.theta.ravel()
    g = params.gamma
    own = (1.0 - g) * theta
    own_used = own[used]
    with np.errstate(divide="ignore"):
        log_f_imm = scatter_sum(structure.nnz_row,
                                events.tok_count * np.log(theta[used])[at], n)
        live = events.tok_count * np.log(own_used)[at]
    dead = own_used[at] == 0.0
    live[dead] = 0.0
    c = scatter_sum(structure.nnz_row, live, n)
    log_f_imm -= c
    factor[:, 1] = log_f_imm

    has_dead = dead.any()
    if has_dead:
        tri_dead = own[structure.tri_key] == 0.0
        n_dead = np.bincount(structure.nnz_row[dead], minlength=n).astype(np.int32)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the ratio g xt / ((1 - g) theta) is xt over (1 - g) theta / g, a
        # gather from one S x V table (inf at g = 0)
        term = (own / g)[structure.tri_key]
        np.divide(structure.tri_xjv, term, out=term)
        np.log1p(term, out=term)
        if has_dead:
            at_dead = structure.tri_xjv[tri_dead]
            at_dead *= g
            term[tri_dead] = np.log(at_dead, out=at_dead)
            del at_dead
    term *= structure.tri_xiv
    n_ov = structure.ov_parent.size
    sigma = scatter_sum(structure.tri_ov, term, n_ov)
    del term
    if has_dead:
        # the overlap pairs whose triples miss one of the child's dead tokens
        missed = np.bincount(structure.tri_ov[tri_dead], minlength=n_ov)
        missed -= np.repeat(n_dead, structure.ov_row_len)
        sigma[missed != 0] = -np.inf
        factor[n_dead != 0, 0] = -np.inf
    logw_imm = log_f_imm if log_a is None else log_rho[events.sources] + log_f_imm
    return log_a, logw_imm, c, factor, sigma


def _log_kernel_a(state: "VariationalState", i, cell) -> np.ndarray:
    """log A[cell] - (t_i / nu + log nu): child i's part of log eta_ij for a
    parent j in kernel cell `cell` = s_i S + s_j.  Broadcasts.

    The full state's eta_ij is exp((this + t_j / nu) + F[i, h_j]), F being
    the state's per-child factor (less log z) and h_j 1 for an empty mark,
    else 0; the mark-only state's is exp(F[i, h_j]).  The temporal-only
    state is a full state on events without marks.  The
    exp is taken of the sum, so nothing overflows however long the sequence,
    and F comes last, so that posteriors whose other terms are integers tie
    exactly when their sums do.  The root passes and `mini_conversations`
    both follow this order of operations, so that they agree bit for bit.
    """
    st = state.structure
    return state._factors[0][cell] - (st.events.times[i] / st.nu + math.log(st.nu))


def _eta_blocks(state: "VariationalState"):
    """The state's eta over all pairs, ROOT_BLOCK children at a time.

    Yields (a, b, lo_a, D) for children a <= i < b: D[j - lo_a, i - a] is
    eta_ij for the parents lo_a <= j < b, 0 outside child i's window
    lo_i <= j < i.  Every block is laid on one B-wide buffer, and D is a
    view of its first b - a columns (fewer than B only in the last block),
    so every block places its overlap pairs alike; the next block
    overwrites D, so a reader uses or copies it before asking for the next.
    D holds a block of rows transposed, so that its build gathers whole rows
    of the block's (S, b - a) table of `_log_kernel_a`, one per parent by
    its source, and adds each child's factor to whole rows; the overlap
    pairs then take their own posteriors.  The work per pass (t / nu, the
    empty marks, each overlap pair's place j B + i mod B in the buffer) is
    done once, and nothing pair-long is allocated.
    """
    st = state.structure
    events, B = st.events, ROOT_BLOCK
    n, S = len(events), events.S
    sources, lo = events.sources, st.lo.tolist()
    use_time = state._factors[0] is not None
    f_mark, f_empty = state._factors[1].T
    t_nu = events.times / st.nu
    # the parents with an empty mark of block k, empty[e_lo[k]:e_hi[k]],
    # when some child weighs them otherwise
    empty = np.flatnonzero((events.lengths == 0) & (f_mark != f_empty).any())
    e_lo = np.searchsorted(empty, st.lo[::B]).tolist()
    e_hi = np.searchsorted(empty, np.arange(B, n + B, B)).tolist()
    ov, ov_start = state.eta_overlap, st.ov_row_start.tolist()
    # j B + (i mod B) per overlap pair (i, j): lo_a B past its place in its
    # block's B-wide buffer
    ov_at = st.ov_parent * B
    ov_at += np.repeat(np.arange(n) % B, st.ov_row_len)
    by_source = np.arange(S)[:, None]
    lower = np.tril(np.ones((B, B), dtype=bool))
    # one B-wide buffer for every block's D, which its reader is done with
    # before the next block is built: no allocation, and no page faults, per
    # block; the last block, of m < B children, is its first m columns
    buf = np.empty(max((min(a + B, n) - lo[a] for a in range(0, n, B)), default=0) * B)
    for k, a in enumerate(range(0, n, B)):
        b = min(a + B, n)
        m, lo_a = b - a, lo[a]
        full = buf[:(b - lo_a) * B].reshape(b - lo_a, B)
        D = full[:, :m]
        if use_time:
            table = _log_kernel_a(state, slice(a, b), sources[a:b] * S + by_source)
            np.take(table, sources[lo_a:b], axis=0, out=D, mode="clip")  # "raise" buffers out
            D += t_nu[lo_a:b, None]
        else:
            D.fill(0.0)
        if e_hi[k] > e_lo[k]:  # these parents take the other factor
            hole = empty[e_lo[k]:e_hi[k]] - lo_a
            base = D[hole]
            base += f_empty[a:b]
        D += f_mark[a:b]
        if e_hi[k] > e_lo[k]:
            D[hole] = base
        with np.errstate(over="ignore"):  # at j >= i, zeroed below
            np.exp(D, out=D)
        # 0 outside child i's window: j >= i, and j < lo_i for the parents
        # not in every child's window
        np.copyto(D[a - lo_a:], 0.0, where=lower[:m, :m])
        early = lo[b - 1] - lo_a
        if early:
            np.copyto(D[:early], 0.0, where=np.arange(lo_a, lo_a + early)[:, None] < st.lo[a:b])
        s, e = ov_start[a], ov_start[b]
        full.ravel()[ov_at[s:e] - lo_a * B] = ov[s:e]
        yield a, b, lo_a, D


def _raise_if_dead(m: np.ndarray) -> None:
    bad = ~np.isfinite(m)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalError(
            f"all parent hypotheses for event {k + 1} have zero probability "
            f"(degenerate theta or zero intensities)")


def _e_step(structure: PairStructure, params: ModelParams,
            use_time: bool = True) -> VariationalState:
    """The E-step of `update_eta`, from the kernel cells and the overlap pairs.

    Relative to c_i, child i's weights are: the immigrant rho f_imm; per
    cell, A[s_i, s'] times the cell's kernel sum, times f_imm for a class of
    parents with an empty mark (the other cells are dropped when child i has
    a dead token); and, per overlap pair, its excess w_ij (1 - e^{-sigma_ij})
    over its cell's share (all of w_ij for a child with a dead token), where
    sigma_ij is the pair's log mark density.  No term is negative, so the
    normalizer sums without cancellation, with a per-child maximum taken out.

    The temporal pass runs this on events without marks, where every mark
    density is 1.  use_time=False (the mark pass) gives every parent that
    shares no token with child i the weight e^{factor[i, h]} whatever its
    time, so each half's one cell holds its count of parents; its state
    lacks eta_cells and eta_empty, which only the M-steps and `elbo` read.
    """
    n, S = len(structure.events), structure.events.S
    log_a, logw_imm, c, factor, sigma = _weights(structure, params, use_time)
    ov_len, ov_start = structure.ov_row_len, structure.ov_row_start
    excess = -np.expm1(-sigma)
    dead = factor[:, 0] == -np.inf
    if dead.any():
        excess[np.repeat(dead, ov_len)] = 1.0
    if use_time:
        cell_start, cell_key, cell_log, _, ov_cell, ov_log_kernel = structure.cells
        logw = log_a[cell_key]
        logw += cell_log
        logw_ov = log_a[ov_cell]
        logw_ov += ov_log_kernel
        logw_ov += sigma
    else:
        # one cell per half: its parents with a non-empty and an empty mark,
        # from a prefix count of the empty marks
        empty = np.concatenate([[0], np.cumsum(structure.events.lengths == 0)])
        count = empty[:-1] - empty[structure.lo]
        cell_start = np.arange(2 * n + 1)
        with np.errstate(divide="ignore"):
            logw = np.log(np.stack([structure.row_len - count, count], axis=1)).ravel()
        logw_ov = sigma  # not read again

    top = (segment_max(logw, cell_start).reshape(n, 2) + factor).max(axis=1)
    m = np.maximum(np.maximum(logw_imm, top), segment_max(logw_ov, ov_start))
    _raise_if_dead(m)
    wi = np.exp(logw_imm - m)
    logw -= np.repeat(m[:, None] - factor, np.diff(cell_start))
    w = np.exp(logw, out=logw)
    logw_ov -= np.repeat(m, ov_len)
    w_ov = np.exp(logw_ov, out=logw_ov)
    excess *= w_ov
    halves = segment_sum(w, cell_start).reshape(n, 2)
    z = wi + halves.sum(axis=1) + segment_sum(excess, ov_start)
    z_ov = np.repeat(z, ov_len)
    w_ov /= z_ov
    excess /= z_ov
    w /= np.repeat(z, np.diff(cell_start[::2]))
    log_zr = m + np.log(z)

    state = VariationalState(structure, wi / z, log_zr + c)
    state.eta_overlap = w_ov
    if use_time:
        cells = np.bincount(cell_key, weights=w, minlength=S * S)
        cells += np.bincount(ov_cell, weights=excess, minlength=S * S)
        state.eta_cells = cells.reshape(S, S)
        state.eta_empty = halves[:, 1] / z
    factor -= log_zr[:, None]
    state._factors = (log_a, factor)
    return state


def update_eta(events: EventSequence, params: ModelParams,
               structure: PairStructure | None = None,
               window: float | None = None) -> VariationalState:
    """E-step: eta_i0 oc rho[s_i] f(x_i|t_i,s_i), eta_ij oc lambda_j(t_i) f(x_i|t_i,s_i,e_j).

    Runs in O(cells + overlap pairs + triples) from the structure's kernel
    cells and overlap pairs; nothing per pair is built.  Normalization is
    done per event with the largest log weight taken out; a component at
    -inf gets exactly zero weight.  Raises NumericalError naming the first
    event whose components are all -inf, and ValidationError, naming both
    values, when the structure was built for another events object, for a
    window other than one that is given, or (`_weights`' gate) for a nu
    other than params.nu.  The returned state keeps a deep copy of params
    (`_at`), so later changes to params' arrays do not move it, and is
    recorded in `_LAST` for as long as it is alive, so a full root pass at
    parameters of equal value reuses it (`_state_at`).
    """
    if structure is None:
        structure = _structure_for(events, params.nu, window)
    _check_built_for(structure, events)
    if window is not None and structure.window != window:
        raise ValidationError(f"the structure was built for window {structure.window}, "
                              f"not the given {window}")
    state = _e_step(structure, params)
    state._at = copy.deepcopy(params)
    _LAST[_key(structure.events, structure.nu, structure.window)] = state
    return state


def _check_prior(prior: PriorConfig, S: int) -> None:
    """Prior shapes a_rho and a_alpha each hold one value, shared by the
    sources, or S, one per source; any other length raises ValidationError."""
    for name in ("a_rho", "a_alpha"):
        size = getattr(prior, name).size
        if size not in (1, S):
            raise ValidationError(f"prior {name} has length {size}, not 1 or S = {S}")


def _check_built_for(structure: PairStructure, events: EventSequence, what="structure") -> None:
    if structure.events is not events:
        raise ValidationError(f"the {what} was built for another events object "
                              f"({len(structure.events)} events, not the given {len(events)})")


def update_rho_alpha(events: EventSequence, state: VariationalState,
                     prior: PriorConfig, diag: dict | None = None):
    """M-step for (rho, A): Gamma-posterior means given the responsibilities.

    rho_s = (a_rho[s] - 1 + sum_{i: s_i=s} eta_i0) / (b_rho + T);
    A[s, s'] = (a_alpha[s] - 1 + sum eta_ij over child source s, parent source s')
               / (b_alpha + sum_{i: s_i=s'} (1 - e^{-(T - t_i)/nu})).
    Negative numerators (possible when a < 1) are clamped to a small floor and
    counted in diag["clamped"].  A state built on another events object, or
    prior shapes of a length other than 1 or S, raise ValidationError.
    """
    _check_built_for(state.structure, events, "state")
    S = events.S
    _check_prior(prior, S)
    rho_num = prior.a_rho - 1.0 + np.bincount(events.sources, weights=state.eta0,
                                              minlength=S)
    a_num = state.eta_cells + (prior.a_alpha - 1.0)[:, None]
    clamped = int((rho_num < 0).sum() + (a_num < 0).sum())
    if diag is not None:
        diag["clamped"] = diag.get("clamped", 0) + clamped
    rho_num = np.where(rho_num < 0, NUMERATOR_FLOOR, rho_num)
    a_num = np.where(a_num < 0, NUMERATOR_FLOOR, a_num)

    rho = rho_num / (prior.b_rho + events.T)
    a_den = prior.b_alpha + np.bincount(events.sources, weights=state.structure.kint,
                                        minlength=S)
    with np.errstate(invalid="ignore", divide="ignore"):
        A = np.where(a_den[None, :] > 0, a_num / a_den[None, :], 0.0)
    return rho, A


def update_theta_gamma(events: EventSequence, state: VariationalState, current):
    """M-step for (theta, gamma) via the Jensen minorant tight at `current`.

    With xi_{j,v}^(s) = g xt_{j,v} / ((1-g) th[s,v] + g xt_{j,v}) evaluated at
    the current estimates, theta[s, v] oc sum over events of source s of
    x_{i,v} (1 - sum_j eta_ij xi), and gamma = sum eta_ij x_{i,v} xi / sum
    eta_ij x_{i,v}.  Pairs whose parent has an empty mark use the immigrant
    density and carry no information about gamma, so they are excluded from
    its ratio.  A state built on another events object raises
    ValidationError.
    """
    st = state.structure
    _check_built_for(st, events, "state")
    theta_hat = np.asarray(current[0], dtype=np.float64)
    gamma_hat = float(current[1])
    S, V = events.S, events.V
    counts = st.counts_by_source
    if gamma_hat == 0.0:
        # xi = 0 identically: theta reduces to raw per-source frequencies and
        # gamma = 0 is a fixed point of the update.
        theta_num = counts.copy()
        gamma_new = 0.0
    else:
        # xi = xt / ((1 - g) theta / g + xt), 1 at a dead token, then the
        # weights eta_ij x_iv xi, in place: at most three triple-length
        # buffers at a time
        xi = ((1.0 - gamma_hat) * theta_hat.ravel() / gamma_hat)[st.tri_key]
        xi += st.tri_xjv
        np.divide(st.tri_xjv, xi, out=xi)
        w = state.eta_overlap[st.tri_ov]
        w *= st.tri_xiv
        w *= xi
        del xi
        theta_num = counts - scatter_sum(st.tri_key, w, S * V).reshape(S, V)
        gamma_num = float(w.sum())
        # sum of eta_ij L_i over the pairs whose parent has a non-empty mark
        lengths = events.lengths
        gamma_den = float(lengths @ (1.0 - state.eta0) - state.eta_empty @ lengths)
        if gamma_den <= 0.0:
            gamma_new = gamma_hat
        else:
            gamma_new = min(max(gamma_num / gamma_den, GAMMA_FLOOR), 1.0 - GAMMA_FLOOR)

    theta_num = np.maximum(theta_num, THETA_FLOOR)
    theta = theta_num / theta_num.sum(axis=1, keepdims=True) if V else theta_num
    return theta, gamma_new


def _compensator_terms(structure: PairStructure, params: ModelParams) -> float:
    events = structure.events
    # a dot product, not T * rho.sum(): the two round differently
    base = float(np.dot(params.rho, np.full(events.S, events.T)))
    col = params.A.sum(axis=0)
    excite = float(np.sum(col[events.sources] * structure.kint, dtype=np.longdouble))
    return base + excite


def _prior_terms(params: ModelParams, prior: PriorConfig | None) -> float:
    if prior is None:
        return 0.0
    _check_prior(prior, params.S)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_rho = float(np.sum(xlogy(prior.a_rho - 1.0, params.rho))
                      - prior.b_rho * params.rho.sum())
        t_a = float(np.sum(xlogy((prior.a_alpha - 1.0)[:, None], params.A))
                    - prior.b_alpha * params.A.sum())
    return t_rho + t_a


def _mean_log_weight(state: VariationalState, log_a: np.ndarray, logw_imm: np.ndarray,
                     c: np.ndarray, factor: np.ndarray, sigma: np.ndarray) -> float:
    """sum_i sum_k eta_ik log w_ik less the kernels, at `_weights`' terms.

    The state's masses weigh c, the immigrant, log A per S x S cell, the
    empty-mark factor and sigma on the overlap pairs; a term with no mass
    adds 0.  A parent with a non-empty mark that shares no token with its
    child adds factor[i, 0], which is 0 wherever the state gives it mass
    (`elbo` checks the children whose token is dead at other parameters).
    """
    def mean(mass, log_w):
        with np.errstate(invalid="ignore"):
            value = float(np.dot(mass, log_w))
        if math.isnan(value):  # 0 * -inf: a term with no mass adds 0
            value = float(np.dot(mass, np.where(mass > 0, log_w, 0.0)))
        return value

    return math.fsum([float(c.sum()), mean(state.eta0, logw_imm),
                      mean(state.eta_cells.ravel(), log_a),
                      mean(state.eta_empty, factor[:, 1]), mean(state.eta_overlap, sigma)])


def _open_children(structure: PairStructure, log_a: np.ndarray) -> np.ndarray:
    """Whether each child has a parent with a non-empty mark that shares no
    token with it, where log_a[s_i S + s_j] > -inf: per child, such cells
    hold more parents than overlap pairs."""
    events, n, S = structure.events, len(structure.events), structure.events.S
    cell_start, cell_key, _, cell_last, ov_cell, _ = structure.cells
    seg = np.repeat(np.arange(2 * n), np.diff(cell_start))
    keep = (seg % 2 == 0) & (log_a[cell_key] > -np.inf)
    i, cls = seg[keep] // 2, cell_key[keep] % S
    # the events by class (source, or S + source for an empty mark), then time
    key = np.sort((events.sources + S * (events.lengths == 0)) * n + np.arange(n))
    count = (np.searchsorted(key, cls * n + cell_last[keep], side="right")
             - np.searchsorted(key, cls * n + structure.lo[i]))
    shared = np.bincount(np.repeat(np.arange(n), structure.ov_row_len),
                         weights=log_a[ov_cell] > -np.inf, minlength=n)
    return np.bincount(i, weights=count, minlength=n) > shared


def elbo(events: EventSequence, params: ModelParams, state: VariationalState,
         prior: PriorConfig | None = None) -> float:
    """Evaluate L~(Theta, eta) exactly (multinomial coefficient excluded).

    eta is the state's E-step at parameters Theta0, where L~ equals sum_i
    log z_i less the compensator, plus the Gamma log-prior terms when a
    prior is supplied: at parameters equal to Theta0 (`_same`) that is all
    it sums, so it needs no weights' terms, and `fit` records its trace
    with it.  At other parameters Theta it adds sum_ik eta_ik (log
    w_ik(Theta) - log w_ik(Theta0)); the kernels cancel, so this needs only
    the state's masses and `_weights`' terms at Theta, and, on the state's
    first such call, at Theta0; nothing per pair.  A state built on another
    events object, even one of the same length, raises ValidationError, as
    do parameters of another nu, S or V (`_weights`) and prior shapes of a
    length other than 1 or S; a NaN value raises NumericalError.
    """
    st = state.structure
    _check_built_for(st, events, "state")
    moved, dead = [], False
    if not _same(state._at, params):
        own = state._mean_log_w  # first, so that its terms are gone before those at Theta
        log_a, logw_imm, c, factor, sigma = _weights(st, params)
        moved = [_mean_log_weight(state, log_a, logw_imm, c, factor, sigma), -own]
        # a child whose token is dead at Theta but not at Theta0 gives weight
        # 0 to the parents with mass that share no token with it
        fresh = (factor[:, 0] == -np.inf) & (state._factors[1][:, 0] > -np.inf)
        dead = fresh.any() and (fresh & _open_children(st, state._factors[0])).any()
    value = math.fsum([-_compensator_terms(st, params),
                       float(np.sum(state.log_z, dtype=np.longdouble)),
                       _prior_terms(params, prior), *moved])
    if dead:
        value = -math.inf
    if math.isnan(value):
        raise NumericalError("ELBO evaluated to NaN")
    return value


def _window_dropped(structure: PairStructure, A: np.ndarray) -> np.ndarray | None:
    """Per event, the share of sum_j A[s_i, s_j] kappa(t_i - t_j) over all
    j < i that lies outside the window (0 without earlier excitation).

    The kept part sums the kernel cells; the dropped part adds up, source by
    source, the decayed state of the source's latest event before the
    window, in O(n) memory.  None in exact mode.
    """
    if structure.window is None:
        return None
    events, nu, lo = structure.events, structure.nu, structure.lo
    times, n = events.times, len(events)
    with np.errstate(divide="ignore"):
        log_a = np.log(A)
    cell_start, cell_key, cell_log = structure.cells[:3]
    rows = cell_start[::2]
    x = log_a.ravel()[cell_key] + cell_log
    top = segment_max(x, rows)
    top[~np.isfinite(top)] = 0.0
    x -= np.repeat(top, np.diff(rows))
    with np.errstate(divide="ignore"):
        kept = np.log(segment_sum(np.exp(x, out=x), rows)) + top
    # the dropped part, source by source: for each window that starts past
    # the source's first event, the decayed state of its latest event before
    q, sq, own = _class_states(events.sources, times, nu)
    log_own = np.log(own) - math.log(nu)
    lost = np.full(n, -np.inf)
    bounds = np.flatnonzero(np.diff(sq, prepend=-1)).tolist() + [n]
    for a, z in zip(bounds, bounds[1:]):
        k = np.searchsorted(lo, q[a], side="right")
        b = a + np.searchsorted(q[a:z], lo[k:]) - 1
        np.logaddexp(lost[k:], log_a[events.sources[k:], sq[a]] + log_own[b]
                     - (times[k:] - times[q[b]]) / nu, out=lost[k:])
    share = np.zeros(n)
    hit = np.isfinite(lost)
    share[hit] = np.exp(lost[hit] - np.logaddexp(kept[hit], lost[hit]))
    return share


def _default_init(events: EventSequence, prior: PriorConfig, nu: float) -> ModelParams:
    S, V = events.S, events.V
    _check_prior(prior, S)
    counts = events.token_counts_by_source() + 1.0  # add-one smoothing
    theta = counts / counts.sum(axis=1, keepdims=True) if V else counts
    if prior.c is not None:
        rho = np.broadcast_to(prior.a_rho / prior.b_rho, S).copy()
        A = np.broadcast_to((prior.a_alpha / prior.b_alpha)[:, None], (S, S)).copy()
    else:
        c = 0.1
        n_s = np.bincount(events.sources, minlength=S).astype(np.float64)
        rho = n_s * c / events.T
        A = np.full((S, S), (1.0 - c) / S)
    return ModelParams(rho=rho, A=A, theta=theta, gamma=0.5, nu=nu)


def jitter_init(params: ModelParams, seed: int, scale: float = 0.1) -> ModelParams:
    """Multiplicative log-normal perturbation of an initial point (theta renormalized)."""
    rng = np.random.default_rng(seed)
    rho = params.rho * np.exp(scale * rng.standard_normal(params.S))
    A = params.A * np.exp(scale * rng.standard_normal((params.S, params.S)))
    theta = params.theta * np.exp(scale * rng.standard_normal(params.theta.shape))
    if params.V:
        theta = theta / theta.sum(axis=1, keepdims=True)
    return ModelParams(rho=rho, A=A, theta=theta, gamma=params.gamma, nu=params.nu)


def fit(events: EventSequence, init: ModelParams | None = None,
        prior: PriorConfig | None = None, tol: float = 1e-6, max_iters: int = 200,
        window: float | None = None, nu: float | None = None) -> FitReport:
    """Block-coordinate ascent eta -> (rho, A) -> (theta, gamma) until the ELBO settles.

    The trace records, for each sweep, `elbo` at the post-E-step point, with
    the prior: there it sums the E-step's normalizers, the compensator and
    the prior, and no weights' terms.  The sequence is monotone because
    every block update is.  Convergence: relative trace change below tol, or
    the parameters reach an exact fixed point.  A fit that reaches max_iters
    unconverged stops after that sweep's E-step, so the returned eta is the
    E-step at the returned parameters and elbo(events, params, eta) is the
    last trace value, by the same call.  Nothing builds
    per-pair posteriors: a full root pass at the returned parameters reads
    the returned eta's terms, a block of children at a time, and
    `mini_conversations` reads them too.
    A windowed fit reports the largest and the mean share of an event's
    excitation intensity that the window dropped.  Raises NumericalError on
    a NaN objective with the iteration number, ValidationError when tol is
    not positive (NaN too) or max_iters is below 1, and ValidationError,
    naming both values, when both init and nu are given and nu differs from
    init.nu.
    """
    if len(events) == 0:
        raise ValidationError("cannot fit an empty event sequence")
    if not tol > 0 or max_iters < 1:  # not tol <= 0, which NaN passes
        raise ValidationError("tol must be positive and max_iters >= 1")
    if init is None and nu is None:
        raise ValidationError("either init or nu must be given")
    if init is not None and nu is not None and nu != init.nu:
        raise ValidationError(f"nu = {nu} conflicts with the initial parameters' "
                              f"nu = {init.nu}")
    # the layout's memory check, before any S- or V-sized array is allocated
    structure = _structure_for(events, nu if init is None else init.nu, window)
    if prior is None:
        prior = PriorConfig.maximum_likelihood(events.S)
    params = _default_init(events, prior, nu) if init is None else init

    trace: list[float] = []
    diag: dict = {}
    converged = False
    state = None
    for it in range(1, max_iters + 1):
        state = update_eta(events, params, structure)
        try:
            trace.append(elbo(events, params, state, prior))
        except NumericalError as err:
            raise NumericalError(f"{err} at iteration {it}") from None
        if it > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2])):
            converged = True
            break
        if it == max_iters:
            break
        rho, A = update_rho_alpha(events, state, prior, diag)
        theta, gamma = update_theta_gamma(events, state, (params.theta, params.gamma))
        new_params = ModelParams(rho=rho, A=A, theta=theta, gamma=gamma, nu=params.nu)
        converged = _same(new_params, params)
        params = new_params
        if converged:
            break

    dropped = _window_dropped(structure, params.A)
    return FitReport(params=params, eta=state, elbo_trace=np.array(trace),
                     iterations=len(trace), converged=converged,
                     numerator_clamps=diag.get("clamped", 0), window=window,
                     window_dropped_max=None if dropped is None else float(dropped.max()),
                     window_dropped_mean=None if dropped is None else float(dropped.mean()))
