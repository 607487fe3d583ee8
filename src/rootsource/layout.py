"""The candidate-parent layout of one event sequence and kernel setting.

The E-step is exact (all j < i pairs) by default.  An optional truncation
window keeps only pairs with t_i - t_j <= window * nu; dropped pairs have
kernel weight below exp(-window), and a fit then maximizes the same
restricted objective monotonically.  The pair layout (child i's parents are
lo_i..i-1) and the token-overlap triples (i, j, v) are built once per fit in
a PairStructure and reused across sweeps, and by root passes on the same
events while the fit's state is alive.  It builds the triples and their
overlap pairs on construction, and its one lazy part on first use: the
kernel cells with the overlap pairs' kernel terms, which the mark-only root
pass never reads.  An overlap pair is stored as its parent event, grouped
by child, which is all that its readers need.  A weak table keyed by
(id(events), nu, window) finds the live layout (`_LIVE`, read by
`structure_for`); each access is one lookup, with no lock.

The exponential kernel lets per-class sums of kappa over the earlier events
(Ozaki 1979), one class per source and parents with a non-empty or an empty
mark, give every child's total over a class's parents.  The sums are stored
sparsely, one cell per child and parent class with a candidate in the
child's window, so there are at most min(pairs, n 2S) of them however many
sources there are.  The triples are laid out child-major (by child, then
token, then parent), so a sweep's reads through their overlap pair (tri_ov)
stay inside one child's overlap pairs instead of jumping across the whole
overlap array as a token-major layout does.

`check_memory` charges a layout, the parameters and a root pass's n x S
result against physical memory before any of them is allocated, and
`window_dropped` measures the excitation that a window leaves out.
"""

from __future__ import annotations

import math
import os
import weakref
from functools import cached_property

import numpy as np

from ._numeric import ragged_ranges, segment_max, segment_sum
from .errors import ValidationError
from .model import EventSequence

__all__ = ["PairStructure"]

# The PairStructure built last for each key (id(events), nu, window), held
# weakly, so a layout lives exactly as long as its users keep it.  A layout
# holds its events, so no other object can take that id while the entry
# exists, and callers holding different sequences never see each other's
# entries.  Every access is one get or one set, with no iteration, so the
# table needs no lock; threads that miss the same key at once each build a
# layout, and the last is kept.
_LIVE: "weakref.WeakValueDictionary[tuple, PairStructure]" = weakref.WeakValueDictionary()

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


def check_memory(n: int, n_pairs: int, n_triples: int, S: int, V: int,
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
    `__init__` enters it in `_LIVE` under that key (see `structure_for`),
    and `update_eta` its last state in the posteriors' table under the same
    key.  A deep copy or a pickle holds every array and a copy of its
    events, so it finds neither entry.
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
        check_memory(n, self.n_pairs, 0, S, V, window)
        partners = _first_partners(events, self.lo)
        self.n_triples = int((partners[1] - partners[0]).sum())
        check_memory(n, self.n_pairs, self.n_triples, S, V, window)
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
        _LIVE[self.key] = self

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

    @property
    def key(self) -> tuple:
        """(id(events), nu, window): the key of the layout's table entries."""
        return id(self.events), self.nu, self.window

    def check_built_for(self, events: EventSequence, what: str = "structure") -> None:
        """Raise ValidationError unless the layout was built for this events object."""
        if self.events is not events:
            raise ValidationError(f"the {what} was built for another events object "
                                  f"({len(self.events)} events, not the given {len(events)})")


def structure_for(events, nu, window):
    """The live PairStructure built last for these events and kernel settings,
    else a new one."""
    key = id(events), float(nu), None if window is None else float(window)
    return _LIVE.get(key) or PairStructure(events, nu, window=window)


def window_dropped(structure: PairStructure, A: np.ndarray) -> np.ndarray | None:
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
