"""The E-step's parent posteriors: their terms, their normalizer, and their readers.

The mean-field posterior Q(z) = prod_i Multi(z_i | 1, eta_i) puts on child
i's immigrant hypothesis and each candidate parent j weights proportional
to rho[s_i] f(x_i | t_i, s_i) and A[s_i, s_j] kappa(t_i - t_j) f(x_i | t_i,
s_i, e_j).  The log weights leave out c_i = sum over child i's live tokens
of x log((1 - gamma) theta), a constant all components of child i share:
the posteriors do not depend on it, and the normalizers and the objective
add it back.  Relative to c_i, a parent with a non-empty mark that shares
no token with child i has weight A[s_i, s_j] kappa(t_i - t_j), and one with
an empty mark that weight times f_imm e^{-c_i}.  So a sweep need not visit
the pairs: the layout's kernel cells give every child's total over such
parents, and only the pairs that share a token (the overlap pairs) add a
correction.  `_weights` computes the terms of every weight and `_e_step` is
the one normalizer: it sums them over the cells and the overlap pairs, for
the full model and for the mark-only root pass; the temporal-only pass is
the full model on the events without their marks.  Each overlap pair's mark
term sums its triples' log1p(g xt / ((1 - g) theta)), the ratio taken as xt
over an S x V table, (1 - g) theta / g, gathered by the triple's key.

The E-step costs O(cells + overlap pairs + triples), and nothing here
builds per-pair posteriors.  Its readers expand its terms a block of
children at a time (`_eta_blocks`), in one order of operations
(`_log_kernel_a`), so that they agree bit for bit: `root_pass` solves the
root-probability system r_i = eta_i0 e_{s_i} + sum_j eta_ij r_j by block
forward substitution, `argmax_parents` finds each child's most probable
parent, and `VariationalState.eta_pair` copies the blocks into one array
only when it is read.  A weak table keyed like the layouts' (`_LAST`)
holds the last `update_eta` state on each layout, so a full root pass at a
fit's final parameters reads its posteriors; each access is one lookup,
with no lock.  `weight_shift` gives `elbo` its terms at parameters other
than the E-step's: the state's masses times the weights' terms at both,
and nothing per pair either.
"""

from __future__ import annotations

import copy
import math
import weakref
from functools import cached_property

import numpy as np

from ._numeric import scatter_sum, segment_max, segment_sum
from .errors import NumericalError, ValidationError
from .layout import PairStructure, check_memory, structure_for
from .model import EventSequence, ModelParams

__all__ = ["VariationalState", "update_eta"]

# Children per block of the root passes' dense posteriors (`_eta_blocks`):
# large enough that per-block numpy calls cost little, small enough that
# the block's triangular solve stays cheap.
ROOT_BLOCK = 64

# The state of the last `update_eta` on a layout, under the layout's key
# (id(events), nu, window), held weakly, so a state lives exactly as long as
# its users keep it.  A state holds its layout and so its events, so no
# other object can take that id while the entry exists.  Every access is one
# get or one set, so the table needs no lock.
_LAST: "weakref.WeakValueDictionary[tuple, VariationalState]" = weakref.WeakValueDictionary()


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
    children for `root_pass` and `argmax_parents`.  eta_pair, eta on every pair of the
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


def _state_at(structure: PairStructure, params: ModelParams) -> "VariationalState | None":
    """The last `update_eta` state on a layout of structure's events and
    settings, if it is alive and ran at params' values, else None.

    The values are compared (`same_params`), not the objects: a fit that stops at
    an exact fixed point returns new parameters equal to those of its last
    E-step.
    """
    state = _LAST.get(structure.key)
    return state if state is not None and same_params(state._at, params) else None


def same_params(p: ModelParams, q: ModelParams) -> bool:
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
    exactly when their sums do.  `_eta_blocks` and `argmax_parents` both
    follow this order of operations, so that they agree bit for bit.
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
        structure = structure_for(events, params.nu, window)
    structure.check_built_for(events)
    if window is not None and structure.window != window:
        raise ValidationError(f"the structure was built for window {structure.window}, "
                              f"not the given {window}")
    state = _e_step(structure, params)
    state._at = copy.deepcopy(params)
    _LAST[structure.key] = state
    return state


def _mean_log_weight(state: VariationalState, log_a: np.ndarray, logw_imm: np.ndarray,
                     c: np.ndarray, factor: np.ndarray, sigma: np.ndarray) -> float:
    """sum_i sum_k eta_ik log w_ik less the kernels, at `_weights`' terms.

    The state's masses weigh c, the immigrant, log A per S x S cell, the
    empty-mark factor and sigma on the overlap pairs; a term with no mass
    adds 0.  A parent with a non-empty mark that shares no token with its
    child adds factor[i, 0], which is 0 wherever the state gives it mass
    (`weight_shift` checks the children whose token is dead at other
    parameters).
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


def weight_shift(state: VariationalState, params: ModelParams):
    """`elbo`'s terms at parameters Theta other than the E-step's, Theta0.

    Returns (terms, dead).  terms sum to sum_ik eta_ik (log w_ik(Theta) -
    log w_ik(Theta0)), and are none at parameters equal to Theta0
    (`same_params`).  The kernels cancel, so they need only the state's
    masses and `_weights`' terms at Theta and, on the state's first such
    call, at Theta0; nothing per pair.  dead is whether a child whose token
    is dead at Theta but not at Theta0 has a parent with mass that shares
    no token with it, and so weight 0: the objective is then -inf.
    Parameters of another nu, S or V raise ValidationError (`_weights`).
    """
    if same_params(state._at, params):
        return [], False
    own = state._mean_log_w  # first, so that its terms are gone before those at Theta
    log_a, logw_imm, c, factor, sigma = _weights(state.structure, params)
    fresh = (factor[:, 0] == -np.inf) & (state._factors[1][:, 0] > -np.inf)
    dead = fresh.any() and (fresh & _open_children(state.structure, state._factors[0])).any()
    return [_mean_log_weight(state, log_a, logw_imm, c, factor, sigma), -own], dead


def root_pass(events: EventSequence, params: ModelParams, use_time: bool = True,
              window: float | None = None) -> np.ndarray:
    """The n x S root probabilities r_i = eta_i0 e_{s_i} + sum_{j<i} eta_ij r_j.

    This is a unit lower-triangular system (I - H) R = diag(eta_0) onehot(s)
    in the posteriors H, solved by block forward substitution over
    `_eta_blocks`: each block's rows add the earlier rows' part in one
    matrix product, then solve their own unit lower-triangular block, and no
    per-pair array is built.  The n x S result is charged against physical
    memory before any layout is built, and again with the live layout of the
    same events and settings (`structure_for`), which the pass reuses or
    builds.  The full pass (use_time) reads the last `update_eta` state on
    that layout when it ran at parameters equal in value (`_state_at`), so a
    reused and a recomputed pass agree bit for bit; otherwise it runs
    `_e_step`, which leaves that record as it is.  use_time=False keeps only
    the mark densities (the mark-only pass).  Every row of r sums to 1
    because every row of eta does, so no row is renormalized.
    """
    params.validate()
    n, S, V = len(events), events.S, events.V
    # the n x S result r before any layout is built, then with a reused layout
    check_memory(n, 0, 0, S, V, window, roots=True)
    st = structure_for(events, params.nu, window)
    check_memory(n, st.n_pairs, st.n_triples, S, V, st.window, roots=True)
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
    return np.clip(r, 0.0, 1.0, out=r)


def argmax_parents(state: VariationalState, events: EventSequence) -> np.ndarray:
    """Each event's most probable parent: 0 for the immigrant, else the
    parent's 1-based index.

    The parents are read from the E-step's own terms, not from per-pair
    posteriors.  Child i's candidates are its overlap pairs (their
    eta_overlap) and, per kernel cell, the cell's latest event m, valued in
    the order of operations of `_log_kernel_a`, as `_eta_blocks` values it,
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
    st = state.structure
    st.check_built_for(events, "state")
    n = len(state)
    cell_start, cell_key, _, cell_last = st.cells[:4]
    # each cell's value at its latest event, as the root passes value eta
    seg = np.repeat(np.arange(2 * n), np.diff(cell_start))
    i = seg >> 1
    v_cell = np.exp((_log_kernel_a(state, i, cell_key) + events.times[cell_last] / st.nu)
                    + state._factors[1].ravel()[seg])
    v_ov, ov_start = state.eta_overlap, st.ov_row_start
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
    return np.where(state.eta0 < best, first + 1, 0)  # 0 = immigrant, j -> event j
