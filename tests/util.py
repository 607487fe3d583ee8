"""Shared helpers for building small random test instances."""

import numpy as np

import rootsource as rs


def random_events(rng, n, S, V, T=10.0, max_len=5):
    """Random event sequence with mark bags of size 0..max_len-1."""
    times = np.sort(rng.uniform(0.05, T - 0.05, n))
    evs = []
    for k in range(n):
        L = int(rng.integers(0, max_len))
        counts = {}
        for t in rng.integers(0, V, L):
            counts[int(t)] = counts.get(int(t), 0) + 1
        evs.append(rs.Event.make(k + 1, float(times[k]), int(rng.integers(0, S)), counts))
    return rs.EventSequence.from_events(evs, T=T, S=S, V=V)


def random_params(rng, S, V, gamma=None, nu=None):
    return rs.ModelParams(
        rho=rng.uniform(0.05, 0.5, S),
        A=rng.uniform(0.0, 0.3, (S, S)),
        theta=rng.dirichlet(np.ones(V), size=S),
        gamma=float(rng.uniform(0.0, 0.95)) if gamma is None else gamma,
        nu=float(rng.uniform(0.5, 5.0)) if nu is None else nu,
    )


def random_instance(rng, n_max=9, S_max=5, V_max=21):
    """(events, params) pair small enough for the enumeration oracle."""
    n = int(rng.integers(2, n_max))
    S = int(rng.integers(1, S_max))
    V = int(rng.integers(2, V_max))
    events = random_events(rng, n, S, V)
    return events, random_params(rng, S, V)


def dense_eta(state):
    """Materialize variational responsibilities as an (n, n+1) array."""
    n = len(state.structure.events)
    out = np.zeros((n, n + 1))
    for k in range(n):
        out[k, : k + 1] = state.eta_vector(k)
    return out


def reference_pairs(structure):
    """(log_kernel, pair_cell, empty) per pair of a PairStructure: log kappa,
    the flat index s_i S + s_j of A and whether the parent's mark is empty,
    built from pair_i and pair_j by the formulas of the stored layout that
    the implicit one replaced."""
    events, nu = structure.events, structure.nu
    i, j = structure.pair_i, structure.pair_j
    log_kernel = -(events.times[i] - events.times[j]) / nu - np.log(nu)
    pair_cell = events.sources[i].astype(np.intp) * events.S + events.sources[j]
    return log_kernel, pair_cell, events.lengths[j] == 0


def reference_triples(structure):
    """Token-overlap triples of a PairStructure, built one token at a time.

    The per-token loop that PairStructure._build_triples replaced; returns
    (tri_pair, tri_key, tri_xiv, tri_xjv) in the same order and dtypes.
    """
    from rootsource._numeric import ragged_arange

    events = structure.events
    V = events.V
    indptr, post_ev, post_cnt, post_norm = events.token_postings()
    lo, sources = structure.lo, events.sources
    parts_pair, parts_key, parts_xiv, parts_xjv = [], [], [], []
    for v in range(V):
        a, b = indptr[v], indptr[v + 1]
        if b - a < 2:
            continue
        P = post_ev[a:b]
        starts = np.searchsorted(P, lo[P], side="left")
        stops = np.arange(P.size)
        m = stops - starts
        if not np.any(m > 0):
            continue
        child_sel = np.repeat(np.arange(P.size), np.maximum(m, 0))
        j_sel = ragged_arange(starts, stops)
        i_ev = P[child_sel]
        j_ev = P[j_sel]
        parts_pair.append(structure.row_start[i_ev] + (j_ev - lo[i_ev]))
        parts_key.append(sources[i_ev] * V + v)
        parts_xiv.append(post_cnt[a:b][child_sel])
        parts_xjv.append(post_norm[a:b][j_sel])
    if not parts_pair:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0), np.empty(0))
    return tuple(np.concatenate(p) for p in (parts_pair, parts_key, parts_xiv, parts_xjv))


def reference_log_mark_densities(structure, params):
    """The two-branch mark half of the E-step that the lean one replaced.

    Returns (log f(x_k | t_k, s_k), log f(x_i | t_i, s_i, e_j)) in absolute
    terms: no per-child constant is folded out.  Parameters without a dead
    token (gamma < 1, no reachable zero in theta) take the live-only branch,
    the rest the dead-token branch with its -inf mask.
    """
    import math

    from rootsource._numeric import scatter_sum

    events = structure.events
    n = len(events)
    key_nnz = structure.key_used[structure.key_at]
    lengths = events.lengths
    mix_scale = np.where(lengths[structure.pair_j] > 0,
                         np.repeat(lengths, structure.row_len), 0.0)
    theta = params.theta.ravel()
    with np.errstate(divide="ignore"):
        log_theta = np.log(theta)
    log_f_imm = scatter_sum(structure.nnz_row,
                            events.tok_count * log_theta[key_nnz], n)
    g = params.gamma
    if g == 0.0:
        return log_f_imm, np.repeat(log_f_imm, structure.row_len)

    own = (1.0 - g) * theta
    dead = own[key_nnz] == 0.0
    if g < 1.0 and not dead.any():
        ratio = (g * structure.tri_xjv) / own[structure.tri_key]
        log_f_pair = scatter_sum(structure.tri_pair, structure.tri_xiv * np.log1p(ratio),
                                 structure.n_pairs)
        log_f_pair += mix_scale * math.log1p(-g)
        log_f_pair += np.repeat(log_f_imm, structure.row_len)
        return log_f_imm, log_f_pair

    tri_own = own[structure.tri_key]
    tri_dead = tri_own == 0.0
    with np.errstate(divide="ignore"):
        term = np.where(tri_dead, np.log(g * structure.tri_xjv),
                        np.log1p(g * structure.tri_xjv / tri_own))
        log_own = np.log(own[key_nnz])
    log_f_pair = scatter_sum(structure.tri_pair, structure.tri_xiv * term, structure.n_pairs)
    log_f_live = scatter_sum(structure.nnz_row,
                             np.where(dead, 0.0, events.tok_count * log_own), n)
    log_f_pair += np.repeat(log_f_live, structure.row_len)
    n_dead = np.bincount(structure.nnz_row[dead], minlength=n).astype(np.int32)
    missed = np.bincount(structure.tri_pair[tri_dead], minlength=structure.n_pairs)
    missed -= np.repeat(n_dead, structure.row_len)
    log_f_pair[missed != 0] = -np.inf
    empty = np.flatnonzero(mix_scale == 0.0)
    child = np.searchsorted(structure.row_start, empty, side="right") - 1
    log_f_pair[empty] = log_f_imm[child]
    return log_f_imm, log_f_pair


def reference_e_step(structure, params):
    """(eta0, eta_pair, log_z) from the reference mark half, in absolute terms."""
    from rootsource.fitting import _normalize

    logw_imm, logw_pair = reference_log_mark_densities(structure, params)
    log_kernel, pair_cell, _ = reference_pairs(structure)
    with np.errstate(divide="ignore"):
        logw_imm += np.log(params.rho)[structure.events.sources]
        logw_pair += np.log(params.A).ravel()[pair_cell]
    logw_pair += log_kernel
    return _normalize(structure, logw_imm, logw_pair, np.zeros(len(structure.events)))
