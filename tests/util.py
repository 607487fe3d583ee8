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
