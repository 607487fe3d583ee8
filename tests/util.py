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


def covered_cells(events, window, nu):
    """(s, v) cells where every event of source s holding token v has an
    earlier in-window event holding v, so a zero theta[s, v] leaves a parent."""
    indptr, post_ev, _ = events.token_postings()
    ok = np.ones((events.S, events.V), dtype=bool)
    limit = np.inf if window is None else window * nu
    for v in range(events.V):
        P = post_ev[indptr[v]:indptr[v + 1]]
        missed = np.ones(P.size, dtype=bool)
        missed[1:] = np.diff(events.times[P]) > limit
        ok[events.sources[P[missed]], v] = False
    return ok


def eta_row(state, k):
    """Dense eta_k = (immigrant, parent 1, ..., parent k) of length k+1."""
    st = state.structure
    out = np.zeros(k + 1)
    out[0] = state.eta0[k]
    out[st.lo[k] + 1:k + 1] = state.eta_pair[st.row_start[k]:st.row_start[k + 1]]
    return out


def dense_eta(state):
    """Materialize variational responsibilities as an (n, n+1) array."""
    n = len(state.structure.events)
    out = np.zeros((n, n + 1))
    for k in range(n):
        out[k, : k + 1] = eta_row(state, k)
    return out


def reference_token_postings(events):
    """EventSequence.token_postings by a CSC transpose of the CSR marks with
    sorted indices: (indptr, event ids, normalized counts)."""
    from scipy import sparse

    csc = sparse.csr_matrix((events.tok_count, events.tok_index, events.tok_indptr),
                            shape=(len(events), events.V)).tocsc()
    csc.sort_indices()
    ev = csc.indices.astype(np.int64)
    cnt = csc.data.astype(np.float64)
    with np.errstate(invalid="ignore"):
        norm = cnt / events.lengths[ev]
    return csc.indptr.astype(np.int64), ev, norm


def pair_parents(structure):
    """The parent index of every pair of a PairStructure, in pair order:
    pair p of child i is parent p - row_start[i] + lo[i]."""
    shift = structure.row_start[:-1] - structure.lo
    return np.arange(structure.n_pairs) - np.repeat(shift, structure.row_len)


def ov_pairs(structure):
    """The position in pair order of every overlap pair of a PairStructure,
    rebuilt from its child and its parent ov_parent: row_start[i] + j - lo[i]."""
    child = np.repeat(np.arange(len(structure.events)), structure.ov_row_len)
    return structure.row_start[child] + structure.ov_parent - structure.lo[child]


def reference_pairs(structure):
    """(log_kernel, pair_cell, empty) per pair of a PairStructure: log kappa,
    the flat index s_i S + s_j of A and whether the parent's mark is empty,
    built from each pair's child and parent by the formulas of the stored
    layout that the implicit one replaced."""
    events, nu = structure.events, structure.nu
    i, j = structure.pair_i, pair_parents(structure)
    log_kernel = -(events.times[i] - events.times[j]) / nu - np.log(nu)
    pair_cell = events.sources[i].astype(np.intp) * events.S + events.sources[j]
    return log_kernel, pair_cell, events.lengths[j] == 0


def reference_triples(structure):
    """Token-overlap triples of a PairStructure, built one event at a time.

    Child-major order: each event's tokens in ascending order, and for each
    token the earlier in-window events holding it in ascending order.
    Returns (tri_pair, tri_key, tri_xiv, tri_xjv) in that order and in the
    dtypes of PairStructure._build_triples.
    """
    events = structure.events
    V = events.V
    lo, sources = structure.lo, events.sources
    parts_pair, parts_key, parts_xiv, parts_xjv = [], [], [], []
    for i in range(len(events)):
        child = events[i]
        for v, x in zip(child.tokens.tolist(), child.counts.tolist()):
            for j in range(lo[i], i):
                parent = events[j]
                x_j = parent.counts_at(np.array([v]))[0]
                if x_j > 0:
                    parts_pair.append(structure.row_start[i] + (j - lo[i]))
                    parts_key.append(sources[i] * V + v)
                    parts_xiv.append(x)
                    parts_xjv.append(x_j / events.lengths[j])
    return (np.array(parts_pair, dtype=np.int64), np.array(parts_key, dtype=np.int64),
            np.array(parts_xiv, dtype=np.float64), np.array(parts_xjv, dtype=np.float64))


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
    mix_scale = np.where(lengths[pair_parents(structure)] > 0,
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


def reference_normalize(structure, logw_imm, logw_pair, c):
    """Per-event log-sum-exp normalization of per-pair log weights.

    The per-pair normalizer that the E-step over kernel cells replaced:
    takes log weights relative to a per-child constant c and returns (eta0,
    eta_pair, log_z); eta_pair is logw_pair's buffer, normalized in place.
    """
    from rootsource._numeric import segment_max, segment_sum
    from rootsource.posterior import _raise_if_dead

    m = np.maximum(segment_max(logw_pair, structure.row_start), logw_imm)
    _raise_if_dead(m)
    wi = np.exp(logw_imm - m)
    eta_pair = logw_pair
    eta_pair -= np.repeat(m, structure.row_len)
    np.exp(eta_pair, out=eta_pair)
    z = wi + segment_sum(eta_pair, structure.row_start)
    eta_pair /= np.repeat(z, structure.row_len)
    return wi / z, eta_pair, m + np.log(z) + c


def reference_e_step(structure, params, use_time=True, use_marks=True):
    """(eta0, eta_pair, log_z) from the reference mark half, in absolute terms.

    use_time=False leaves out rho and A kappa, use_marks=False the marks:
    the weights of the mark-only and the temporal-only root passes.
    """
    n = len(structure.events)
    if use_marks:
        logw_imm, logw_pair = reference_log_mark_densities(structure, params)
    else:
        logw_imm, logw_pair = np.zeros(n), np.zeros(structure.n_pairs)
    if use_time:
        log_kernel, pair_cell, _ = reference_pairs(structure)
        with np.errstate(divide="ignore"):
            logw_imm += np.log(params.rho)[structure.events.sources]
            logw_pair += np.log(params.A).ravel()[pair_cell]
        logw_pair += log_kernel
    return reference_normalize(structure, logw_imm, logw_pair, np.zeros(n))


def reference_root_pass(structure, params, use_time=True, use_marks=True):
    """Root probabilities by forward substitution, row by row, over the
    reference E-step's per-pair posteriors."""
    eta0, eta_pair, _ = reference_e_step(structure, params, use_time, use_marks)
    events, row_start, lo = structure.events, structure.row_start, structure.lo
    r = np.zeros((len(events), events.S))
    for i in range(len(events)):
        r[i] = eta_pair[row_start[i]:row_start[i + 1]] @ r[lo[i]:i]
        r[i, events.sources[i]] += eta0[i]
    return r


def _reference_draw_length(rng, mean):
    # Poisson truncated to >= 1; rejection is cheap for any positive mean.
    L = int(rng.poisson(mean))
    while L == 0:
        L = int(rng.poisson(mean))
    return L


def _reference_draw_tokens(rng, cum, size):
    toks = np.searchsorted(cum, rng.random(size), side="right")
    return np.minimum(toks, cum.size - 1)


def reference_simulate(config):
    """The per-event simulator that the two-phase `simulate` replaced.

    Draws each event's mark as the event is added, with one np.unique per
    event; `simulate` must return the same arrays for every config.
    """
    from rootsource._numeric import root_positions
    from rootsource.errors import NumericalError
    from rootsource.simulate import BranchingStructure, GroundTruth, expected_event_count

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
        L = _reference_draw_length(rng, config.mean_text_length[s])
        if parent_pos >= 0 and cum_list[parent_pos].size > 0:
            inherit = rng.random(L) < params.gamma
            k = int(inherit.sum())
            toks = np.empty(L, dtype=np.int64)
            if k:
                pcum = cum_list[parent_pos]
                pick = np.searchsorted(pcum, rng.random(k) * pcum[-1], side="right")
                toks[:k] = tok_list[parent_pos][np.minimum(pick, pcum.size - 1)]
            if L - k:
                toks[k:] = _reference_draw_tokens(rng, theta_cum[s], L - k)
        else:
            k = 0
            toks = _reference_draw_tokens(rng, theta_cum[s], L)
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
    events = rs.EventSequence(times, sources, indptr, tok_index, tok_count, T, S, V)

    branching = BranchingStructure(parent_sorted)
    root_pos = root_positions(parent_sorted)
    truth = GroundTruth(
        branching=branching,
        roots=sources[root_pos],
        root_event=root_pos + 1,
        inherited_tokens=np.array(inherited, dtype=np.int64)[order],
    )
    return events, truth


def reference_write_events(events, fp):
    """The record-by-record events writer: one json.dumps per event."""
    import json

    fp.write(json.dumps({"schema": "events-v1", "T": events.T,
                         "S": events.S, "V": events.V}) + "\n")
    for e in events:
        x = {str(int(v)): int(c) for v, c in zip(e.tokens, e.counts)}
        fp.write(json.dumps({"i": e.index, "t": e.t, "s": e.s + 1, "x": x}) + "\n")


def reference_write_truth(truth, fp):
    """The record-by-record truth writer: one json.dumps per event."""
    import json

    fp.write(json.dumps({"schema": "truth-v1"}) + "\n")
    parent = truth.branching.parent
    for k in range(len(parent)):
        fp.write(json.dumps({"i": k + 1, "parent": int(parent[k]),
                             "root": int(truth.roots[k]) + 1}) + "\n")


def reference_write_rootprob(rpm, fp):
    """The row-by-row root-probability writer: repr per value."""
    fp.write(f"# rootprob-v1 mode={rpm.mode}\n")
    cols = ",".join(f"r_{s + 1}" for s in range(rpm.S))
    fp.write(f"event_index,{cols},argmax_source\n")
    arg = rpm.argmax_sources()
    for k in range(rpm.n):
        vals = ",".join(repr(float(v)) for v in rpm.r[k])
        fp.write(f"{k + 1},{vals},{arg[k] + 1}\n")


def reference_read_events(fp):
    """The record-by-record events reader: one json.loads per line, and
    int() and float() per mark entry."""
    import json

    from rootsource.dataio import _document, _field, _integer, _real
    from rootsource.errors import ValidationError

    header = _document(fp.readline(), "events-v1", "line 1: header")
    T, S, V = (_field(header, key, kind, "line 1: header")
               for key, kind in (("T", _real), ("S", _integer), ("V", _integer)))
    times, sources, indptr, tok_i, tok_c, blank = [], [], [0], [], [], []
    for lineno, line in enumerate(fp, start=2):
        if not line.strip():
            blank.append(lineno)
            continue
        try:
            rec = json.loads(line)
            t, s, x = float(rec["t"]), rec["s"], rec.get("x", {})
            if type(s) is not int:
                s = _integer(s, "field 's'")
            items = sorted((int(v), float(c)) for v, c in x.items())
            if "true" in line or "false" in line:
                _real(rec["t"], "field 't'")
                for c in x.values():
                    _real(c, "a count in field 'x'")
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError,
                ValueError, OverflowError) as err:
            raise ValidationError(f"line {lineno}: malformed event record ({err})") from err
        if s < 1:
            raise ValidationError(f"line {lineno}: source labels are 1-based in files")
        times.append(t)
        sources.append(s - 1)
        for v, c in items:
            tok_i.append(v)
            tok_c.append(c)
        indptr.append(len(tok_i))
    try:
        arrays = (np.array(times), np.array(sources, dtype=np.int64),
                  np.array(indptr, dtype=np.int64),
                  np.array(tok_i, dtype=np.int32), np.array(tok_c))
    except OverflowError as err:
        raise ValidationError(f"event record label out of range ({err})") from err
    bad = ~np.isfinite(arrays[0])
    if bad.any():
        k = int(np.argmax(bad))
        lineno = k + 2
        for skipped in blank:
            if skipped > lineno:
                break
            lineno += 1
        raise ValidationError(f"line {lineno}: malformed event record "
                              f"(field 't' is not finite: {times[k]})")
    return rs.EventSequence(*arrays, T=T, S=S, V=V)


def reference_read_truth(fp):
    """The record-by-record truth reader: one json.loads per line."""
    import json

    from rootsource.dataio import TruthInfo, _document, _integer
    from rootsource.errors import ValidationError

    _document(fp.readline(), "truth-v1", "line 1: header")
    parent, root = [], []
    for lineno, line in enumerate(fp, start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            parent.append(_integer(rec["parent"], "field 'parent'"))
            root.append(_integer(rec["root"], "field 'root'") - 1)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as err:
            raise ValidationError(f"line {lineno}: malformed truth record ({err})") from err
    try:
        return TruthInfo(parent=np.array(parent, dtype=np.int64),
                         root_sources=np.array(root, dtype=np.int64))
    except OverflowError as err:
        raise ValidationError(f"truth record label out of range ({err})") from err


def reference_read_rootprob(fp):
    """The row-by-row root-probability reader: float() per value."""
    import re

    from rootsource.errors import ValidationError

    m = re.match(r"#\s*rootprob-v1\s+mode=(\w+)", fp.readline().strip())
    if not m:
        raise ValidationError("line 1: expected '# rootprob-v1 mode=...' comment")
    header = fp.readline().strip().split(",")
    if header[:1] != ["event_index"] or header[-1:] != ["argmax_source"]:
        raise ValidationError("line 2: malformed column header")
    S = len(header) - 2
    rows = []
    for lineno, line in enumerate(fp, start=3):
        if not line.strip():
            continue
        parts = line.strip().split(",")
        if len(parts) != S + 2:
            raise ValidationError(f"line {lineno}: expected {S + 2} columns")
        try:
            rows.append([float(v) for v in parts[1:1 + S]])
        except ValueError as err:
            raise ValidationError(f"line {lineno}: malformed value ({err})") from err
    return rs.RootProbMatrix(np.array(rows).reshape(len(rows), S), m.group(1))


def reference_mini_conversations(state):
    """mini_conversations' (parent, conversations) by a scan of every pair of
    eta_pair: np.argmax's ties over (immigrant, parents in time order), roots
    followed event by event, threads grouped in a dict."""
    from rootsource._numeric import segment_max

    st = state.structure
    n = len(state)
    best = segment_max(state.eta_pair, st.row_start)
    parent = np.zeros(n, dtype=np.int64)
    # rows in blocks of about 2^16 pairs
    cut = np.searchsorted(st.row_start, np.arange(0, st.n_pairs, 1 << 16), "right") - 1
    for a, b in zip(cut.tolist(), cut[1:].tolist() + [n]):
        rows = a + np.flatnonzero(state.eta0[a:b] < best[a:b])
        pa = st.row_start[a]
        hits = pa + np.flatnonzero(state.eta_pair[pa:st.row_start[b]]
                                   == np.repeat(best[a:b], st.row_len[a:b]))
        first = hits[np.searchsorted(hits, st.row_start[rows])]
        parent[rows] = first - st.row_start[rows] + st.lo[rows] + 1
    root = np.arange(n)
    for k in range(n):
        if parent[k] > 0:
            root[k] = root[parent[k] - 1]
    members = {}
    for k, r in enumerate(root.tolist()):
        members.setdefault(r, []).append(k + 1)
    return parent, [members[r] for r in sorted(members)]
