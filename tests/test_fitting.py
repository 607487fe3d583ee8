import copy
import gc
import math
import pickle
import re
import sys
import threading
import tracemalloc
import weakref
from functools import cached_property

import numpy as np
import pytest

import rootsource as rs
from rootsource.errors import NumericalError, ValidationError
from rootsource.fitting import (
    PriorConfig,
    default_init as _default_init,
    elbo,
    fit,
    jitter_init,
    update_rho_alpha,
    update_theta_gamma,
)
from rootsource.layout import (
    CELL_BYTES,
    PAIR_BYTES,
    PARAM_BYTES,
    ROOT_BYTES,
    TRIPLE_BYTES,
    _LIVE,
    PairStructure,
    _physical_memory,
    structure_for as _structure_for,
)
from rootsource.posterior import _LAST, VariationalState, _e_step, _state_at, update_eta
from rootsource.rootprob import enumerate_posteriors
from util import (covered_cells, dense_eta, ov_pairs, pair_parents, random_events,
                  random_instance, random_params, reference_e_step, reference_pairs,
                  reference_root_pass, reference_triples)


def brute_force_eta(events, params):
    """Parent posteriors straight from the model densities, one pair at a time."""
    n = len(events)
    out = np.zeros((n, n + 1))
    for k in range(n):
        e = events[k]
        logw = np.full(k + 1, -np.inf)
        logw[0] = (math.log(rs.base_intensity(params, e.s, e.t))
                   + rs.log_mark_density_immigrant(params, e))
        for j in range(k):
            lam = rs.excited_intensity(params, e.s, events[j], e.t)
            if lam > 0:
                logw[j + 1] = (math.log(lam)
                               + rs.log_mark_density_offspring(params, e, events[j]))
        m = logw.max()
        w = np.exp(logw - m)
        out[k, : k + 1] = w / w.sum()
    return out


def test_prior_config_modes():
    ml = PriorConfig.maximum_likelihood(3)
    np.testing.assert_array_equal(ml.a_rho, [1.0, 1.0, 1.0])
    assert ml.b_rho == 0.0 and ml.b_alpha == 0.0 and ml.c is None

    rng = np.random.default_rng(0)
    events, _ = random_instance(rng)
    eb = PriorConfig.empirical_bayes(events, c=0.2)
    counts = np.bincount(events.sources, minlength=events.S)
    np.testing.assert_array_equal(eb.a_rho, np.maximum(counts, 1.0))
    assert eb.b_rho == pytest.approx(events.T / 0.2)
    assert eb.b_alpha == pytest.approx(events.T / 0.8)

    with pytest.raises(ValidationError):
        PriorConfig.empirical_bayes(events, c=1.0)
    with pytest.raises(ValidationError):
        PriorConfig(a_rho=np.array([0.0]), b_rho=1.0, a_alpha=np.array([1.0]), b_alpha=1.0)
    with pytest.raises(ValidationError):
        PriorConfig(a_rho=np.array([1.0]), b_rho=-1.0, a_alpha=np.array([1.0]), b_alpha=1.0)


def test_pair_structure_layout():
    rng = np.random.default_rng(5)
    events, params = random_instance(rng)
    st = PairStructure(events, params.nu)
    n = len(events)
    assert st.n_pairs == n * (n - 1) // 2
    parents = pair_parents(st)
    for k in range(n):
        sl = slice(st.row_start[k], st.row_start[k + 1])
        np.testing.assert_array_equal(st.pair_i[sl], k)
        np.testing.assert_array_equal(parents[sl], np.arange(k))


def test_pair_structure_window_prunes_stale_pairs():
    times = np.array([1.0, 2.0, 8.0, 9.0])
    evs = [rs.Event.make(k + 1, t, 0, {}) for k, t in enumerate(times)]
    events = rs.EventSequence.from_events(evs, T=10.0, S=1, V=0)
    st = PairStructure(events, nu=1.0, window=3.0)
    # lag <= 3: (2,1), (4,3) survive; 8-2 = 6 and beyond are pruned
    pairs = set(zip(st.pair_i.tolist(), pair_parents(st).tolist()))
    assert pairs == {(1, 0), (3, 2)}
    for nu, window in ((1.0, 0.0), (1.0, math.nan), (math.nan, 3.0), (math.inf, 3.0),
                       (math.nan, None)):
        with pytest.raises(ValidationError):
            PairStructure(events, nu=nu, window=window)


def _events(times, marks, S=1, V=4):
    evs = [rs.Event.make(k + 1, t, k % S, m) for k, (t, m) in enumerate(zip(times, marks))]
    return rs.EventSequence.from_events(evs, T=float(times[-1]) + 1.0, S=S, V=V)


TRIPLE_CASES = {
    "exact": (lambda: random_events(np.random.default_rng(8), 40, 3, 6), None),
    "windowed": (lambda: random_events(np.random.default_rng(8), 40, 3, 6), 2.0),
    "window drops every partner": (
        lambda: random_events(np.random.default_rng(8), 40, 3, 6), 1e-9),
    "empty marks": (lambda: _events([1.0, 2.0, 3.0], [{}, {}, {}]), None),
    "V = 0": (lambda: _events([1.0, 2.0, 3.0], [{}, {}, {}], V=0), None),
    "tokens of one event only": (
        lambda: _events([1.0, 2.0, 3.0], [{0: 2}, {1: 1, 2: 1}, {3: 4}], S=2), None),
    "one shared token among empty marks": (
        lambda: _events([1.0, 2.0, 3.0, 4.0], [{}, {2: 1}, {}, {2: 3}]), None),
    "n = 1": (lambda: _events([1.0], [{0: 1, 3: 2}]), None),
}


@pytest.mark.parametrize("case", list(TRIPLE_CASES))
def test_build_triples_matches_per_token_loop(case):
    make, window = TRIPLE_CASES[case]
    st = PairStructure(make(), nu=0.7, window=window)
    want = reference_triples(st)
    for name, ref in zip(("tri_pair", "tri_key", "tri_xiv", "tri_xjv"), want):
        got = getattr(st, name)
        assert got.dtype == ref.dtype, name
        np.testing.assert_array_equal(got, ref, err_msg=name)
    if case in ("exact", "windowed"):
        assert st.tri_pair.size > 0
    # child-major: the triples of one child are contiguous
    tri_child = np.searchsorted(st.row_start, st.tri_pair, side="right") - 1
    assert np.all(np.diff(tri_child) >= 0)
    # the overlap pairs: the distinct pairs among the triples, grouped by child
    ov_pair = ov_pairs(st)
    np.testing.assert_array_equal(ov_pair, np.unique(st.tri_pair))
    np.testing.assert_array_equal(ov_pair[st.tri_ov], st.tri_pair)
    child = np.searchsorted(st.row_start, ov_pair, side="right") - 1
    np.testing.assert_array_equal(st.ov_row_len, np.bincount(child, minlength=len(st.events)))
    np.testing.assert_array_equal(st.ov_row_start[1:], np.cumsum(st.ov_row_len))
    # stored as their parents, ascending within each child
    assert st.ov_parent.dtype == np.int64
    np.testing.assert_array_equal(st.ov_parent, pair_parents(st)[ov_pair])
    assert np.all(np.diff(st.ov_parent)[np.diff(child) == 0] > 0)
    # their kernel cells and log kernels, built with the kernel cells
    log_kernel, pair_cell, _ = reference_pairs(st)
    ov_cell, ov_log_kernel = st.cells[4:]
    np.testing.assert_array_equal(ov_cell, pair_cell[ov_pair])
    np.testing.assert_array_equal(ov_log_kernel, log_kernel[ov_pair])


def _count_builds(monkeypatch):
    """Records the events of every PairStructure built, not the layout."""
    built = []
    init = PairStructure.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.events, self.n_triples))

    monkeypatch.setattr(PairStructure, "__init__", counting)
    return built


def _count_e_steps(monkeypatch):
    """Records the events of every root pass's E-step of the full model: the
    full pass's, on the given events, and the temporal pass's, on a copy of
    them without marks (see `_mark_free`); not the mark pass's."""
    calls = []

    def counting(structure, params, *flags):
        if all(flags):
            calls.append(structure.events)
        return _e_step(structure, params, *flags)

    monkeypatch.setattr("rootsource.posterior._e_step", counting)
    return calls


def _mark_free(view, events) -> bool:
    """Whether view is another EventSequence of events' times, sources, T, S
    and V, with no marks."""
    return (view is not events and view.tok_index.size == 0 and not view.tok_indptr.any()
            and np.array_equal(view.times, events.times)
            and np.array_equal(view.sources, events.sources)
            and (view.T, view.S, view.V) == (events.T, events.S, events.V))


def test_root_pass_reuses_the_live_structure(monkeypatch):
    cfg = rs.make_synthetic_config(T=80.0, seed=4)
    events, _ = rs.simulate(cfg)
    report = fit(events, nu=cfg.params.nu, window=20.0, max_iters=4)
    params, live = report.params, report.eta.structure
    assert _structure_for(events, params.nu, 20.0) is live
    built = _count_builds(monkeypatch)
    e_steps = _count_e_steps(monkeypatch)
    passes = (rs.root_probabilities, rs.root_probabilities_temporal,
              rs.root_probabilities_mark)
    got = [f(events, params, window=20.0).r for f in passes]
    # the full and the mark pass reuse the fit's layout; the temporal pass
    # builds one layout, of its events without marks, with no triples
    assert len(built) == 1
    view, n_triples = built[0]
    assert _mark_free(view, events) and n_triples == 0
    # the full pass reads the fit's final E-step; the temporal pass runs the
    # full model's E-step on that copy, and the mark pass its own
    assert len(e_steps) == 1 and e_steps[0] is view
    twin = copy.deepcopy(events)
    del built[:], e_steps[:]
    for f, r in zip(passes, got):
        np.testing.assert_array_equal(f(twin, params, window=20.0).r, r)
    # the twin has no live structure to reuse
    (full, k_full), (temporal, k_temporal), (mark, k_mark) = built
    assert full is twin and mark is twin and k_full == k_mark > 0
    assert _mark_free(temporal, twin) and k_temporal == 0
    assert len(e_steps) == 2 and e_steps[0] is twin and e_steps[1] is temporal

    # parameters equal in value reuse the E-step too; a changed gamma does not
    equal = rs.ModelParams(rho=params.rho.copy(), A=params.A.copy(),
                           theta=params.theta.copy(), gamma=params.gamma, nu=params.nu)
    del e_steps[:]
    np.testing.assert_array_equal(rs.root_probabilities(events, equal, window=20.0).r, got[0])
    assert e_steps == []
    moved = rs.ModelParams(rho=params.rho, A=params.A, theta=params.theta,
                           gamma=0.5 * params.gamma, nu=params.nu)
    np.testing.assert_array_equal(rs.root_probabilities(events, moved, window=20.0).r,
                                  rs.root_probabilities(twin, moved, window=20.0).r)
    assert len(e_steps) == 2
    # a recomputing pass leaves the structure's record of the fit's E-step
    assert _state_at(live, params) is report.eta

    # the structure holds the E-step weakly: once the report is dropped, the
    # pass recomputes, though the layout itself is still alive
    del e_steps[:]
    state = weakref.ref(report.eta)
    del report
    gc.collect()
    assert state() is None
    assert _structure_for(events, params.nu, 20.0) is live
    np.testing.assert_array_equal(rs.root_probabilities(events, params, window=20.0).r, got[0])
    assert len(e_steps) == 1 and e_steps[0] is events

    # a structure built directly is registered as well
    other = rs.EventSequence(events.times, events.sources, events.tok_indptr,
                             events.tok_index, events.tok_count, events.T, events.S,
                             events.V)
    direct = PairStructure(other, params.nu, window=20.0)
    assert _structure_for(other, params.nu, 20.0) is direct


def test_layout_built_after_a_fit_is_found_with_the_fit_state(monkeypatch):
    # a layout built directly for the fit's events and settings replaces the
    # fit's in _LIVE; the fit's E-step is still the last for that key, so the
    # full pass at the fit's parameters reads it on the new layout
    cfg = rs.make_synthetic_config(T=40.0, seed=5)
    events, _ = rs.simulate(cfg)
    report = fit(events, nu=cfg.params.nu, window=20.0, max_iters=3)
    want = rs.root_probabilities(copy.deepcopy(events), report.params, window=20.0).r
    direct = PairStructure(events, report.params.nu, window=20.0)
    assert direct is not report.eta.structure
    assert _structure_for(events, report.params.nu, 20.0) is direct
    assert _state_at(direct, report.params) is report.eta
    built = _count_builds(monkeypatch)
    e_steps = _count_e_steps(monkeypatch)
    np.testing.assert_array_equal(
        rs.root_probabilities(events, report.params, window=20.0).r, want)
    assert built == [] and e_steps == []


def test_parameters_changed_in_place_are_not_reused(monkeypatch):
    # update_eta keeps copies of the parameters: swapping two columns of the
    # fit's theta in place moves them away from the recorded E-step's, so the
    # next full pass recomputes, as on events with no record
    cfg = rs.make_synthetic_config(T=40.0, seed=8)
    events, _ = rs.simulate(cfg)
    report = fit(events, nu=cfg.params.nu, window=20.0, max_iters=3)
    theta = report.params.theta
    a, b = np.argsort(theta[0])[[0, -1]]
    theta[:, [a, b]] = theta[:, [b, a]]
    e_steps = _count_e_steps(monkeypatch)
    got = rs.root_probabilities(events, report.params, window=20.0).r
    assert len(e_steps) == 1 and e_steps[0] is events
    twin = copy.deepcopy(events)
    np.testing.assert_array_equal(rs.root_probabilities(twin, report.params, window=20.0).r, got)
    assert _state_at(report.eta.structure, report.params) is None


def test_threads_share_the_tables_without_a_lock():
    # more threads than cores fit and attribute at once, two per events
    # object, while the tables gain and lose entries; each result must be
    # the one a lone thread gets
    draws = [rs.simulate(rs.make_synthetic_config(T=30.0, seed=seed))[0] for seed in (1, 2, 3)]
    want = []
    for events in draws:
        report = fit(events, nu=10.0, window=20.0, max_iters=2)
        want.append(rs.root_probabilities(events, report.params, window=20.0).r)
    got, errors = {}, []

    def work(k):
        try:
            events = draws[k % 3]
            for _ in range(3):
                report = fit(events, nu=10.0, window=20.0, max_iters=2)
                got.setdefault(k, []).append(
                    rs.root_probabilities(events, report.params, window=20.0).r)
                del report
                gc.collect()
        except Exception as err:  # reported below, with the thread's index
            errors.append((k, err))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    for k in range(6):
        assert len(got[k]) == 3
        for r in got[k]:
            np.testing.assert_array_equal(r, want[k % 3])


def test_changed_settings_build_a_new_structure():
    cfg = rs.make_synthetic_config(T=40.0, seed=6)
    events, _ = rs.simulate(cfg)
    report = fit(events, nu=cfg.params.nu, window=20.0, max_iters=2)
    p = report.params

    def variant(**changes):
        kw = dict(rho=p.rho, A=p.A, theta=p.theta, gamma=p.gamma, nu=p.nu)
        kw.update(changes)
        return rs.ModelParams(**kw)

    cases = [(variant(nu=2.0 * p.nu), 20.0), (p, 10.0), (p, None)]
    fresh = [_structure_for(events, params.nu, window) for params, window in cases]
    for st, (params, window) in zip(fresh, cases):
        assert st is not report.eta.structure
        assert st.window == window and st.nu == params.nu
        assert _structure_for(events, params.nu, window) is st
    assert len({id(st) for st in fresh}) == len(cases)
    # the fit's layout stays shared
    assert _structure_for(events, p.nu, 20.0) is report.eta.structure


def test_dropped_fit_releases_its_structure(monkeypatch):
    cfg = rs.make_synthetic_config(T=40.0, seed=7)
    events, _ = rs.simulate(cfg)
    report = fit(events, nu=cfg.params.nu, window=20.0, max_iters=2)
    params, gone = report.params, weakref.ref(report.eta.structure)
    key = (id(events), params.nu, 20.0)
    assert _LIVE[key] is gone() and _LAST[key] is report.eta
    del report
    gc.collect()
    assert gone() is None
    # neither table keeps an entry for the events once the fit is dropped
    assert [k for k in (*_LIVE.keys(), *_LAST.keys()) if k[0] == id(events)] == []
    built = _count_builds(monkeypatch)
    rs.root_probabilities(events, params, window=20.0)
    assert len(built) == 1


def test_fit_report_pickles_and_copies():
    cfg = rs.make_synthetic_config(T=40.0, seed=9)
    events, _ = rs.simulate(cfg)
    report = fit(events, nu=cfg.params.nu, window=20.0, max_iters=2)
    for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        np.testing.assert_array_equal(twin.eta.eta_pair, report.eta.eta_pair)
        # a copied layout remembers no E-step, so it never hands out the original's
        assert _state_at(twin.eta.structure, twin.params) is None
    assert _state_at(report.eta.structure, report.params) is report.eta


def test_event_sequence_copies_after_a_fit():
    cfg = rs.make_synthetic_config(T=40.0, seed=9)
    events, _ = rs.simulate(cfg)
    report = fit(events, nu=cfg.params.nu, window=20.0, max_iters=2)
    want = rs.root_probabilities(events, report.params, window=20.0).r
    for twin in (pickle.loads(pickle.dumps(events)), copy.deepcopy(events)):
        assert twin is not events
        for name in ("times", "sources", "tok_indptr", "tok_index", "tok_count"):
            np.testing.assert_array_equal(getattr(twin, name), getattr(events, name))
        np.testing.assert_array_equal(
            rs.root_probabilities(twin, report.params, window=20.0).r, want)


def test_pair_structure_fails_fast_beyond_physical_memory():
    have = _physical_memory()
    if have is None:
        pytest.skip("physical memory size not available from os.sysconf")
    # n (n - 1) / 2 pairs of PAIR_BYTES each exceed physical memory; only the
    # O(n) event arrays and the pair count are ever allocated
    n = math.isqrt(2 * have // PAIR_BYTES) + 2
    assert n * (n - 1) // 2 * PAIR_BYTES > have
    events = rs.EventSequence(np.arange(1.0, n + 1.0), np.zeros(n, dtype=np.int64),
                              np.zeros(n + 1, dtype=np.int64), [], [], T=n + 1.0, S=1,
                              V=0)
    with pytest.raises(ValidationError, match="--truncate-window"):
        PairStructure(events, nu=1.0)
    with pytest.raises(ValidationError, match="physical memory"):
        fit(events, nu=1.0)
    assert PairStructure(events, nu=1.0, window=1.5).n_pairs == n - 1


@pytest.mark.parametrize("field, size", [("S", 10**30), ("V", 10**30), ("S", 10**400)],
                         ids=["S", "V", "S beyond float"])
def test_fit_checks_memory_before_the_parameters(field, size, monkeypatch):
    # S or V of 10^30 from an events header: fit raises the guard's error
    # before any S- or V-sized array (numpy would raise a bare ValueError),
    # and sizes beyond float range format in the message
    monkeypatch.setattr("rootsource.layout._physical_memory", lambda: 2**33)
    huge = {"S": 2, "V": 3, field: size}
    events = rs.EventSequence(np.array([1.0, 2.0]), np.array([0, 1]), np.array([0, 1, 3]),
                              np.array([0, 0, 1]), np.array([2.0, 1.0, 1.0]), T=5.0, **huge)
    with pytest.raises(ValidationError, match="use fewer sources or tokens"):
        fit(events, nu=1.0)
    with pytest.raises(ValidationError, match="use fewer sources or tokens"):
        fit(events, nu=1.0, window=2.0)


def test_fail_fast_counts_token_overlap_triples(monkeypatch):
    # few tokens, long marks: more overlap triples than pairs; the kernel
    # cells are charged by their bound min(pairs, n 2S), n 2S for 3 sources
    # and the pairs for 40 sources in a short window
    rng = np.random.default_rng(8)
    few = random_events(rng, 1500, 3, 8, T=100.0, max_len=9)
    many = random_events(rng, 1500, 40, 8, T=100.0, max_len=9)
    pairs_bound = []
    for events, window in ((few, None), (many, 1.0)):
        built = PairStructure(events, nu=1.0, window=window)
        n_pairs, n_triples = built.n_pairs, built.tri_pair.size
        assert n_triples > n_pairs
        cells = min(n_pairs, 2 * len(events) * events.S)
        pairs_bound.append(cells == n_pairs)
        assert built.cells[0][-1] <= cells
        del built
        need = (n_pairs * PAIR_BYTES + n_triples * TRIPLE_BYTES + cells * CELL_BYTES
                + events.S * (events.V + events.S) * PARAM_BYTES)
        monkeypatch.setattr("rootsource.layout._physical_memory", lambda: need - 1)
        with pytest.raises(ValidationError, match=f"{n_triples} token-overlap triples need"):
            PairStructure(events, nu=1.0, window=window)
        monkeypatch.setattr("rootsource.layout._physical_memory", lambda: need)
        assert PairStructure(events, nu=1.0, window=window).tri_pair.size == n_triples
    assert pairs_bound == [False, True]


def test_fail_fast_counts_the_parameters(monkeypatch):
    # 40 events of 300 sources over 20 000 tokens: a few pairs, and 6.09 M
    # entries of theta and A, which no truncation window shrinks
    rng = np.random.default_rng(9)
    events = random_events(rng, 40, 300, 20_000, T=10.0)
    built = PairStructure(events, nu=1.0, window=1.0)
    layout = (built.n_pairs * PAIR_BYTES + built.tri_pair.size * TRIPLE_BYTES
              + min(built.n_pairs, 2 * 40 * 300) * CELL_BYTES)
    del built
    param = 300 * (20_000 + 300) * PARAM_BYTES
    assert param > 100 * layout
    inits = []
    monkeypatch.setattr("rootsource.fitting.default_init",
                        lambda *args: inits.append(args))
    monkeypatch.setattr("rootsource.layout._physical_memory", lambda: param - 1)
    for attempt in (lambda: PairStructure(events, nu=1.0, window=1.0),
                    lambda: fit(events, nu=1.0, window=1.0)):
        with pytest.raises(ValidationError, match="fewer sources or tokens") as err:
            attempt()
        assert "min_author_count" in str(err.value)
        assert "--truncate-window" not in str(err.value)
    # checked before fit's initial point allocates its S x V theta
    assert inits == []
    # the parameters fit, the whole does not: the window is the fix
    monkeypatch.setattr("rootsource.layout._physical_memory", lambda: param + layout - 1)
    with pytest.raises(ValidationError, match="--truncate-window") as err:
        PairStructure(events, nu=1.0, window=1.0)
    assert "fewer sources" not in str(err.value)
    monkeypatch.setattr("rootsource.layout._physical_memory", lambda: param + layout)
    PairStructure(events, nu=1.0, window=1.0)


def test_root_passes_count_the_root_matrix(monkeypatch):
    # 2 000 events of 300 sources in a short window: the n x S root matrix
    # outweighs the layout, so only the root passes need it, also on a
    # structure that is alive and reused without its own check
    rng = np.random.default_rng(10)
    events = random_events(rng, 2000, 300, 5, T=200.0)
    params = random_params(rng, 300, 5, gamma=0.3, nu=1.0)
    live = PairStructure(events, nu=1.0, window=0.5)
    layout = (live.n_pairs * PAIR_BYTES + live.tri_pair.size * TRIPLE_BYTES
              + min(live.n_pairs, 2 * 2000 * 300) * CELL_BYTES)
    param = 300 * (5 + 300) * PARAM_BYTES
    root = 2000 * 300 * ROOT_BYTES
    assert layout < root
    passes = (rs.root_probabilities, rs.root_probabilities_temporal,
              rs.root_probabilities_mark)
    monkeypatch.setattr("rootsource.layout._physical_memory", lambda: param + root - 1)
    for reused in (True, False):
        if not reused:
            del live  # each pass builds and checks its own structure
        for root_pass in passes:
            with pytest.raises(ValidationError, match="fewer sources or tokens") as err:
                root_pass(events, params, window=0.5)
            assert "min_author_count" in str(err.value)
            assert "root probabilities of 2000 events" in str(err.value)
    # the result alone does not fit: fewer tokens or a window cannot help,
    # and a pass without a live layout stops before it builds one
    def build(*args):
        raise AssertionError("a layout was built")

    with monkeypatch.context() as m:
        m.setattr("rootsource.layout._physical_memory", lambda: root - 1)
        m.setattr("rootsource.layout._first_partners", build)
        for root_pass in passes:
            with pytest.raises(ValidationError, match=r"use fewer sources \(") as err:
                root_pass(events, params, window=0.5)
            assert "min_count" not in str(err.value)
            assert "--truncate-window" not in str(err.value)
    # the structure alone fits
    PairStructure(events, nu=1.0, window=0.5)
    monkeypatch.setattr("rootsource.layout._physical_memory",
                        lambda: layout + param + root)
    for root_pass in passes:
        assert root_pass(events, params, window=0.5).r.shape == (2000, 300)


def test_update_eta_matches_brute_force():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        events, params = random_instance(rng)
        state = update_eta(events, params)
        got = dense_eta(state)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)
        worst = max(worst, np.abs(got - brute_force_eta(events, params)).max())
    assert worst < 1e-12


def test_update_eta_slow_path_degenerate_theta():
    # gamma = 1, and exact zeros in theta under interior and zero gamma: the
    # posteriors match brute force, and an event with no surviving hypothesis
    # raises exactly when brute force finds none
    kinds = ("gamma = 1", "zero theta", "zero theta, gamma = 0")
    compared = dict.fromkeys(kinds, 0)
    for seed in range(2000):
        if min(compared.values()) >= 8:
            break
        rng = np.random.default_rng([23, seed])
        events, params = random_instance(rng, V_max=6)  # small V: bags overlap
        if len(events) < 5:
            continue
        kind = kinds[seed % 3]
        if kind == "gamma = 1":
            theta, gamma = params.theta, 1.0
        else:
            theta = params.theta.copy()
            theta[rng.random(theta.shape) < 0.3] = 0.0
            theta[~theta.any(axis=1)] = 1.0
            theta /= theta.sum(axis=1, keepdims=True)
            gamma = params.gamma if kind == "zero theta" else 0.0
        hot = rs.ModelParams(rho=params.rho, A=params.A, theta=theta, gamma=gamma,
                             nu=params.nu)
        with np.errstate(invalid="ignore"):
            want = brute_force_eta(events, hot)  # NaN rows: no hypothesis survives
        try:
            got = dense_eta(update_eta(events, hot))
        except NumericalError:
            assert np.isnan(want).any()
            continue
        np.testing.assert_allclose(got, want, atol=1e-12)
        compared[kind] += 1
    assert min(compared.values()) >= 8, compared


@pytest.mark.parametrize("n, window", [(1000, None), (1800, 8.0)])
def test_lean_e_step_matches_the_two_branch_reference(n, window):
    # the E-step from kernel cells and overlap pairs (per-child constant
    # folded out, one mark path for live and dead tokens) against the
    # per-pair reference with the two-branch mark half: gamma 0, 0.3 and 1,
    # with and without reachable zeros in theta, some marks empty
    rng = np.random.default_rng([41, n])
    events = random_events(rng, n, 3, 6, T=n / 4.0, max_len=5)
    params = random_params(rng, 3, 6, nu=1.0)
    # one zero per source row at a token its events use, each one inherited
    zero = (events.token_counts_by_source() > 0) & covered_cells(events, window, params.nu)
    zero &= np.cumsum(zero, axis=1) <= 1
    zeroed = np.where(zero, 0.0, params.theta)
    zeroed /= zeroed.sum(axis=1, keepdims=True)
    assert zero.any() and (events.lengths == 0).any()
    structure = PairStructure(events, params.nu, window=window)
    compared = []
    for theta in (params.theta, zeroed):
        for gamma in (0.0, 0.3, 1.0):
            p = rs.ModelParams(rho=params.rho, A=params.A, theta=theta, gamma=gamma,
                               nu=params.nu)
            try:
                want = reference_e_step(structure, p)
            except NumericalError as err:
                with pytest.raises(NumericalError, match=re.escape(str(err))):
                    update_eta(events, p, structure)
                continue
            got = update_eta(events, p, structure)
            np.testing.assert_allclose(got.eta0, want[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.eta_pair, want[1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.log_z, want[2], rtol=1e-12, atol=1e-12)
            compared.append((theta is zeroed, gamma))
    # with the zeros, gamma 0 raises (no parent emits a zeroed token) and
    # so does gamma 1 (every token is dead, and some bag is in no earlier one)
    assert compared == [(False, 0.0), (False, 0.3), (False, 1.0), (True, 0.3)]


def _e_step_matches_reference(events, params, window):
    structure = PairStructure(events, params.nu, window=window)
    want = reference_e_step(structure, params)
    got = update_eta(events, params, structure)
    np.testing.assert_allclose(got.eta0, want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.eta_pair, want[1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.log_z, want[2], rtol=1e-12, atol=0)
    return structure, got


def _pair_kernel_sums(structure):
    """Per event and parent class (source, empty mark), sum kappa over its
    candidate parents: the pair-by-pair value of the kernel cells."""
    events = structure.events
    S = events.S
    log_kernel, _, empty = reference_pairs(structure)
    cls = events.sources[pair_parents(structure)] + S * empty
    out = np.zeros((len(events), 2 * S))
    np.add.at(out, (structure.pair_i, cls), np.exp(log_kernel))
    return out


def _cell_sums(structure):
    """The kernel cells as an n x 2S array of log sums, -inf where a child
    has no cell of a class; checks each cell's key, that no child has two
    cells of one class, and that its latest event is the class's last in the
    child's window."""
    events = structure.events
    n, S = len(events), events.S
    start, key, log, last = structure.cells[:4]
    seg = np.repeat(np.arange(2 * n), np.diff(start))  # 2 child + empty-mark class
    child = seg // 2
    np.testing.assert_array_equal(key // S, events.sources[child])
    cls = key % S + S * (seg % 2)
    assert np.unique(child * 2 * S + cls).size == key.size
    event_cls = events.sources + S * (events.lengths == 0)
    for i, c, m in zip(child.tolist(), cls.tolist(), last.tolist()):
        assert structure.lo[i] <= m < i and event_cls[m] == c
        assert not (event_cls[m + 1:i] == c).any()
    out = np.full((n, 2 * S), -np.inf)
    out[child, cls] = log
    return out


@pytest.mark.parametrize("window", [None, 30.0])
def test_kernel_states_do_not_overflow_on_long_sequences(window):
    # T / nu = 2 400: prefix sums of exp(t / nu) would overflow to inf
    rng = np.random.default_rng(83)
    events = random_events(rng, 900, 3, 5, T=2400.0, max_len=4)
    params = random_params(rng, 3, 5, gamma=0.3, nu=1.0)
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(events.times[-1] / params.nu))
    structure, state = _e_step_matches_reference(events, params, window)
    assert np.isfinite(state.log_z).all()
    with np.errstate(divide="ignore"):
        want = np.log(_pair_kernel_sums(structure))
    # a cell exactly where a class has candidates
    np.testing.assert_allclose(_cell_sums(structure), want, rtol=1e-12, atol=1e-12)


def brute_force_window_eta(events, params, window):
    """brute_force_eta with the parents beyond the window taken out."""
    eta = brute_force_eta(events, params)
    for k in range(len(events)):
        far = np.flatnonzero(events.times[k] - events.times[:k] > window * params.nu)
        eta[k, far + 1] = 0.0
        eta[k, : k + 1] /= eta[k, : k + 1].sum()
    return eta


def test_window_edge_parent_after_a_burst():
    # source 0's only in-window parent of the last event sits at the window's
    # far edge, right after a burst of 40 events just outside the window: the
    # in-window kernel sum is the whole state less the burst's, which
    # outweighs it forty times
    nu, window = 1.0, 5.0
    burst = list(np.linspace(14.96, 14.999, 40))
    times = [1.0] + burst + [15.0 + 1e-6, 17.0, 20.0]
    marks = [{0: 1}] + [{1: 1}] * 40 + [{1: 2, 2: 1}, {}, {1: 1, 3: 1}]
    sources = [0] + [0] * 40 + [0, 1, 0]
    evs = [rs.Event.make(k + 1, t, s, m)
           for k, (t, s, m) in enumerate(zip(times, sources, marks))]
    events = rs.EventSequence.from_events(evs, T=21.0, S=2, V=4)
    params = rs.ModelParams(rho=np.array([1e-3, 0.2]), A=np.array([[0.6, 0.3], [0.2, 0.5]]),
                            theta=np.full((2, 4), 0.25), gamma=0.4, nu=nu)
    structure, state = _e_step_matches_reference(events, params, window)
    last = len(events) - 1
    assert structure.lo[last] == 41  # the edge parent is the first in the window
    np.testing.assert_allclose(np.exp(_cell_sums(structure)[last]),
                               _pair_kernel_sums(structure)[last], rtol=1e-13)
    np.testing.assert_allclose(dense_eta(state),
                               brute_force_window_eta(events, params, window), atol=1e-12)


@pytest.mark.parametrize("window", [None, 3.0])
def test_m_step_inputs_match_the_per_pair_posteriors(window):
    # the E-step's overlap, cell and empty-parent sums against
    # bincounts over the per-pair posteriors it builds on demand, live and
    # dead tokens
    rng = np.random.default_rng(89)
    events = random_events(rng, 400, 3, 6, T=100.0, max_len=5)
    params = random_params(rng, 3, 6, nu=1.0)
    structure = PairStructure(events, params.nu, window=window)
    S = events.S
    _, pair_cell, empty = reference_pairs(structure)
    for gamma in (0.0, 0.3, 1.0):
        p = rs.ModelParams(rho=params.rho, A=params.A, theta=params.theta, gamma=gamma,
                           nu=params.nu)
        state = update_eta(events, p, structure)
        eta = state.eta_pair
        np.testing.assert_array_equal(state.eta_overlap, eta[ov_pairs(structure)])
        np.testing.assert_allclose(
            state.eta_cells,
            np.bincount(pair_cell, weights=eta, minlength=S * S).reshape(S, S),
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            state.eta_empty,
            np.bincount(structure.pair_i[empty], weights=eta[empty],
                        minlength=len(events)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("window", [None, 3.0])
def test_many_sources_match_the_per_pair_reference(window):
    # 300 events of 40 sources: in exact mode 44 850 pairs and cells bounded
    # by the 24 000 of n 2S, windowed fewer pairs than that bound
    rng = np.random.default_rng(101)
    events = random_events(rng, 300, 40, 6, T=60.0)
    params = random_params(rng, 40, 6, gamma=0.3, nu=1.0)
    structure, _ = _e_step_matches_reference(events, params, window)
    assert structure.cells[0][-1] <= min(structure.n_pairs, 2 * len(events) * events.S)
    report = fit(events, init=params, window=window, max_iters=3)
    if window is None:
        assert report.window_dropped_max is None and report.window_dropped_mean is None
        return
    want = brute_force_dropped(events, report.params, window)
    assert want.max() > 1e-3
    assert report.window_dropped_max == pytest.approx(want.max(), rel=1e-12)
    assert report.window_dropped_mean == pytest.approx(want.mean(), rel=1e-12)


OVERLAP_PART = ("tri_pair", "tri_key", "tri_xiv", "tri_xjv", "tri_ov", "ov_parent",
                "ov_row_start", "ov_row_len")


def test_sub_model_passes_build_only_their_layouts(monkeypatch):
    # the temporal pass builds the layout of its events without marks, which
    # holds no triples or overlap pairs; the mark pass reads the overlap
    # pairs but builds no kernel cells, so none of the overlap pairs' kernel
    # cells and log kernels, which come with them
    rng = np.random.default_rng(103)
    events = random_events(rng, 200, 3, 6, T=40.0)
    params = random_params(rng, 3, 6, nu=1.0)
    live = PairStructure(events, params.nu, window=5.0)
    layouts = []
    init = PairStructure.__init__

    def keeping(self, *args, **kwargs):
        init(self, *args, **kwargs)
        layouts.append(self)

    monkeypatch.setattr(PairStructure, "__init__", keeping)
    rs.root_probabilities_temporal(events, params, window=5.0)
    (temporal,) = layouts
    assert _mark_free(temporal.events, events) and temporal.n_triples == 0
    assert "cells" in vars(temporal)
    for name in OVERLAP_PART:
        if not name.startswith("ov_row"):
            assert vars(temporal)[name].size == 0, name
    assert temporal.cells[4].size == temporal.cells[5].size == 0
    np.testing.assert_array_equal(temporal.ov_row_start, np.zeros(len(events) + 1))
    rs.root_probabilities_mark(events, params, window=5.0)
    assert len(layouts) == 1 and live.n_triples > 0 and "cells" not in vars(live)
    rs.root_probabilities(events, params, window=5.0)
    assert len(layouts) == 1 and "cells" in vars(live)
    assert live.cells[4].size == live.cells[5].size == live.ov_parent.size > 0


def test_triples_are_built_on_first_use():
    # the layout builds its triples and overlap pairs when it is made, so
    # they are there on first use, equal to the per-token references; the
    # overlap pairs' kernel cells and log kernels come with the kernel cells,
    # on first read, equal to the per-pair references; the temporal pass
    # runs on its own mark-free layout and leaves this one as it was; and a
    # fit on a layout built beforehand returns the same parameters bit for
    # bit
    rng = np.random.default_rng(105)
    events = random_events(rng, 200, 3, 6, T=40.0)
    params = random_params(rng, 3, 6, nu=1.0)
    st = PairStructure(events, params.nu, window=5.0)
    assert set(OVERLAP_PART) <= set(vars(st)) and "cells" not in vars(st)
    assert st.tri_xiv.size == st.n_triples > 0
    for name, ref in zip(("tri_pair", "tri_key", "tri_xiv", "tri_xjv"), reference_triples(st)):
        assert st.__dict__[name].dtype == ref.dtype, name
        np.testing.assert_array_equal(st.__dict__[name], ref, err_msg=name)
    ov_pair = ov_pairs(st)
    np.testing.assert_array_equal(ov_pair, np.unique(st.tri_pair))
    np.testing.assert_array_equal(ov_pair[st.tri_ov], st.tri_pair)
    log_kernel, pair_cell, _ = reference_pairs(st)
    assert "cells" not in vars(st)
    ov_cell, ov_log_kernel = st.cells[4:]
    np.testing.assert_array_equal(ov_cell, pair_cell[ov_pair])
    np.testing.assert_array_equal(ov_log_kernel, log_kernel[ov_pair])
    before = dict(vars(st))
    rs.root_probabilities_temporal(events, params, window=5.0)
    assert vars(st).keys() == before.keys()
    assert all(vars(st)[name] is before[name] for name in OVERLAP_PART + ("cells",))
    del st, before
    twin = copy.deepcopy(events)
    prebuilt = PairStructure(twin, params.nu, window=5.0)
    fresh = fit(events, init=params, window=5.0, max_iters=4)
    built = fit(twin, init=params, window=5.0, max_iters=4)
    assert built.eta.structure is prebuilt
    for name in ("rho", "A", "theta", "gamma"):
        np.testing.assert_array_equal(getattr(fresh.params, name), getattr(built.params, name))


def test_unbuilt_structure_copies_build_lazily():
    # a deep copy and a pickle of a layout hold every triple and overlap-pair
    # array, equal and of equal dtypes; the kernel cells with the overlap
    # pairs' kernel cells and log kernels, the one part left lazy, are built
    # on first read, to the original's arrays; an instance with nothing set
    # raises AttributeError for them
    rng = np.random.default_rng(106)
    events = random_events(rng, 200, 3, 6, T=40.0)
    st = PairStructure(events, 1.0, window=5.0)
    twins = (copy.deepcopy(st), pickle.loads(pickle.dumps(st)))
    for twin in twins:
        assert "cells" not in vars(twin)
        for name in OVERLAP_PART:
            got, want = vars(twin)[name], vars(st)[name]
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        assert len(twin.cells) == len(st.cells) == 6
        for got, want in zip(twin.cells, st.cells):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert "cells" in vars(twin)
    with pytest.raises(AttributeError, match="events"):
        PairStructure.__new__(PairStructure).cells


def test_structure_stores_no_per_pair_array():
    # fewer triples than pairs, so no overlap-pair array has a pair's length,
    # nor does any array of the kernel cells and the overlap pairs' kernel
    # terms
    rng = np.random.default_rng(107)
    events = random_events(rng, 300, 3, 40, T=60.0)
    report = fit(events, nu=1.0, max_iters=3)
    rs.root_probabilities_mark(events, report.params)
    st = report.eta.structure
    assert st.tri_pair.size < st.n_pairs and st.cells[0][-1] < st.n_pairs
    assert {"ov_parent", "tri_ov", "cells"} <= set(vars(st))
    assert st.cells[4].size == st.cells[5].size == st.ov_parent.size
    sizes = {name: v.size for name, v in vars(st).items() if isinstance(v, np.ndarray)}
    sizes.update({f"cells[{k}]": v.size for k, v in enumerate(st.cells)})
    assert st.n_pairs not in sizes.values(), sizes
    assert isinstance(PairStructure.pair_i, property)
    assert st.pair_i.size == st.n_pairs


@pytest.mark.parametrize("window", [None, 2.0])
def test_expansion_does_not_depend_on_the_block_size(window, monkeypatch):
    # children expanded in blocks of one, seven or ROOT_BLOCK give the same
    # eta_pair and elbo bit for bit, and temporal- and mark-only passes
    # within 1e-12 of forward substitution row by row (a block's solve sums
    # in its own order); some marks are empty, and at gamma 1 every token is
    # dead
    rng = np.random.default_rng(109)
    events = random_events(rng, 60, 3, 6, T=15.0)
    assert (events.lengths == 0).any()
    params = random_params(rng, 3, 6, nu=1.0)
    got = {}
    for block in (None, 1, 7):
        if block is not None:
            monkeypatch.setattr("rootsource.posterior.ROOT_BLOCK", block)
        for gamma in (0.3, 1.0):
            p = rs.ModelParams(rho=params.rho, A=params.A, theta=params.theta, gamma=gamma,
                               nu=params.nu)
            st = PairStructure(events, p.nu, window=window)
            state = update_eta(events, p, st)
            got[block, gamma] = (state.eta_pair, elbo(events, p, state))
            for compute, flags in ((rs.root_probabilities_temporal, (True, False)),
                                   (rs.root_probabilities_mark, (False, True))):
                np.testing.assert_allclose(compute(events, p, window=window).r,
                                           reference_root_pass(st, p, *flags), rtol=0,
                                           atol=1e-12, err_msg=f"block {block}, gamma {gamma}")
    for (block, gamma), arrays in got.items():
        for a, b in zip(arrays, got[None, gamma]):
            np.testing.assert_array_equal(a, b, err_msg=f"block {block}, gamma {gamma}")


def _count_pair_posteriors(monkeypatch):
    calls = []
    build = VariationalState.eta_pair.func

    def counting(state):
        calls.append(state)
        return build(state)

    prop = cached_property(counting)
    prop.__set_name__(VariationalState, "eta_pair")
    monkeypatch.setattr(VariationalState, "eta_pair", prop)
    return calls


def test_no_fit_or_pass_builds_per_pair_posteriors(monkeypatch):
    # fit, all three root passes (the full one on the fit's state) and the
    # argmax threads read the E-step's terms; eta_pair is built only when read
    events, _ = rs.simulate(rs.make_synthetic_config(T=200.0, seed=3))
    built = _count_pair_posteriors(monkeypatch)
    report = fit(events, nu=10.0, window=20.0, max_iters=5)
    assert report.iterations == 5
    for compute in (rs.root_probabilities, rs.root_probabilities_temporal,
                    rs.root_probabilities_mark):
        compute(events, report.params, window=20.0)
    rs.mini_conversations(report.eta, events)
    assert built == [] and "eta_pair" not in vars(report.eta)
    report.eta.eta_pair
    assert built == [report.eta]


def brute_force_dropped(events, params, window):
    """Share of each event's excitation intensity from parents beyond the window."""
    n = len(events)
    out = np.zeros(n)
    for i in range(n):
        lag = events.times[i] - events.times[:i]
        excite = params.A[events.sources[i], events.sources[:i]] * np.exp(-lag / params.nu)
        if excite.sum() > 0:
            out[i] = excite[lag > window * params.nu].sum() / excite.sum()
    return out


def test_window_dropped_share():
    rng = np.random.default_rng(97)
    events = random_events(rng, 60, 3, 4, T=30.0)
    params = random_params(rng, 3, 4, nu=1.0)
    report = fit(events, init=params, window=2.0, max_iters=3)
    want = brute_force_dropped(events, report.params, 2.0)
    assert want.max() > 1e-3
    assert report.window_dropped_max == pytest.approx(want.max(), rel=1e-12)
    assert report.window_dropped_mean == pytest.approx(want.mean(), rel=1e-12)
    whole = fit(events, init=params, window=100.0, max_iters=3)
    assert whole.window_dropped_max == 0.0 and whole.window_dropped_mean == 0.0
    exact = fit(events, init=params, max_iters=3)
    assert exact.window_dropped_max is None and exact.window_dropped_mean is None


def test_update_eta_matches_oracle():
    rng = np.random.default_rng(29)
    for _ in range(5):
        events, params = random_instance(rng, n_max=7)
        _, eta_oracle, _ = enumerate_posteriors(events, params)
        got = dense_eta(update_eta(events, params))
        np.testing.assert_allclose(got, eta_oracle[:, : got.shape[1]], atol=1e-10)


def test_update_eta_raises_on_dead_event():
    params = rs.ModelParams(rho=np.array([0.0]), A=np.zeros((1, 1)),
                            theta=np.array([[1.0]]), gamma=0.0, nu=1.0)
    events = rs.EventSequence.from_events([rs.Event.make(1, 1.0, 0, {0: 1})],
                                          T=2.0, S=1, V=1)
    with pytest.raises(NumericalError, match="event 1"):
        update_eta(events, params)


def test_update_rho_alpha_single_event():
    params = rs.ModelParams(rho=np.array([0.3, 0.3]), A=np.zeros((2, 2)),
                            theta=np.ones((2, 1)) * np.array([[1.0]]),
                            gamma=0.0, nu=2.0)
    events = rs.EventSequence.from_events([rs.Event.make(1, 4.0, 1, {})],
                                          T=10.0, S=2, V=1)
    state = update_eta(events, params)
    assert state.eta0[0] == 1.0
    rho, A = update_rho_alpha(events, state, PriorConfig.maximum_likelihood(2))
    np.testing.assert_allclose(rho, [0.0, 0.1])  # eta_10 / T for the event's source
    np.testing.assert_array_equal(A, np.zeros((2, 2)))


def test_update_rho_alpha_keeps_exact_zeros():
    rng = np.random.default_rng(31)
    events, params = random_instance(rng)
    zero = rs.ModelParams(rho=params.rho, A=np.zeros_like(params.A),
                          theta=params.theta, gamma=params.gamma, nu=params.nu)
    state = update_eta(events, zero)
    np.testing.assert_array_equal(state.eta0, np.ones(len(events)))
    diag = {}
    rho, A = update_rho_alpha(events, state, PriorConfig.maximum_likelihood(events.S),
                              diag)
    assert diag["clamped"] == 0
    assert np.all(A == 0.0)  # zero numerators stay exactly zero in ML mode
    counts = np.bincount(events.sources, minlength=events.S)
    np.testing.assert_allclose(rho, counts / events.T)


def test_update_rho_alpha_clamps_negative_numerators():
    events = rs.EventSequence.from_events([rs.Event.make(1, 1.0, 0, {})],
                                          T=2.0, S=1, V=0)
    params = rs.ModelParams(rho=np.array([0.5]), A=np.zeros((1, 1)),
                            theta=np.ones((1, 0)), gamma=0.0, nu=1.0)
    state = update_eta(events, params)
    prior = PriorConfig(a_rho=np.array([0.5]), b_rho=1.0,
                        a_alpha=np.array([0.5]), b_alpha=1.0)
    diag = {}
    rho, A = update_rho_alpha(events, state, prior, diag)
    # A numerator is 0.5 - 1 + 0 < 0 -> floored, counted
    assert diag["clamped"] == 1
    assert 0 < A[0, 0] < 1e-9
    assert rho[0] == pytest.approx(0.5 / 3.0)  # (0.5 - 1 + 1) / (1 + T)


def dense_theta_gamma(events, params, eta):
    """Minorant maximizer computed event by event (child-count form)."""
    S, V, g = params.S, params.V, params.gamma
    tnum = np.zeros((S, V))
    gnum = gden = 0.0
    for i, e in enumerate(events):
        xs = np.zeros(V)
        xs[e.tokens] = e.counts
        tnum[e.s] += eta[i, 0] * xs
        for j in range(i):
            par = events[j]
            if par.L == 0:
                tnum[e.s] += eta[i, j + 1] * xs
                continue
            xt = np.zeros(V)
            xt[par.tokens] = par.normalized_counts()
            xi = g * xt / ((1 - g) * params.theta[e.s] + g * xt)
            tnum[e.s] += eta[i, j + 1] * xs * (1 - xi)
            gnum += eta[i, j + 1] * float(np.dot(xs, xi))
            gden += eta[i, j + 1] * e.L
    tnum = np.maximum(tnum, 1e-12)
    theta = tnum / tnum.sum(axis=1, keepdims=True)
    gamma = gnum / gden if gden > 0 else g
    return theta, min(max(gamma, 1e-6), 1 - 1e-6)


def test_update_theta_gamma_matches_dense():
    rng = np.random.default_rng(37)
    for _ in range(6):
        events, params = random_instance(rng)
        state = update_eta(events, params)
        theta, gamma = update_theta_gamma(events, state,
                                          (params.theta, params.gamma))
        theta_ref, gamma_ref = dense_theta_gamma(events, params, dense_eta(state))
        np.testing.assert_allclose(theta, theta_ref, atol=1e-12)
        assert gamma == pytest.approx(gamma_ref, abs=1e-12)


def test_update_theta_gamma_zero_gamma_fixed_point():
    rng = np.random.default_rng(41)
    events, params = random_instance(rng, S_max=3)
    frozen = rs.ModelParams(rho=params.rho, A=params.A, theta=params.theta,
                            gamma=0.0, nu=params.nu)
    state = update_eta(events, frozen)
    theta, gamma = update_theta_gamma(events, state, (frozen.theta, 0.0))
    assert gamma == 0.0
    counts = events.token_counts_by_source()
    mass = counts.sum(axis=1, keepdims=True)
    want = np.where(mass > 0, np.maximum(counts, 1e-12)
                    / np.maximum(counts, 1e-12).sum(axis=1, keepdims=True),
                    theta)
    np.testing.assert_allclose(theta[mass[:, 0] > 0], want[mass[:, 0] > 0],
                               atol=1e-9)


def test_elbo_single_immigrant_hand_value():
    params = rs.ModelParams(rho=np.array([0.2]), A=np.zeros((1, 1)),
                            theta=np.array([[1.0]]), gamma=0.0, nu=1.0)
    events = rs.EventSequence.from_events([rs.Event.make(1, 3.0, 0, {0: 2})],
                                          T=5.0, S=1, V=1)
    state = update_eta(events, params)
    # eta = 1 on the only hypothesis: L = -rho T + log(rho * 1^2) - 0
    assert elbo(events, params, state) == pytest.approx(-1.0 + math.log(0.2), rel=1e-12)


def test_elbo_equals_log_marginal_at_exact_posterior():
    rng = np.random.default_rng(47)
    for _ in range(3):
        events, params = random_instance(rng, n_max=7)
        state = update_eta(events, params)
        _, _, log_marginal = enumerate_posteriors(events, params)
        assert elbo(events, params, state) == pytest.approx(log_marginal, abs=1e-10)
        # and the fit trace definition agrees with the direct evaluation
        from rootsource.fitting import _compensator_terms
        direct = float(np.sum(state.log_z)) - _compensator_terms(state.structure, params)
        assert direct == pytest.approx(log_marginal, abs=1e-10)


def test_elbo_validates_state():
    rng = np.random.default_rng(53)
    events, params = random_instance(rng)
    other_events, _ = random_instance(rng)
    state = update_eta(events, params)
    retuned = rs.ModelParams(rho=params.rho, A=params.A, theta=params.theta,
                             gamma=params.gamma, nu=params.nu * 2.0)
    with pytest.raises(ValidationError):
        elbo(events, retuned, state)
    if len(other_events) != len(events):
        with pytest.raises(ValidationError):
            elbo(other_events, params, update_eta(events, params))


@pytest.fixture(scope="module")
def two_draws():
    # a window-20 layout at nu = 10 of one draw, its E-step, and another draw
    draws = [rs.simulate(rs.make_synthetic_config(T=60.0, seed=seed))[0] for seed in (3, 4)]
    params = _default_init(draws[0], PriorConfig.maximum_likelihood(draws[0].S), 10.0)
    layout = PairStructure(draws[0], 10.0, window=20.0)
    return draws, params, layout, update_eta(draws[0], params, layout, window=20.0)


def _with_nu(params, nu):
    return rs.ModelParams(rho=params.rho, A=params.A, theta=params.theta,
                          gamma=params.gamma, nu=nu)


def _prefix(events, m):
    """The first m events of a sequence, as a new sequence over its [0, T]."""
    ip = events.tok_indptr
    return rs.EventSequence(events.times[:m], events.sources[:m], ip[:m + 1],
                            events.tok_index[:ip[m]], events.tok_count[:ip[m]],
                            events.T, events.S, events.V)


# (call on two_draws' (events, other events, params, layout, state), what
# the error names): a layout or state of other settings is refused
MISMATCH_CASES = {
    "update_eta, other events": (lambda e, o, p, st, s: update_eta(o, p, st),
                                 r"another events object \(\d+ events, not the given \d+\)"),
    "update_eta, other nu": (lambda e, o, p, st, s: update_eta(e, _with_nu(p, 5.0), st),
                             r"nu = 10\.0, the parameters have nu = 5\.0"),
    "update_eta, other window": (lambda e, o, p, st, s: update_eta(e, p, st, window=1.0),
                                 r"window 20\.0, not the given 1\.0"),
    "update_rho_alpha, other events": (
        lambda e, o, p, st, s: update_rho_alpha(o, s, PriorConfig.maximum_likelihood(o.S)),
        "state was built for another events object"),
    "update_theta_gamma, other events": (
        lambda e, o, p, st, s: update_theta_gamma(o, s, (p.theta, p.gamma)),
        "state was built for another events object"),
    # a sequence of the same length is another sequence all the same
    "elbo, same-length other events": (
        lambda e, o, p, st, s: elbo(_prefix(o, len(e)), p, s),
        r"state was built for another events object \((\d+) events, not the given \1\)"),
    "mini_conversations, same-length other events": (
        lambda e, o, p, st, s: rs.mini_conversations(s, _prefix(o, len(e))),
        r"state was built for another events object \((\d+) events, not the given \1\)"),
    "elbo, other nu": (lambda e, o, p, st, s: elbo(e, _with_nu(p, 5.0), s),
                       r"nu = 10\.0, the parameters have nu = 5\.0"),
}


@pytest.mark.parametrize("case", list(MISMATCH_CASES))
def test_block_updates_refuse_other_settings(case, two_draws):
    (events, other), params, layout, state = two_draws
    assert len(events) != len(other)
    call, match = MISMATCH_CASES[case]
    with pytest.raises(ValidationError, match=match):
        call(events, other, params, layout, state)
    # the matching call runs
    update_eta(events, params, layout, window=20)


def test_fit_refuses_a_nu_other_than_the_initial_parameters(two_draws):
    (events, _), params, _, _ = two_draws
    with pytest.raises(ValidationError, match=r"nu = 2\.5 conflicts with the initial "
                                              r"parameters' nu = 10\.0"):
        fit(events, init=params, nu=2.5, window=20.0, max_iters=2)
    # an equal nu, as `rootsource fit` passes it, fits as init alone does
    np.testing.assert_array_equal(
        fit(events, init=params, nu=10.0, window=20.0, max_iters=2).elbo_trace,
        fit(events, init=params, window=20.0, max_iters=2).elbo_trace)


def _prior(length, which, c=None):
    """Gamma shapes 2 for both kinds, `which` of them `length` long (or of
    that shape) and the other one long; rates 1."""
    a = {"a_rho": np.full(1, 2.0), "a_alpha": np.full(1, 2.0)}
    a[which] = np.full(length, 2.0)
    return PriorConfig(b_rho=1.0, b_alpha=1.0, c=c, **a)


# a call with a prior, on two_draws' (events, params, state)
PRIOR_CALLS = {
    "fit": lambda e, p, s, prior: fit(e, nu=10.0, prior=prior, window=20.0,
                                      max_iters=3).elbo_trace,
    "fit, empirical Bayes": lambda e, p, s, prior: fit(
        e, nu=10.0, prior=PriorConfig(prior.a_rho, 1.0, prior.a_alpha, 1.0, c=0.1),
        window=20.0, max_iters=3).elbo_trace,
    "update_rho_alpha": lambda e, p, s, prior: np.concatenate(
        [x.ravel() for x in update_rho_alpha(e, s, prior)]),
    "elbo": lambda e, p, s, prior: elbo(e, p, s, prior),
}


@pytest.mark.parametrize("which", ["a_rho", "a_alpha"])
@pytest.mark.parametrize("call", list(PRIOR_CALLS))
def test_prior_shapes_are_one_or_one_per_source(call, which, two_draws):
    (events, _), params, _, state = two_draws
    S = events.S
    assert S == 5
    # a column or a row of S shapes is refused when the prior is made
    for shape in ((S, 1), (1, S)):
        with pytest.raises(ValidationError,
                           match=re.escape(f"prior {which} must be 1-D, not of shape {shape}")):
            _prior(shape, which)
    with pytest.raises(ValidationError, match=f"prior {which} has length 3, not 1 or S = 5"):
        PRIOR_CALLS[call](events, params, state, _prior(3, which))
    # one shape is shared by every source: the same values as S equal ones
    np.testing.assert_array_equal(PRIOR_CALLS[call](events, params, state, _prior(1, which)),
                                  PRIOR_CALLS[call](events, params, state, _prior(S, which)))


@pytest.mark.parametrize("zero", [("b_rho",), ("b_alpha",), ("b_rho", "b_alpha")])
def test_prior_c_needs_positive_rates(zero):
    # fit's default initial point divides the shapes by the rates: with a
    # zero rate it warned of a division by zero and then named rho or A
    rates = {"b_rho": 1.0, "b_alpha": 1.0, **{name: 0.0 for name in zero}}
    message = " and ".join(f"{name} = 0" for name in zero)
    with pytest.raises(ValidationError, match=f"^prior c = 0.1 needs positive rates, not "
                                              f"{message}$"):
        PriorConfig(a_rho=np.ones(5), a_alpha=np.ones(5), c=0.1, **rates)
    # without c a zero rate is the improper maximum-likelihood prior
    PriorConfig(a_rho=np.ones(5), a_alpha=np.ones(5), **rates)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["a_rho", "b_rho", "a_alpha", "b_alpha"])
def test_prior_refuses_non_finite_values(field, value):
    # NaN passed the checks a <= 0 and b < 0, and inf both: fit then failed
    # without naming the prior, with a NaN ELBO at iteration 1 or 2, zero
    # probabilities, or ModelParams' "A must be a finite nonnegative S x S
    # matrix" from inside the M-step
    values = {"a_rho": [1.0, 1.0], "b_rho": 0.0, "a_alpha": [1.0, 1.0], "b_alpha": 0.0}
    values[field] = [2.0, value] if field.startswith("a") else value
    kind = "shapes must be positive" if field.startswith("a") else "rates must be nonnegative"
    with pytest.raises(ValidationError, match=f"^prior {kind} and finite, not {field} = {value}$"):
        PriorConfig(**values)


def _nan_objective_draw():
    """A 73-event draw, and a start and a prior at which the log-prior is
    NaN: rho[4] = 0 under shape 0.5 gives +inf, A[4, 4] = 0 under shape 2
    gives -inf."""
    events = rs.simulate(rs.make_synthetic_config(T=60.0, seed=3))[0]
    init = fit(events, nu=10.0, max_iters=1).params
    rho, A = init.rho.copy(), init.A.copy()
    rho[4] = A[4, 4] = 0.0
    start = rs.ModelParams(rho=rho, A=A, theta=init.theta, gamma=init.gamma, nu=init.nu)
    prior = PriorConfig(a_rho=[1.0, 1.0, 1.0, 1.0, 0.5], b_rho=0.0, a_alpha=2.0, b_alpha=0.0)
    return events, start, prior


def test_a_nan_objective_raises_with_the_iteration():
    events, start, prior = _nan_objective_draw()
    assert len(events) == 73
    with pytest.raises(NumericalError, match="^ELBO evaluated to NaN$"):
        elbo(events, start, update_eta(events, start), prior)
    with pytest.raises(NumericalError, match="^ELBO evaluated to NaN at iteration 1$"):
        fit(events, init=start, prior=prior)


def test_fit_single_event_trivial():
    events = rs.EventSequence.from_events([rs.Event.make(1, 2.0, 0, {0: 3})],
                                          T=4.0, S=1, V=1)
    report = fit(events, nu=1.0)
    assert report.converged
    assert report.iterations <= 2
    assert report.params.rho[0] == pytest.approx(1.0 / 4.0)
    np.testing.assert_allclose(report.params.theta, [[1.0]])
    assert report.eta.eta0[0] == 1.0


def test_fit_trace_is_monotone_small():
    rng = np.random.default_rng(59)
    for _ in range(8):
        events, params = random_instance(rng)
        report = fit(events, init=params)
        diffs = np.diff(report.elbo_trace)
        assert np.all(diffs >= -1e-8), diffs


@pytest.mark.parametrize("max_iters", [1, 2, 3])
def test_unconverged_fit_returns_the_eta_of_its_params(max_iters):
    # a fit cut at max_iters skips the M-step after its last E-step
    events, _ = rs.simulate(rs.make_synthetic_config(T=400.0, seed=1))
    report = fit(events, nu=10.0, window=20.0, max_iters=max_iters)
    assert not report.converged and report.iterations == max_iters
    want = update_eta(events, report.params, window=20.0)
    for name in ("eta0", "eta_pair", "log_z"):
        np.testing.assert_array_equal(getattr(report.eta, name), getattr(want, name))
    assert elbo(events, report.params, report.eta) == report.elbo_trace[-1]


def test_converged_fit_returns_the_eta_of_its_params():
    # a fit that stops on its tolerance: elbo at the returned parameters is
    # the last trace value, term for term
    events, _ = rs.simulate(rs.make_synthetic_config(T=400.0, seed=1))
    report = fit(events, nu=10.0, window=20.0, tol=1e-5)
    assert report.converged and 2 < report.iterations < 200
    assert elbo(events, report.params, report.eta) == report.elbo_trace[-1]


@pytest.mark.parametrize("eb", [False, True], ids=["no prior", "empirical Bayes"])
def test_elbo_at_the_states_parameters_runs_no_weights(eb, monkeypatch):
    # at the returned parameters, or an equal copy of them, elbo is the last
    # trace value and runs no `_weights`; at other parameters it runs them
    # there and, on the state's first such call, at its own
    events, _ = rs.simulate(rs.make_synthetic_config(T=200.0, seed=1))
    prior = PriorConfig.empirical_bayes(events) if eb else None
    report = fit(events, nu=10.0, window=20.0, prior=prior, max_iters=3)
    seen = []
    weights = rs.posterior._weights
    monkeypatch.setattr(rs.posterior, "_weights",
                        lambda st, params, *args: seen.append(params) or weights(st, params, *args))
    for params in (report.params, copy.deepcopy(report.params)):
        assert elbo(events, params, report.eta, prior) == report.elbo_trace[-1]
    assert seen == []
    p = report.params
    moved = rs.ModelParams(rho=1.5 * p.rho, A=p.A, theta=p.theta, gamma=p.gamma, nu=p.nu)
    for calls in (2, 3):
        assert math.isfinite(elbo(events, moved, report.eta, prior))
        assert len(seen) == calls and seen[-1] is moved
    assert rs.posterior.same_params(seen[0], p)


def test_elbo_allocates_nothing_per_pair():
    # exact mode with fewer overlap pairs than pairs: elbo reads the state's
    # masses and the terms at its parameters, at its own and at others
    rng = np.random.default_rng(113)
    events = random_events(rng, 600, 3, 400, T=60.0)
    params = random_params(rng, 3, 400, gamma=0.4, nu=1.0)
    state = update_eta(events, params)
    st = state.structure
    assert st.ov_parent.size < st.n_pairs // 10
    other = rs.ModelParams(rho=2.0 * params.rho, A=params.A[::-1].copy(),
                           theta=params.theta, gamma=0.7, nu=params.nu)
    tracemalloc.start()
    try:
        elbo(events, params, state)
        elbo(events, other, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < st.n_pairs * 8, (peak, st.n_pairs)


@pytest.mark.parametrize("S, V", [(2, 6), (4, 6), (3, 5), (3, 12)],
                         ids=["fewer sources", "more sources", "fewer tokens", "more tokens"])
def test_parameters_of_other_sources_or_tokens_are_refused(S, V, tmp_path, capsys):
    # every E-step, root pass and elbo goes through _weights, which refuses
    # parameters whose S or V differ from the events': larger ones were read
    # without a word, smaller ones raised a bare IndexError
    from rootsource.cli import main
    from rootsource.dataio import write_events, write_params

    rng = np.random.default_rng(115)
    events = random_events(rng, 60, 3, 6, T=15.0)
    state = update_eta(events, random_params(rng, 3, 6, nu=1.0))
    other = random_params(rng, S, V, nu=1.0)
    match = re.escape(f"S x V = {S} x {V} do not match the events' S x V = 3 x 6")
    for call in (lambda: rs.root_probabilities(events, other),
                 lambda: rs.root_probabilities_temporal(events, other),
                 lambda: rs.root_probabilities_mark(events, other),
                 lambda: fit(events, init=other, max_iters=2),
                 lambda: update_eta(events, other),
                 lambda: elbo(events, other, state)):
        with pytest.raises(ValidationError, match=match):
            call()
    write_events(events, tmp_path / "ev.jsonl")
    write_params(other, tmp_path / "p.json")
    with pytest.raises(SystemExit) as exc:
        main(["root-prob", "--events", str(tmp_path / "ev.jsonl"),
              "--params", str(tmp_path / "p.json"), "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "do not match the events'" in err and "Traceback" not in err


def test_fit_huge_window_matches_exact():
    rng = np.random.default_rng(61)
    events, params = random_instance(rng)
    exact = fit(events, init=params, max_iters=10)
    windowed = fit(events, init=params, max_iters=10, window=1e6)
    np.testing.assert_allclose(exact.params.A, windowed.params.A, atol=1e-12)
    np.testing.assert_allclose(exact.params.rho, windowed.params.rho, atol=1e-12)
    np.testing.assert_allclose(exact.elbo_trace, windowed.elbo_trace, atol=1e-9)
    assert windowed.window == 1e6


def test_fit_requires_events_and_bandwidth():
    rng = np.random.default_rng(67)
    events, params = random_instance(rng)
    with pytest.raises(ValidationError):
        fit(rs.EventSequence.from_events([], T=1.0, S=1, V=1), nu=1.0)
    with pytest.raises(ValidationError):
        fit(events)  # neither init nor nu
    with pytest.raises(ValidationError):
        fit(events, init=params, tol=0.0)
    # NaN passed `tol <= 0` and ran every sweep unconverged
    with pytest.raises(ValidationError, match="tol must be positive"):
        fit(events, init=params, tol=np.nan, max_iters=50)


def test_fit_empirical_bayes_shrinks_toward_prior():
    rng = np.random.default_rng(71)
    events, params = random_instance(rng, n_max=9)
    prior = PriorConfig.empirical_bayes(events, c=0.1)
    report = fit(events, prior=prior, nu=params.nu)
    assert report.converged
    assert np.all(np.isfinite(report.params.A))
    # posterior means stay within an order of magnitude of the prior means
    prior_mean = prior.a_alpha[:, None] / prior.b_alpha
    assert np.all(report.params.A < 10 * prior_mean)


def test_jitter_init_deterministic_and_valid():
    rng = np.random.default_rng(73)
    _, params = random_instance(rng)
    j1 = jitter_init(params, seed=4)
    j2 = jitter_init(params, seed=4)
    j3 = jitter_init(params, seed=5)
    np.testing.assert_array_equal(j1.A, j2.A)
    assert not np.array_equal(j1.A, j3.A)
    np.testing.assert_allclose(j1.theta.sum(axis=1), 1.0, atol=1e-12)
    assert j1.gamma == params.gamma and j1.nu == params.nu
