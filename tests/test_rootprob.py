import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

import rootsource as rs
from rootsource.errors import NumericalError, ValidationError
from rootsource.model import (excited_intensity, log_mark_density_immigrant,
                              log_mark_density_offspring)
from rootsource.rootprob import (
    ORACLE_CAP,
    RootProbMatrix,
    _choice_log_weights,
    enumerate_oracle,
    enumerate_posteriors,
    root_probabilities,
    root_probabilities_mark,
    root_probabilities_temporal,
)
from rootsource.fitting import ROOT_BLOCK, PairStructure
from util import dense_eta, random_events, random_instance, random_params, reference_root_pass


def test_matrix_validation():
    RootProbMatrix(np.array([[0.3, 0.7]]))
    with pytest.raises(ValidationError):
        RootProbMatrix(np.array([[0.3, 0.6]]))
    with pytest.raises(ValidationError):
        RootProbMatrix(np.array([[1.2, -0.2]]))
    for row in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValidationError):
            RootProbMatrix(np.array([row]))
    with pytest.raises(ValidationError):
        RootProbMatrix(np.array([0.3, 0.7]))
    with pytest.raises(ValidationError):
        RootProbMatrix(np.array([[1.0]]), mode="bogus")
    m = RootProbMatrix(np.array([[0.5, 0.5], [0.1, 0.9]]), mode="mark_only")
    assert (m.n, m.S) == (2, 2)
    np.testing.assert_array_equal(m.argmax_sources(), [0, 1])  # tie -> lowest


def test_first_event_is_its_own_root():
    rng = np.random.default_rng(2)
    events, params = random_instance(rng)
    for r in (root_probabilities(events, params),
              root_probabilities_temporal(events, params),
              root_probabilities_mark(events, params)):
        want = np.zeros(params.S)
        want[events.sources[0]] = 1.0
        np.testing.assert_allclose(r.r[0], want, atol=1e-15)


def test_no_excitation_gives_one_hot_rows():
    rng = np.random.default_rng(7)
    events, params = random_instance(rng)
    quiet = rs.ModelParams(rho=params.rho, A=np.zeros_like(params.A),
                           theta=params.theta, gamma=params.gamma, nu=params.nu)
    r = root_probabilities(events, quiet).r
    want = np.zeros_like(r)
    want[np.arange(len(events)), events.sources] = 1.0
    np.testing.assert_allclose(r, want, atol=1e-15)


def test_temporal_three_event_hand_case():
    evs = [rs.Event.make(1, 1.0, 0, {}), rs.Event.make(2, 2.0, 1, {}),
           rs.Event.make(3, 3.0, 0, {})]
    events = rs.EventSequence.from_events(evs, T=4.0, S=2, V=0)
    params = rs.ModelParams(rho=np.array([0.2, 0.4]),
                            A=np.array([[0.5, 0.3], [0.2, 0.6]]),
                            theta=np.ones((2, 0)), gamma=0.0, nu=2.0)
    kap = lambda lag: math.exp(-lag / 2.0) / 2.0
    r1 = np.array([1.0, 0.0])
    w = np.array([0.4, 0.2 * kap(1.0)])  # event 2: immigrant vs parent 1
    r2 = (w[0] * np.array([0.0, 1.0]) + w[1] * r1) / w.sum()
    w = np.array([0.2, 0.5 * kap(2.0), 0.3 * kap(1.0)])
    r3 = (w[0] * np.array([1.0, 0.0]) + w[1] * r1 + w[2] * r2) / w.sum()
    got = root_probabilities_temporal(events, params).r
    np.testing.assert_allclose(got, np.vstack([r1, r2, r3]), atol=1e-14)
    # with no marks the full model reduces to the temporal one
    full = root_probabilities(events, params).r
    np.testing.assert_allclose(full, got, atol=1e-14)


def test_full_three_event_hand_case():
    evs = [rs.Event.make(1, 1.0, 0, {0: 1}), rs.Event.make(2, 2.0, 1, {1: 1}),
           rs.Event.make(3, 3.0, 0, {0: 1})]
    events = rs.EventSequence.from_events(evs, T=4.0, S=2, V=2)
    g = 0.25
    params = rs.ModelParams(rho=np.array([0.2, 0.4]),
                            A=np.array([[0.5, 0.3], [0.2, 0.6]]),
                            theta=np.array([[0.7, 0.3], [0.4, 0.6]]),
                            gamma=g, nu=2.0)
    kap = lambda lag: math.exp(-lag / 2.0) / 2.0
    r1 = np.array([1.0, 0.0])
    w = np.array([0.4 * 0.6, 0.2 * kap(1.0) * ((1 - g) * 0.6 + 0.0)])
    r2 = (w[0] * np.array([0.0, 1.0]) + w[1] * r1) / w.sum()
    w = np.array([
        0.2 * 0.7,
        0.5 * kap(2.0) * ((1 - g) * 0.7 + g * 1.0),
        0.3 * kap(1.0) * ((1 - g) * 0.7 + g * 0.0),
    ])
    r3 = (w[0] * np.array([1.0, 0.0]) + w[1] * r1 + w[2] * r2) / w.sum()
    got = root_probabilities(events, params).r
    np.testing.assert_allclose(got, np.vstack([r1, r2, r3]), atol=1e-14)


def test_dp_matches_enumeration():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(12):
        events, params = random_instance(rng, n_max=8)
        got = root_probabilities(events, params).r
        want = enumerate_oracle(events, params).r
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-10


def test_modes_differ_in_general():
    rng = np.random.default_rng(19)
    events, params = random_instance(rng, n_max=9, S_max=4)
    full = root_probabilities(events, params)
    temp = root_probabilities_temporal(events, params)
    mark = root_probabilities_mark(events, params)
    assert (full.mode, temp.mode, mark.mode) == ("full", "temporal_only", "mark_only")
    assert np.abs(full.r - temp.r).max() > 1e-6
    assert np.abs(full.r - mark.r).max() > 1e-6


def test_empty_marks_make_temporal_exact():
    rng = np.random.default_rng(23)
    events = random_events(rng, 8, 3, 4, max_len=1)  # every mark is empty
    assert events.lengths.sum() == 0
    A = rng.uniform(0, 0.3, (3, 3))
    theta = rng.dirichlet(np.ones(4), size=3)
    for gamma in (0.6, 1.0):
        params = rs.ModelParams(rho=np.full(3, 0.2), A=A, theta=theta, gamma=gamma,
                                nu=1.0)
        full = root_probabilities(events, params).r
        temp = root_probabilities_temporal(events, params).r
        np.testing.assert_allclose(full, temp, atol=1e-14)


def test_equal_intensities_make_mark_exact():
    # nu so large that every kernel factor is 1/nu, A = rho * nu: all temporal
    # weights coincide, so only mark densities distinguish parents
    rng = np.random.default_rng(29)
    n, S, V = 9, 3, 5
    times = np.sort(rng.uniform(0.0, 1e-3, n)) + 1e-6
    evs = []
    for k in range(n):
        counts = {int(v): int(c) for v, c in
                  zip(rng.integers(0, V, 3), rng.integers(1, 4, 3))}
        evs.append(rs.Event.make(k + 1, float(times[k]), int(rng.integers(0, S)),
                                 counts))
    events = rs.EventSequence.from_events(evs, T=1.0, S=S, V=V)
    nu = 1e9
    params = rs.ModelParams(rho=np.full(S, 0.3), A=np.full((S, S), 0.3 * nu),
                            theta=rng.dirichlet(np.ones(V), size=S), gamma=0.4,
                            nu=nu)
    full = root_probabilities(events, params).r
    mark = root_probabilities_mark(events, params).r
    np.testing.assert_allclose(full, mark, atol=1e-9)


def test_scale_invariance():
    rng = np.random.default_rng(31)
    events, params = random_instance(rng)
    base = root_probabilities(events, params).r
    for c in (1e-3, 7.0, 1e4):
        scaled = rs.ModelParams(rho=c * params.rho, A=c * params.A,
                                theta=params.theta, gamma=params.gamma,
                                nu=params.nu)
        got = root_probabilities(events, scaled).r
        assert np.abs(got - base).max() <= 1e-12


def test_prefix_consistency():
    rng = np.random.default_rng(37)
    events, params = random_instance(rng, n_max=9)
    full = root_probabilities(events, params).r
    for m in range(1, len(events)):
        prefix = rs.EventSequence.from_events(list(events)[:m], T=events.T,
                                              S=events.S, V=events.V)
        got = root_probabilities(prefix, params).r
        np.testing.assert_allclose(got, full[:m], atol=1e-12)


def test_window_approximation_is_close():
    rng = np.random.default_rng(41)
    events, params = random_instance(rng)
    exact = root_probabilities(events, params).r
    approx = root_probabilities(events, params, window=20.0).r
    np.testing.assert_allclose(approx, exact, atol=1e-6)


def test_degenerate_row_raises_with_event_name():
    params = rs.ModelParams(rho=np.array([0.0]), A=np.array([[0.5]]),
                            theta=np.array([[1.0]]), gamma=0.0, nu=1.0)
    events = rs.EventSequence.from_events([rs.Event.make(1, 1.0, 0, {})],
                                          T=2.0, S=1, V=1)
    with pytest.raises(NumericalError, match="event 1"):
        root_probabilities(events, params)


def test_oracle_cap():
    rng = np.random.default_rng(43)
    events = random_events(rng, ORACLE_CAP + 1, 2, 3)
    params = rs.ModelParams(rho=np.full(2, 0.2), A=np.full((2, 2), 0.2),
                            theta=rng.dirichlet(np.ones(3), size=2), gamma=0.3,
                            nu=1.0)
    with pytest.raises(ValidationError):
        enumerate_oracle(events, params)


def test_oracle_log_marginal_is_finite_and_reproducible():
    rng = np.random.default_rng(47)
    events, params = random_instance(rng, n_max=6)
    r1, eta1, lm1 = enumerate_posteriors(events, params)
    r2, eta2, lm2 = enumerate_posteriors(events, params)
    assert lm1 == lm2 and np.isfinite(lm1)
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_allclose(eta1.sum(axis=1), 1.0, atol=1e-12)


def _zero_theta(events, params):
    # theta[s, v] = 0 for a token v of the first marked event and every source s
    # other than that event's, so the zero is reachable but event 1 survives
    first = int(np.argmax(events.lengths > 0))
    v = int(events[first].tokens[0])
    theta = params.theta.copy()
    theta[np.arange(params.S) != events.sources[first], v] = 0.0
    theta /= theta.sum(axis=1, keepdims=True)
    return rs.ModelParams(rho=params.rho, A=params.A, theta=theta,
                          gamma=params.gamma, nu=params.nu)


def _degenerate_instances(seed, count):
    """(events, params) under gamma = 1 or zero theta entries, oracle finite."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        events, params = random_instance(rng, n_max=8)
        if events.lengths.sum() == 0:
            continue
        for hot in (_zero_theta(events, params),
                    rs.ModelParams(rho=params.rho, A=params.A, theta=params.theta,
                                   gamma=1.0, nu=params.nu)):
            try:
                enumerate_oracle(events, hot)
            except NumericalError:
                with pytest.raises(NumericalError):
                    root_probabilities(events, hot)
                continue
            out.append((events, hot))
    return out


def test_degenerate_params_match_enumeration():
    # gamma = 1 and exact zeros in theta take the dead-token mark densities
    cases = _degenerate_instances(53, 12)
    assert any(p.gamma == 1.0 for _, p in cases)
    assert any(p.theta.min() == 0.0 for _, p in cases)
    worst = 0.0
    for events, params in cases:
        got = root_probabilities(events, params).r
        want = enumerate_oracle(events, params).r
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-10


def test_submodels_ignore_the_other_factor():
    # the temporal pass never reads (theta, gamma), the mark pass never (rho, A)
    rng = np.random.default_rng(59)
    events = random_events(rng, 40, 3, 6)
    params = random_params(rng, 3, 6)
    temp = root_probabilities_temporal(events, params).r
    mark = root_probabilities_mark(events, params).r
    hot = [_zero_theta(events, params),
           rs.ModelParams(rho=params.rho, A=params.A, theta=params.theta,
                          gamma=1.0, nu=params.nu)]
    for p in hot:
        np.testing.assert_array_equal(root_probabilities_temporal(events, p).r, temp)
    for p in [params] + hot:
        other = rs.ModelParams(rho=rng.uniform(0.05, 0.5, 3),
                               A=rng.uniform(0.0, 0.3, (3, 3)), theta=p.theta,
                               gamma=p.gamma, nu=p.nu)
        want = mark if p is params else root_probabilities_mark(events, p).r
        np.testing.assert_array_equal(root_probabilities_mark(events, other).r, want)


@pytest.mark.parametrize("n, window", [(2000, 20.0), (1000, None)])
def test_rows_sum_to_one_without_renormalization(n, window):
    params = rs.make_synthetic_params(seed=61)
    events, _ = rs.simulate(rs.make_synthetic_config(T=n / 2.5, seed=61, params=params))
    assert len(events) > n // 2
    for compute in (root_probabilities, root_probabilities_temporal,
                    root_probabilities_mark):
        r = compute(events, params, window=window).r
        assert np.abs(r.sum(axis=1) - 1.0).max() <= 1e-12


@st.composite
def _oracle_cases(draw):
    """Small sequences with empty marks, near-tied times, zeros in A and theta, and
    gamma in {0, 1, interior}."""
    n = draw(st.integers(1, 8))
    S = draw(st.integers(1, 3))
    V = draw(st.integers(1, 6))
    # gaps down to 1e-9 put near-ties between events; times stay strictly increasing
    gaps = st.floats(1e-3, 2.0) | st.floats(1e-9, 1e-3)
    times = np.cumsum(draw(st.lists(gaps, min_size=n, max_size=n)))
    evs = [rs.Event.make(k + 1, float(times[k]), draw(st.integers(0, S - 1)),
                         draw(st.dictionaries(st.integers(0, V - 1), st.integers(1, 3),
                                              max_size=3)))
           for k in range(n)]
    events = rs.EventSequence.from_events(evs, T=float(times[-1]) + 1.0, S=S, V=V)

    def cells(values, size):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=size,
                                      max_size=size)))

    theta = cells([0.0, 0.3, 1.0, 2.0, 3.0, 0.5], S * V).reshape(S, V)
    # zeros a later event may reach through a parent; event 1 has no parent
    reachable = sorted({(e.s, v) for e in evs[1:] for v in e.tokens.tolist()}
                       - {(evs[0].s, v) for v in evs[0].tokens.tolist()})
    if reachable:
        for s, v in draw(st.lists(st.sampled_from(reachable), max_size=2)):
            theta[s, v] = 0.0
    theta[evs[0].s, evs[0].tokens] += 1.0
    theta[~theta.any(axis=1)] = 1.0
    params = rs.ModelParams(
        rho=np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=S, max_size=S))),
        A=cells([0.0, 0.2, 1.5], S * S).reshape(S, S),
        theta=theta / theta.sum(axis=1, keepdims=True),
        gamma=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)),
        nu=draw(st.floats(0.3, 5.0)))
    return events, params


def _sub_model_log_weights(events, params):
    """(time-only, mark-only) log weights, laid out as `_choice_log_weights`."""
    ev = list(events)
    n = len(ev)
    w_time, w_mark = np.full((2, n, n + 1), -np.inf)
    with np.errstate(divide="ignore"):
        for k, e in enumerate(ev):
            w_time[k, 0] = np.log(params.rho[e.s])
            w_mark[k, 0] = log_mark_density_immigrant(params, e)
            for j in range(k):
                w_time[k, j + 1] = np.log(excited_intensity(params, e.s, ev[j], e.t))
                w_mark[k, j + 1] = log_mark_density_offspring(params, e, ev[j])
    return w_time, w_mark


def _forward_substitution(W, sources, S):
    """Root probabilities from row-normalized log weights W, row by row."""
    r = np.zeros((W.shape[0], S))
    for k in range(W.shape[0]):
        eta = np.exp(W[k, :k + 1] - W[k, :k + 1].max())
        eta /= eta.sum()
        r[k] = eta[1:] @ r[:k]
        r[k, sources[k]] += eta[0]
    return r


def _other_params(params):
    """Parameters with the same bandwidth and the same kinds of zeros elsewhere."""
    return rs.ModelParams(rho=params.rho[::-1].copy(), A=params.A.T.copy(),
                          theta=np.roll(params.theta, 1, axis=0),
                          gamma=1.0 - params.gamma, nu=params.nu)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_oracle_cases())
def test_posteriors_match_enumeration_property(case):
    events, params = case
    # the sub-model passes against forward substitution of their own weights
    for W, compute in zip(_sub_model_log_weights(events, params),
                          (root_probabilities_temporal, root_probabilities_mark)):
        if not np.isfinite([row[:k + 1].max() for k, row in enumerate(W)]).all():
            with pytest.raises(NumericalError):
                compute(events, params)
            continue
        np.testing.assert_allclose(compute(events, params).r,
                                   _forward_substitution(W, events.sources, events.S),
                                   atol=1e-10)
    try:
        r_want, eta_want, log_marginal = enumerate_posteriors(events, params)
    except NumericalError:
        with pytest.raises(NumericalError):
            rs.update_eta(events, params)
        with pytest.raises(NumericalError):
            root_probabilities(events, params)
        return
    state = rs.update_eta(events, params)
    np.testing.assert_allclose(dense_eta(state), eta_want, atol=1e-10)
    np.testing.assert_allclose(root_probabilities(events, params).r, r_want, atol=1e-10)
    # parents are independent given the events: the E-step posterior is exact
    # and the objective is tight there
    log_lik = math.fsum(state.log_z) - rs.compensator(params, events)
    assert log_lik == pytest.approx(log_marginal, abs=1e-10)
    assert rs.elbo(events, params, state) == pytest.approx(log_marginal, abs=1e-10)
    other = _other_params(params)
    assert rs.elbo(events, other, state) == pytest.approx(
        _dense_elbo(events, other, state), abs=1e-10)


def _dense_elbo(events, params, state):
    """The objective of the state's posteriors at params: sum eta W - sum eta
    log eta - compensator, with W from the model densities."""
    W = _choice_log_weights(events, params)
    eta = dense_eta(state)
    with np.errstate(invalid="ignore"):
        data = np.where(eta > 0, eta * W, 0.0).sum()
    return data - xlogy(eta, eta).sum() - rs.compensator(params, events)


@pytest.mark.parametrize("marks, sources, zero, finite", [
    (({0: 1}, {1: 1}), (0, 0), False, False),          # no shared token
    (({0: 1}, {0: 1}), (0, 0), False, True),           # the parent shares it
    (({0: 1}, {}, {0: 1}), (0, 0, 0), False, True),    # and one has an empty mark
    (({0: 1}, {1: 1}), (1, 0), True, True),            # the parent has no mass
])
def test_elbo_where_a_child_gains_a_dead_token(marks, sources, zero, finite):
    # gamma 0 -> 1 kills every token: the last child's parents with a
    # non-empty mark and no shared token lose their weight, and the
    # objective is -inf where they hold mass
    evs = [rs.Event.make(k + 1, k + 1.0, s, x) for k, (s, x) in enumerate(zip(sources, marks))]
    events = rs.EventSequence.from_events(evs, T=len(evs) + 1.0, S=2, V=2)
    A = np.array([[0.5, 0.0 if zero else 0.5], [0.5, 0.5]])
    params = rs.ModelParams(rho=np.array([0.5, 0.5]), A=A, theta=np.full((2, 2), 0.5),
                            gamma=0.0, nu=1.0)
    dead = rs.ModelParams(rho=params.rho, A=params.A, theta=params.theta, gamma=1.0, nu=1.0)
    state = rs.update_eta(events, params)
    got, want = rs.elbo(events, dead, state), _dense_elbo(events, dead, state)
    assert math.isfinite(want) == finite
    assert got == pytest.approx(want, abs=1e-10)


_PASSES = ((root_probabilities, True, True), (root_probabilities_temporal, True, False),
           (root_probabilities_mark, False, True))


def _check_block_pass(events, params, window):
    """Each pass against forward substitution, row by row, over the reference
    per-pair posteriors, within 1e-12; both raise on a dead child.  Returns
    how many passes ran."""
    st = PairStructure(events, params.nu, window=window)
    ran = 0
    for compute, use_time, use_marks in _PASSES:
        try:
            want = reference_root_pass(st, params, use_time, use_marks)
        except NumericalError:
            with pytest.raises(NumericalError):
                compute(events, params, window=window)
            continue
        got = compute(events, params, window=window).r
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                   err_msg=f"{compute.__name__}, window {window}")
        ran += 1
    return ran


def _variants(events, params):
    """The parameters as drawn, at gamma = 1 (every token dead) and with a
    reachable zero in theta."""
    yield params
    yield rs.ModelParams(rho=params.rho, A=params.A, theta=params.theta, gamma=1.0,
                         nu=params.nu)
    yield _zero_theta(events, params)


@pytest.mark.parametrize("window", [None, 1.5, 30.0])
@pytest.mark.parametrize("size", ["below", "equal", "above"])
def test_block_pass_matches_row_by_row(size, window):
    # fewer children than one block, exactly one, and a partial last block;
    # empty marks, a window shorter than one block (1.5: about 8 events) and
    # longer, and one source as well as three
    n = {"below": ROOT_BLOCK - 24, "equal": ROOT_BLOCK, "above": 2 * ROOT_BLOCK + 22}[size]
    rng = np.random.default_rng([71, n])
    ran = 0
    for S in (1, 3):
        events = random_events(rng, n, S, 6, T=n / 5.0)
        assert (events.lengths == 0).any()
        lo = PairStructure(events, 1.0, window=window).lo
        if window == 1.5:  # some block's last child starts its window inside the block
            assert any(lo[min(a + ROOT_BLOCK, n) - 1] > a for a in range(0, n, ROOT_BLOCK))
        for params in _variants(events, random_params(rng, S, 6, nu=1.0)):
            ran += _check_block_pass(events, params, window)
    assert ran >= 12


@pytest.mark.parametrize("window", [None, 1000.0])
def test_block_pass_across_a_quiet_gap(window):
    # 800 nu of silence inside one block: the parents after the gap lie more
    # than 700 nu after the children before it, where exp overflows, and the
    # children after it see their earlier parents only below exp underflow
    rng = np.random.default_rng(73)
    times = np.concatenate([np.cumsum(rng.uniform(0.1, 0.5, 20)),
                            800.0 + np.cumsum(rng.uniform(0.1, 0.5, 20))])
    evs = [rs.Event.make(k + 1, float(t), int(rng.integers(0, 2)),
                         {int(v): 1 for v in rng.integers(0, 4, int(rng.integers(0, 3)))})
           for k, t in enumerate(times)]
    events = rs.EventSequence.from_events(evs, T=times[-1] + 1.0, S=2, V=4)
    assert len(events) < ROOT_BLOCK
    # base rates so low that the children after the gap give the parents
    # before it a posterior of about e^-110, which no exp of a lag reaches
    drawn = random_params(rng, 2, 4, gamma=0.4, nu=1.0)
    params = rs.ModelParams(rho=np.full(2, 1e-300), A=drawn.A, theta=drawn.theta,
                            gamma=drawn.gamma, nu=drawn.nu)
    state = rs.update_eta(events, params, window=window)
    assert 0.0 < state.eta_pair[state.structure.row_start[20]] < 1e-40
    with np.errstate(over="raise", invalid="raise"):
        assert _check_block_pass(events, params, window) == 3
        assert _check_block_pass(events, _zero_theta(events, params), window) >= 1
