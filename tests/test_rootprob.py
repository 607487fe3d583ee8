import math

import numpy as np
import pytest

import rootsource as rs
from rootsource.errors import NumericalError, ValidationError
from rootsource.rootprob import (
    ORACLE_CAP,
    RootProbMatrix,
    enumerate_oracle,
    enumerate_posteriors,
    root_probabilities,
    root_probabilities_mark,
    root_probabilities_temporal,
)
from util import random_events, random_instance, random_params


def test_matrix_validation():
    RootProbMatrix(np.array([[0.3, 0.7]]))
    with pytest.raises(ValidationError):
        RootProbMatrix(np.array([[0.3, 0.6]]))
    with pytest.raises(ValidationError):
        RootProbMatrix(np.array([[1.2, -0.2]]))
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
    params = rs.ModelParams(rho=np.full(3, 0.2), A=rng.uniform(0, 0.3, (3, 3)),
                            theta=rng.dirichlet(np.ones(4), size=3), gamma=0.6,
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
    # gamma = 1 and exact zeros in theta take the per-pair mark densities
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
