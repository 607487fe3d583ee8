import math

import numpy as np
import pytest

import rootsource as rs
from rootsource.errors import NumericalError, ValidationError
from rootsource.fitting import (
    PairStructure,
    PriorConfig,
    elbo,
    fit,
    jitter_init,
    update_eta,
    update_rho_alpha,
    update_theta_gamma,
)
from rootsource.rootprob import enumerate_posteriors
from util import dense_eta, random_instance


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
    for k in range(n):
        sl = slice(st.row_start[k], st.row_start[k + 1])
        np.testing.assert_array_equal(st.pair_i[sl], k)
        np.testing.assert_array_equal(st.pair_j[sl], np.arange(k))


def test_pair_structure_window_prunes_stale_pairs():
    times = np.array([1.0, 2.0, 8.0, 9.0])
    evs = [rs.Event.make(k + 1, t, 0, {}) for k, t in enumerate(times)]
    events = rs.EventSequence.from_events(evs, T=10.0, S=1, V=0)
    st = PairStructure(events, nu=1.0, window=3.0)
    # lag <= 3: (2,1), (4,3) survive; 8-2 = 6 and beyond are pruned
    pairs = set(zip(st.pair_i.tolist(), st.pair_j.tolist()))
    assert pairs == {(1, 0), (3, 2)}
    with pytest.raises(ValidationError):
        PairStructure(events, nu=1.0, window=0.0)


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
