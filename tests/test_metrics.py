import math

import numpy as np
import pytest

import rootsource as rs
from rootsource.errors import ValidationError
from rootsource.fitting import update_eta
from rootsource.metrics import (
    evaluate_root_probabilities,
    identification_accuracy,
    mini_conversations,
    relative_square_error,
    social_power,
    top_k_accuracy,
    true_root_log_probability,
)
from rootsource.rootprob import RootProbMatrix
from util import (covered_cells, eta_row, random_events, random_params,
                  reference_mini_conversations)


def mat(rows, mode="full"):
    return RootProbMatrix(np.asarray(rows, dtype=float), mode)


def test_identification_accuracy():
    r = mat([[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]])
    assert identification_accuracy(r, [0, 1, 0]) == pytest.approx(1.0)
    assert identification_accuracy(r, [1, 1, 1]) == pytest.approx(1 / 3)
    # tie at the last row resolves to the lowest source index
    assert identification_accuracy(r, [0, 0, 1]) == pytest.approx(1 / 3)
    with pytest.raises(ValidationError):
        identification_accuracy(r, [0, 1])
    with pytest.raises(ValidationError):
        identification_accuracy(r, [0, 1, 2])


def test_true_root_log_probability_floors_zeros():
    r = mat([[1.0, 0.0], [0.25, 0.75]])
    got = true_root_log_probability(r, [1, 1])
    assert got == pytest.approx(math.log(1e-12) + math.log(0.75))
    assert true_root_log_probability(r, [0, 1]) == pytest.approx(math.log(0.75))


def test_top_k_accuracy_monotone_and_saturates():
    rng = np.random.default_rng(11)
    raw = rng.dirichlet(np.ones(5), size=40)
    r = mat(raw)
    truth = rng.integers(0, 5, 40)
    accs = [top_k_accuracy(r, truth, k) for k in range(1, 6)]
    assert accs[0] == identification_accuracy(r, truth)
    assert all(a <= b + 1e-15 for a, b in zip(accs, accs[1:]))
    assert accs[-1] == 1.0
    assert top_k_accuracy(r, truth, 99) == 1.0  # k clipped to S
    with pytest.raises(ValidationError):
        top_k_accuracy(r, truth, 0)


def test_relative_square_error_hand_case():
    est = np.array([[1.0, 0.0], [0.0, 1.0]])
    truth = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert relative_square_error(est, truth) == pytest.approx(0.5)
    assert relative_square_error(truth, truth) == 0.0
    with pytest.raises(ValidationError):
        relative_square_error(est, np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        relative_square_error(est, np.ones((3, 2)))


def test_social_power_sums_rows():
    r = mat([[0.6, 0.4], [0.2, 0.8], [1.0, 0.0]])
    np.testing.assert_allclose(social_power(r), [1.8, 1.2])
    assert social_power(r).sum() == pytest.approx(r.n)


def test_mini_conversations_chain_and_singletons():
    # two immigrants at distance, one tight chain: posteriors are sharp enough
    # that the argmax forest recovers the construction
    evs = [
        rs.Event.make(1, 1.0, 0, {}),
        rs.Event.make(2, 1.05, 1, {}),
        rs.Event.make(3, 1.1, 1, {}),
        rs.Event.make(4, 50.0, 0, {}),
    ]
    events = rs.EventSequence.from_events(evs, T=60.0, S=2, V=0)
    params = rs.ModelParams(rho=np.full(2, 0.01), A=np.full((2, 2), 0.45),
                            theta=np.ones((2, 0)), gamma=0.0, nu=1.0)
    mc = mini_conversations(update_eta(events, params), events)
    assert mc.branching.parent.tolist() == [0, 1, 2, 0]
    assert mc.conversations == [[1, 2, 3], [4]]


def _two_source_state(A, window=None):
    # S = 2, V = 0, nu = 1, events at t = 1, 2, 3 of sources 0, 1, 0; rho = (1e-3, 1)
    evs = [rs.Event.make(k + 1, float(k + 1), s, {}) for k, s in enumerate((0, 1, 0))]
    events = rs.EventSequence.from_events(evs, T=4.0, S=2, V=0)
    params = rs.ModelParams(rho=np.array([1e-3, 1.0]), A=np.asarray(A, dtype=float),
                            theta=np.ones((2, 0)), gamma=0.0, nu=1.0)
    return events, update_eta(events, params, window=window)


def test_mini_conversations_ties_and_windowed_rows():
    # exact ties of E-step posteriors: event 2's immigrant (rho = 1) ties
    # parent 1 at lag 1 (A = e), and event 3's parents at lags 2 and 1 tie
    # (A entries e^2 and e); the immigrant wins the first, the earlier
    # parent the second
    e = math.e
    events, state = _two_source_state([[e * e, e], [e, 1e-3]])
    row2, row3 = eta_row(state, 1), eta_row(state, 2)
    assert row2[0] == row2[1] and row3[1] == row3[2] > row3[0]
    mc = mini_conversations(state, events)
    assert mc.branching.parent.tolist() == [0, 0, 1]
    assert mc.conversations == [[1, 3], [2]]
    # a window of 1.5 leaves event 3 only parent 2 (lo = 1)
    events, state = _two_source_state([[e * e, e], [e, 1e-3]], window=1.5)
    assert state.structure.lo.tolist() == [0, 0, 1]
    row2 = eta_row(state, 1)
    assert row2[0] == row2[1]
    mc = mini_conversations(state, events)
    assert mc.branching.parent.tolist() == [0, 0, 2]
    assert mc.conversations == [[1], [2, 3]]


def _lattice_events(rng, n):
    # integer times and log A, nu = 1, one token or none per event, theta = 1:
    # every log weight is an integer, plus the same mark term on every
    # overlap pair, so posteriors tie often, among overlap pairs too
    evs = [rs.Event.make(k + 1, float(k + 1), int(s), {0: 1} if x else {})
           for k, (s, x) in enumerate(rng.integers(0, 2, (n, 2)))]
    events = rs.EventSequence.from_events(evs, T=n + 1.0, S=2, V=1)
    params = rs.ModelParams(rho=np.exp(rng.integers(-2, 1, 2).astype(float)),
                            A=np.exp(rng.integers(0, 3, (2, 2)).astype(float)),
                            theta=np.ones((2, 1)), gamma=0.5, nu=1.0)
    return events, params


@pytest.mark.parametrize("window", [None, 3.0])
@pytest.mark.parametrize("kind", ["live", "gamma = 1", "zero theta", "ties"])
def test_mini_conversations_match_the_pair_scan(kind, window):
    # parents and threads equal np.argmax over every pair of eta_pair, with
    # empty marks, dead tokens (gamma 1, zeros in theta) and exact ties
    rng = np.random.default_rng([61, len(kind)])
    if kind == "ties":
        events, params = _lattice_events(rng, 60)
    else:
        events = random_events(rng, 300, 3, 5, T=60.0, max_len=4)
        params = random_params(rng, 3, 5, nu=1.0)
        assert (events.lengths == 0).any()
    theta, gamma = params.theta, params.gamma
    if kind == "gamma = 1":
        gamma = 1.0
    elif kind == "zero theta":
        # one zero per source row at a token its events use, each one inherited
        zero = (events.token_counts_by_source() > 0) & covered_cells(events, window, params.nu)
        zero &= np.cumsum(zero, axis=1) <= 1
        assert zero.any()
        theta = np.where(zero, 0.0, theta)
        theta /= theta.sum(axis=1, keepdims=True)
    params = rs.ModelParams(rho=params.rho, A=params.A, theta=theta, gamma=gamma, nu=params.nu)
    state = update_eta(events, params, window=window)
    if kind in ("gamma = 1", "zero theta"):  # some child has a dead token
        assert np.isneginf(state._factors[1][:, 0]).any()
    mc = mini_conversations(state, events)
    parent, conversations = reference_mini_conversations(state)
    rows = [eta_row(state, k) for k in range(len(events))]
    assert parent.tolist() == [int(np.argmax(v)) for v in rows]
    np.testing.assert_array_equal(mc.branching.parent, parent)
    assert mc.conversations == conversations
    assert (parent > 0).any() and (parent == 0).any()
    if kind == "ties":
        assert sum(np.sum(v == v.max()) > 1 for v in rows) >= 5


def test_mini_conversations_all_immigrants():
    evs = [rs.Event.make(k + 1, float(k + 1), 0, {}) for k in range(3)]
    events = rs.EventSequence.from_events(evs, T=5.0, S=1, V=0)
    params = rs.ModelParams(rho=np.array([1.0]), A=np.zeros((1, 1)),
                            theta=np.ones((1, 0)), gamma=0.0, nu=1.0)
    mc = mini_conversations(update_eta(events, params), events)
    assert mc.branching.parent.tolist() == [0, 0, 0]
    assert mc.conversations == [[1], [2], [3]]


def test_evaluate_bundles_everything():
    rng = np.random.default_rng(13)
    r = mat(rng.dirichlet(np.ones(3), size=10))
    truth = rng.integers(0, 3, 10)
    p_true = rs.ModelParams(rho=np.full(3, 0.1), A=np.full((3, 3), 0.2),
                            theta=rng.dirichlet(np.ones(4), size=3), gamma=0.3,
                            nu=1.0)
    p_est = rs.ModelParams(rho=p_true.rho, A=p_true.A * 1.1,
                           theta=rng.dirichlet(np.ones(4), size=3), gamma=0.3,
                           nu=1.0)
    rep = evaluate_root_probabilities(r, truth, ks=(1, 2), params_est=p_est,
                                      params_true=p_true)
    assert rep.n_events == 10
    assert set(rep.top_k) == {1, 2}
    assert rep.rse_A == pytest.approx(0.01)  # ||0.1 A||^2 / ||A||^2
    assert rep.rse_theta.shape == (3,)
    assert rep.accuracy == identification_accuracy(r, truth)
    text = rep.lines()
    assert any("accuracy" in line for line in text)
    assert any("RSE(A)" in line for line in text)

    plain = evaluate_root_probabilities(r, truth)
    assert plain.rse_A is None and plain.rse_theta is None
    assert not any("RSE" in line for line in plain.lines())
