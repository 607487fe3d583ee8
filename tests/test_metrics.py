import math

import numpy as np
import pytest

import rootsource as rs
from rootsource.errors import ValidationError
from rootsource.fitting import PairStructure, VariationalState, update_eta
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
from util import random_events


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


def test_mini_conversations_ties_and_windowed_rows():
    # argmax ties go to the immigrant, then to the earliest parent; rows 4 and
    # 5 are windowed, their candidates starting at lo = 1 and lo = 2
    evs = [rs.Event.make(k + 1, float(k + 1), 0, {}) for k in range(5)]
    events = rs.EventSequence.from_events(evs, T=6.0, S=1, V=0)
    structure = PairStructure(events, nu=1.0, window=2.5)
    assert structure.lo.tolist() == [0, 0, 0, 1, 2]
    eta0 = np.array([1.0, 0.5, 0.2, 0.2, 0.1])
    eta_pair = np.array([0.5,        # row 2: immigrant ties parent 1
                         0.4, 0.4,   # row 3: parents 1 and 2 tie
                         0.4, 0.4,   # row 4: parents 2 and 3 tie
                         0.3, 0.6])  # row 5: parent 4 wins
    state = VariationalState(structure, eta0, eta_pair, np.zeros(5))
    mc = mini_conversations(state, events)
    assert mc.branching.parent.tolist() == [0, 0, 1, 2, 4]
    assert mc.branching.parent.tolist() == [int(np.argmax(state.eta_vector(k)))
                                            for k in range(5)]
    assert mc.conversations == [[1, 3], [2, 4, 5]]


@pytest.mark.parametrize("block", [1, 2, 5])
def test_mini_conversations_in_row_blocks(block, monkeypatch):
    # rows compared a few pairs at a time, some split across blocks, get
    # np.argmax's parents; posteriors from three values make ties common
    events = random_events(np.random.default_rng(19), 30, 2, 3)
    structure = PairStructure(events, nu=1.0, window=3.0)
    rng = np.random.default_rng(block)
    eta0 = rng.choice([0.1, 0.2, 0.3], len(events))
    state = VariationalState(structure, eta0, rng.choice([0.1, 0.2, 0.3], structure.n_pairs),
                             np.zeros(len(events)))
    monkeypatch.setattr("rootsource.fitting.PAIR_BLOCK", block)
    mc = mini_conversations(state, events)
    assert mc.branching.parent.tolist() == [int(np.argmax(state.eta_vector(k)))
                                            for k in range(len(events))]


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
