import numpy as np
import pytest

import rootsource as rs
from rootsource.errors import NumericalError, ValidationError
from rootsource.simulate import (
    BranchingStructure,
    SimConfig,
    expected_event_count,
    make_synthetic_config,
    make_synthetic_params,
    simulate,
    trace_roots,
)
from util import reference_simulate


def small_config(seed=0, **overrides):
    params = rs.ModelParams(
        rho=np.array([0.3, 0.3]),
        A=np.array([[0.4, 0.2], [0.1, 0.3]]),
        theta=np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]]),
        gamma=overrides.pop("gamma", 0.4),
        nu=1.0,
    )
    if "A" in overrides:
        params = rs.ModelParams(rho=params.rho, A=overrides.pop("A"),
                                theta=params.theta, gamma=params.gamma, nu=params.nu)
    return SimConfig(params=params, T=overrides.pop("T", 40.0),
                     mean_text_length=overrides.pop("mean_text_length", 3.0),
                     seed=seed, **overrides)


def test_branching_validation():
    BranchingStructure(np.array([0, 1, 1, 3]))
    with pytest.raises(ValidationError):  # parent must precede child
        BranchingStructure(np.array([0, 3, 1]))
    with pytest.raises(ValidationError):
        BranchingStructure(np.array([-1]))
    with pytest.raises(ValidationError):  # no self-parenting
        BranchingStructure(np.array([1]))


def test_trace_roots_hand_case():
    evs = [rs.Event.make(k + 1, float(k + 1), s, {}) for k, s in enumerate([0, 1, 2, 1, 0])]
    events = rs.EventSequence.from_events(evs, T=6.0, S=3, V=0)
    b = BranchingStructure(np.array([0, 1, 0, 3, 2]))
    # chains: 1<-2<-5, 3<-4
    np.testing.assert_array_equal(trace_roots(b, events), [0, 0, 2, 2, 0])
    with pytest.raises(ValidationError):
        trace_roots(BranchingStructure(np.array([0])), events)


def test_simulate_is_deterministic_per_seed():
    ev1, tr1 = simulate(small_config(seed=7))
    ev2, tr2 = simulate(small_config(seed=7))
    ev3, _ = simulate(small_config(seed=8))
    np.testing.assert_array_equal(ev1.times, ev2.times)
    np.testing.assert_array_equal(ev1.sources, ev2.sources)
    np.testing.assert_array_equal(ev1.tok_index, ev2.tok_index)
    np.testing.assert_array_equal(tr1.branching.parent, tr2.branching.parent)
    assert not np.array_equal(ev1.times, ev3.times)


def test_simulate_output_is_consistent():
    events, truth = simulate(small_config(seed=3))
    n = len(events)
    assert n > 10
    assert np.all(np.diff(events.times) > 0)
    assert np.all((events.times > 0) & (events.times <= events.T))
    assert np.all(events.lengths >= 1)  # text lengths are truncated to >= 1
    parent = truth.branching.parent
    assert np.all(parent < np.arange(1, n + 1))
    # root bookkeeping agrees with an independent walk up the parent links
    for k in range(n):
        p = k
        while parent[p] > 0:
            p = parent[p] - 1
        assert truth.root_event[k] == p + 1
        assert truth.roots[k] == events.sources[p]
    # immigrants are their own roots
    imm = parent == 0
    np.testing.assert_array_equal(truth.root_event[imm], np.arange(1, n + 1)[imm])


def test_no_excitation_means_no_offspring():
    events, truth = simulate(small_config(seed=1, A=np.zeros((2, 2))))
    assert np.all(truth.branching.parent == 0)
    np.testing.assert_array_equal(truth.roots, events.sources)
    assert np.all(truth.inherited_tokens == 0)


def test_gamma_zero_inherits_nothing():
    _, truth = simulate(small_config(seed=2, gamma=0.0))
    assert np.any(truth.branching.parent > 0)
    assert np.all(truth.inherited_tokens == 0)


def test_gamma_one_copies_parent_bag():
    events, truth = simulate(small_config(seed=5, gamma=1.0))
    parent = truth.branching.parent
    off = np.flatnonzero(parent > 0)
    assert off.size > 0
    np.testing.assert_array_equal(truth.inherited_tokens[off],
                                  events.lengths[off])
    for k in off:
        child, par = events[k], events[parent[k] - 1]
        assert set(child.tokens.tolist()) <= set(par.tokens.tolist())


def test_inherited_counts_bounded_by_length():
    events, truth = simulate(small_config(seed=9))
    assert np.all(truth.inherited_tokens >= 0)
    assert np.all(truth.inherited_tokens <= events.lengths)
    assert np.all(truth.inherited_tokens[truth.branching.parent == 0] == 0)


def test_expected_event_count_closed_form():
    p = rs.ModelParams(rho=np.array([0.2]), A=np.array([[0.5]]),
                       theta=np.array([[1.0]]), gamma=0.0, nu=1.0)
    assert expected_event_count(p, 10.0) == pytest.approx(4.0)
    p0 = rs.ModelParams(rho=np.array([0.2, 0.3]), A=np.zeros((2, 2)),
                        theta=np.ones((2, 1)), gamma=0.0, nu=1.0)
    assert expected_event_count(p0, 10.0) == pytest.approx(5.0)
    # at a spectral radius of 0.99 or more the inverse is replaced by the
    # geometric sum at radius 0.99: 100 times the immigrant count
    for a in (0.99, 1.5):
        p = rs.ModelParams(rho=np.array([0.2]), A=np.array([[a]]),
                           theta=np.array([[1.0]]), gamma=0.0, nu=1.0)
        assert expected_event_count(p, 10.0) == pytest.approx(200.0)


def test_event_count_calibration_smoke():
    # window-edge truncation only removes events, so observed counts sit a
    # little below the analytic expectation; generous band, sharp test in
    # the acceptance suite
    want = expected_event_count(make_synthetic_params(), 500.0)
    for seed in range(3):
        n = len(simulate(make_synthetic_config(T=500.0, seed=seed))[0])
        assert 0.55 * want < n < 1.05 * want


def test_cascade_cap_raises():
    cfg = small_config(seed=0, T=1000.0, max_events=40)
    cfg.params.rho[:] = 5.0
    # a supercritical cascade passes the cap among the offspring
    cascade = small_config(seed=0, T=100.0, max_events=300, A=np.full((2, 2), 0.7))
    for config in (cfg, cascade):
        for sampler in (simulate, reference_simulate):
            with pytest.raises(NumericalError, match="event cap"):
                sampler(config)


def test_mean_text_lengths_track_targets():
    cfg = make_synthetic_config(T=400.0, seed=4, V=500)
    events, _ = simulate(cfg)
    for s in range(cfg.params.S):
        mean = events.lengths[events.sources == s].mean()
        target = cfg.mean_text_length[s]
        assert abs(mean - target) < 0.2 * target


def test_make_synthetic_params_shape():
    p = make_synthetic_params(S=3, V=40, seed=2)
    assert p.S == 3 and p.V == 40
    np.testing.assert_allclose(p.theta.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.diag(p.A) == 0.4)
    off = p.A[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.1)
    p2 = make_synthetic_params(S=3, V=40, seed=2)
    np.testing.assert_array_equal(p.theta, p2.theta)


def test_sim_config_validation():
    params = make_synthetic_params(S=2, V=5)
    with pytest.raises(ValidationError):
        SimConfig(params=params, T=0.0, mean_text_length=3.0)
    with pytest.raises(ValidationError):
        SimConfig(params=params, T=1.0, mean_text_length=0.0)
    # no sources, and a mean-length list neither one long nor one per source
    with pytest.raises(ValidationError, match="S must be at least 1, got 0"):
        SimConfig(params=make_synthetic_params(S=0, V=5), T=1.0, mean_text_length=3.0)
    for means in ([], [1.0, 2.0, 3.0], [[3.0]]):
        with pytest.raises(ValidationError, match=r"^\d+ mean text lengths given for 2 sources"):
            SimConfig(params=params, T=1.0, mean_text_length=means)
    for means in ([4.0], [4.0, 5.0]):
        assert SimConfig(params=params, T=1.0, mean_text_length=means).mean_text_length.size == 2
    # an event cap below 1 is refused by name; it used to surface as a cascade
    # that "exceeded the event cap"
    for cap in (0, -3):
        with pytest.raises(ValidationError, match=f"^max_events must be at least 1, got {cap}$"):
            SimConfig(params=params, T=1.0, mean_text_length=3.0, max_events=cap)
    assert SimConfig(params=params, T=1.0, mean_text_length=3.0, max_events=1).max_events == 1
    # a NaN or infinite T or mean length, and V = 0, are refused by name: the
    # first two crashed in numpy or in the event cap, and V = 0 drew empty marks
    for T in (np.nan, np.inf):
        with pytest.raises(ValidationError, match=f"^T must be positive and finite, got {T}$"):
            SimConfig(params=params, T=T, mean_text_length=3.0)
    for means in (np.nan, [3.0, np.inf]):
        with pytest.raises(ValidationError, match="^mean text lengths must be positive and finite"):
            SimConfig(params=params, T=1.0, mean_text_length=means)
    with pytest.raises(ValidationError, match="^V must be at least 1, got 0$"):
        SimConfig(params=make_synthetic_params(S=2, V=0), T=1.0, mean_text_length=3.0)


def assert_same_draw(config):
    """simulate and the per-event reference agree array for array, dtypes too."""
    events, truth = simulate(config)
    want_events, want_truth = reference_simulate(config)
    for got, want, names in (
            (events, want_events, ("times", "sources", "tok_indptr", "tok_index", "tok_count")),
            (truth, want_truth, ("roots", "root_event", "inherited_tokens"))):
        for name in names:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
    assert truth.branching.parent.dtype == want_truth.branching.parent.dtype
    np.testing.assert_array_equal(truth.branching.parent, want_truth.branching.parent)
    return events


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("overrides", [
    {}, {"gamma": 0.0}, {"gamma": 1.0}, {"S": 1}, {"V": 3},
    {"S": 3, "V": 7, "gamma": 0.9},
    # only the diagonal of A excites; more targets than the scalar draws take
    {"offdiag": 0.0}, {"S": 20, "V": 50, "offdiag": 0.02},
])
def test_simulate_matches_per_event_reference(seed, overrides):
    events = assert_same_draw(make_synthetic_config(T=200.0, seed=seed, **overrides))
    assert len(events) > 10


def test_simulate_matches_reference_with_per_source_lengths():
    # means below 10 take numpy's other Poisson sampler, and 0.4 rejects
    # many zero lengths; long chains give many generations
    params = make_synthetic_params(S=3, V=40, seed=5, diag=0.6, offdiag=0.15, gamma=0.6)
    for seed in range(3):
        config = SimConfig(params=params, T=150.0, seed=seed,
                           mean_text_length=np.array([0.4, 3.0, 25.0]))
        events = assert_same_draw(config)
        assert np.any(events.lengths[events.sources == 0] == 1)


def test_simulate_matches_reference_without_events():
    config = small_config(seed=0, T=0.5)
    config.params.rho[:] = 1e-9
    assert len(assert_same_draw(config)) == 0
