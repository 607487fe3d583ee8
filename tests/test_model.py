import math

import numpy as np
import pytest

import rootsource as rs
from rootsource.errors import ValidationError
from util import random_events, random_params, reference_token_postings


def two_event_history():
    evs = [
        rs.Event.make(1, 1.0, 0, {0: 2}),
        rs.Event.make(2, 2.0, 1, {}),
    ]
    events = rs.EventSequence.from_events(evs, T=5.0, S=2, V=4)
    params = rs.ModelParams(
        rho=np.array([0.2, 0.4]),
        A=np.array([[0.3, 0.1], [0.0, 0.5]]),
        theta=np.array([[0.5, 0.25, 0.125, 0.125], [0.25, 0.25, 0.25, 0.25]]),
        gamma=0.3,
        nu=2.0,
    )
    return events, params


def test_event_make_canonicalizes():
    e = rs.Event.make(3, 1.5, 1, {7: 2, 2: 1, 5: 0})
    assert e.index == 3 and e.s == 1
    assert e.tokens.tolist() == [2, 7]  # sorted, zero-count entry dropped
    assert e.counts.tolist() == [1, 2]
    assert e.L == 3
    np.testing.assert_array_equal(e.counts_at(np.array([2, 5, 7])), [1, 0, 2])
    np.testing.assert_allclose(e.normalized_counts(), [1 / 3, 2 / 3])
    assert e.mark_dict() == {2: 1.0, 7: 2.0}


def test_event_make_merges_duplicate_tokens():
    e = rs.Event.make(1, 1.0, 0, (np.array([4, 1, 4]), np.array([1.0, 2.0, 3.0])))
    assert e.tokens.tolist() == [1, 4]
    assert e.counts.tolist() == [2, 4]


def test_sequence_validation():
    good = [rs.Event.make(1, 1.0, 0, {0: 1}), rs.Event.make(2, 2.0, 0, {})]
    rs.EventSequence.from_events(good, T=3.0, S=1, V=1)
    with pytest.raises(ValidationError):  # times must be strictly increasing
        bad = [rs.Event.make(1, 2.0, 0, {}), rs.Event.make(2, 2.0, 0, {})]
        rs.EventSequence.from_events(bad, T=3.0, S=1, V=1)
    with pytest.raises(ValidationError):  # source out of range
        rs.EventSequence.from_events([rs.Event.make(1, 1.0, 1, {})], T=3.0, S=1, V=1)
    with pytest.raises(ValidationError):  # token id beyond vocabulary
        rs.EventSequence.from_events([rs.Event.make(1, 1.0, 0, {5: 1})], T=3.0, S=1, V=2)
    with pytest.raises(ValidationError):  # horizon must cover the last event
        rs.EventSequence.from_events(good, T=1.5, S=1, V=1)
    for count in (1.5, math.inf):  # fractional or infinite counts
        with pytest.raises(ValidationError, match="finite integers"):
            rs.EventSequence.from_events(
                [rs.Event.make(1, 1.0, 0, {0: count})], T=3.0, S=1, V=1)
    # NaN, which every comparison passes, and an infinite horizon
    for times, T in (([1.0, math.nan, 3.0], 4.0), ([1.0, 2.0, 3.0], math.nan),
                     ([1.0, 2.0, 3.0], math.inf)):
        with pytest.raises(ValidationError, match="T"):
            rs.EventSequence(times, [0, 0, 0], [0, 0, 0, 0], [], [], T=T, S=1, V=0)


def test_sequence_validation_names_the_first_event_at_fault():
    def refused(times=(1.0, 2.0, 3.0), sources=(0, 0, 0), indptr=(0, 1, 3, 4),
                index=(0, 0, 1, 1), count=(1.0, 1.0, 1.0, 1.0), T=4.0):
        with pytest.raises(ValidationError) as err:
            rs.EventSequence(times, sources, indptr, index, count, T=T, S=2, V=2)
        return err.value.event

    assert refused(times=(1.0, 5.0, 6.0)) == 1            # outside (0, T]
    assert refused(times=(1.0, 3.0, 2.0)) == 2            # out of order
    assert refused(sources=(0, 2, 2)) == 1                # source out of range
    assert refused(index=(0, 0, 2, 1)) == 1               # token out of range
    assert refused(count=(1.0, 1.0, 0.0, 1.0)) == 1       # count not positive
    assert refused(count=(1.0, 1.0, 1.0, 2.5)) == 2       # count not an integer
    assert refused(index=(0, 1, 0, 1)) == 1               # tokens out of order
    assert refused(index=(0, 1, 1, 1)) == 1               # a token twice
    assert refused(indptr=(0, 2, 2, 4), index=(0, 1, 1, 0)) == 2  # after an empty event
    assert refused(sources=(0, 0)) is None                # no single event at fault
    assert refused(T=0.0) is None


@pytest.mark.parametrize("indptr, count, message", [
    ([0, 5], [1.0], "tok_indptr must end at the number of mark entries"),  # beyond them
    ([0, 1], [1.0, 1.0], "tok_indptr must end at the number of mark entries"),  # a count more
    ([1, 1], [1.0], "tok_indptr must start at 0"),  # the entry in no event
    ([0, 1, 0, 1], [1.0], "tok_indptr must start at 0 and never decrease"),
])
def test_sequence_validation_checks_the_mark_layout(indptr, count, message):
    n = len(indptr) - 1
    with pytest.raises(ValidationError, match=f"^{message}"):
        rs.EventSequence(np.arange(1.0, n + 1.0), [0] * n, indptr, [0], count,
                         T=n + 1.0, S=1, V=1)


def test_sequence_indexing_round_trip():
    events, _ = two_event_history()
    assert len(events) == 2
    e = events[0]
    assert (e.index, e.t, e.s) == (1, 1.0, 0)
    assert e.mark_dict() == {0: 2.0}
    assert events[1].L == 0
    with pytest.raises(IndexError):
        events[2]
    np.testing.assert_array_equal(events.lengths, [2.0, 0.0])


def test_derived_arrays_are_built_on_first_read():
    events = rs.simulate(rs.make_synthetic_config(T=40.0, seed=2))[0]
    # a valid sequence's check builds none of them
    assert not {"entry_event", "lengths", "_postings"} & set(vars(events))
    for name in ("entry_event", "lengths"):
        assert getattr(events, name) is getattr(events, name)
    assert all(a is b for a, b in zip(events.token_postings(), events.token_postings()))
    assert events.posting_positions() is events.posting_positions()


def test_lengths_are_float64_without_tokens():
    # np.bincount with weights but no entries returns int64; lengths must not
    evs = [rs.Event.make(1, 1.0, 0, {}), rs.Event.make(2, 2.0, 0, {})]
    for events in (rs.EventSequence.from_events(evs, T=3.0, S=1, V=2),
                   rs.EventSequence.from_events(evs[:0], T=3.0, S=1, V=2)):
        assert events.lengths.dtype == np.float64
        np.testing.assert_array_equal(events.lengths, np.zeros(len(events)))
        assert events.token_postings()[2].dtype == np.float64


def test_intensities_hand_values():
    events, params = two_event_history()
    k1 = math.exp(-2.0 / 2.0) / 2.0
    k2 = math.exp(-1.0 / 2.0) / 2.0
    assert rs.base_intensity(params, 0, 3.0) == pytest.approx(0.2)
    hist = [events[0], events[1]]
    lam0 = rs.total_intensity(params, 0, 3.0, hist)
    lam1 = rs.total_intensity(params, 1, 3.0, hist)
    assert lam0 == pytest.approx(0.2 + 0.3 * k1 + 0.1 * k2, rel=1e-12)
    assert lam1 == pytest.approx(0.4 + 0.0 * k1 + 0.5 * k2, rel=1e-12)
    exc = rs.excited_intensity(params, 0, events[0], 3.0)
    assert exc == pytest.approx(0.3 * k1, rel=1e-12)
    with pytest.raises(ValidationError):  # kernel only looks forward in time
        rs.excited_intensity(params, 0, events[0], 0.5)
    # rho T per source plus colsum(A)[s_i] times the kernel mass left after t_i
    kint = lambda t: 1.0 - math.exp(-(5.0 - t) / 2.0)
    assert rs.compensator(params, events) == pytest.approx(
        (0.2 + 0.4) * 5.0 + 0.3 * kint(1.0) + 0.6 * kint(2.0), rel=1e-12)


def test_intensity_with_empty_history_is_base():
    _, params = two_event_history()
    assert rs.total_intensity(params, 1, 0.5, []) == pytest.approx(0.4)


def test_compensator_matches_numeric_integral():
    rng = np.random.default_rng(3)
    events = random_events(rng, 6, 2, 5, T=8.0)
    params = random_params(rng, 2, 5)
    comp = rs.compensator(params, events)
    # integrate total intensity segment by segment so kinks at event times
    # fall on grid boundaries
    knots = np.concatenate([[0.0], events.times, [events.T]])
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= a:
            continue
        hist = [e for e in events if e.t <= a]
        grid = np.linspace(a, b, 2001)[1:]
        vals = [
            sum(rs.total_intensity(params, s, t, hist) for s in range(params.S))
            for t in grid
        ]
        total += np.trapezoid(vals, grid) + vals[0] * (grid[0] - a)
    assert comp == pytest.approx(total, rel=1e-4)


def test_mark_density_immigrant_hand_value():
    events, params = two_event_history()
    # x = {0:2}: log f = 2 log 0.5
    got = rs.log_mark_density_immigrant(params, events[0])
    assert got == pytest.approx(2 * math.log(0.5), rel=1e-12)
    # empty bag has density 1
    assert rs.log_mark_density_immigrant(params, events[1]) == 0.0


def test_mark_density_offspring_hand_value():
    events, params = two_event_history()
    child = rs.Event.make(3, 3.0, 1, {0: 1, 1: 2})
    parent = events[0]  # normalized bag puts all mass on token 0
    g = params.gamma
    want = math.log((1 - g) * 0.25 + g) + 2 * math.log((1 - g) * 0.25)
    got = rs.log_mark_density_offspring(params, child, parent)
    assert got == pytest.approx(want, rel=1e-12)


def test_mark_density_offspring_empty_parent_falls_back():
    events, params = two_event_history()
    child = rs.Event.make(3, 3.0, 0, {1: 1})
    got = rs.log_mark_density_offspring(params, child, events[1])
    want = rs.log_mark_density_immigrant(params, child)
    assert got == want == pytest.approx(math.log(0.25), rel=1e-12)


def test_mark_density_zero_probability_token():
    params = rs.ModelParams(
        rho=np.array([0.1]),
        A=np.zeros((1, 1)),
        theta=np.array([[1.0, 0.0]]),
        gamma=0.0,
        nu=1.0,
    )
    e = rs.Event.make(1, 1.0, 0, {1: 1})
    assert rs.log_mark_density_immigrant(params, e) == -np.inf
    parent = rs.Event.make(2, 0.5, 0, {0: 1})
    assert rs.log_mark_density_offspring(params, e, parent) == -np.inf


def test_params_validation():
    ok = dict(
        rho=np.array([0.1]), A=np.zeros((1, 1)),
        theta=np.array([[1.0]]), gamma=0.5, nu=1.0,
    )
    rs.ModelParams(**ok)
    with pytest.raises(ValidationError):
        rs.ModelParams(**{**ok, "rho": np.array([-0.1])})
    with pytest.raises(ValidationError):
        rs.ModelParams(**{**ok, "A": np.array([[-1.0]])})
    with pytest.raises(ValidationError):
        rs.ModelParams(**{**ok, "theta": np.array([[0.9]])})
    with pytest.raises(ValidationError):
        rs.ModelParams(**{**ok, "gamma": 1.5})
    with pytest.raises(ValidationError):
        rs.ModelParams(**{**ok, "nu": 0.0})
    for name, value in (("rho", [math.nan]), ("rho", [math.inf]), ("A", [[math.nan]]),
                        ("A", [[math.inf]]), ("theta", [[math.nan]]), ("theta", [[math.inf]]),
                        ("gamma", math.nan), ("nu", math.nan), ("nu", math.inf)):
        with pytest.raises(ValidationError):
            rs.ModelParams(**{**ok, name: value})


def test_token_structures_match_dense():
    rng = np.random.default_rng(11)
    events = random_events(rng, 12, 3, 7, T=9.0)
    counts = events.token_counts_by_source()
    dense = np.zeros((3, 7))
    for e in events:
        dense[e.s, e.tokens] += e.counts
    np.testing.assert_array_equal(counts, dense)
    indptr, ev, norm = events.token_postings()
    assert indptr.shape == (events.V + 1,)
    cnt = np.empty_like(norm)
    cnt[events.posting_positions()] = events.tok_count
    for v in range(7):
        sl = slice(indptr[v], indptr[v + 1])
        have = dict(zip(ev[sl].tolist(), cnt[sl].tolist()))
        want = {
            k: float(events[k].counts_at(np.array([v]))[0])
            for k in range(len(events))
            if events[k].counts_at(np.array([v]))[0] > 0
        }
        assert have == want
        assert np.all(np.diff(ev[sl]) > 0)
        np.testing.assert_allclose(norm[sl], cnt[sl] / events.lengths[ev[sl]])


def _with(events, counts=None, V=None):
    """The same events with scaled counts or a wider vocabulary."""
    return rs.EventSequence(events.times, events.sources, events.tok_indptr,
                            events.tok_index,
                            events.tok_count if counts is None else counts,
                            events.T, events.S, events.V if V is None else V)


def _postings_cases():
    rng = np.random.default_rng(5)
    yield "random", random_events(rng, 60, 3, 12, max_len=6)
    yield "random-long-marks", random_events(rng, 40, 2, 9, max_len=9)
    yield "empty-marks", random_events(rng, 30, 2, 4, max_len=2)
    yield "all-marks-empty", random_events(rng, 5, 2, 6, max_len=1)
    yield "unused-tokens", random_events(rng, 20, 2, 400, max_len=4)
    yield "single-event", random_events(rng, 1, 1, 5, max_len=5)
    yield "no-vocabulary", random_events(rng, 7, 2, 0, max_len=1)
    base = random_events(rng, 300, 3, 50, max_len=8)
    yield "64-bit-key", _with(base, counts=base.tok_count * 1000.0, V=1 << 22)
    yield "counts-too-large-to-pack", _with(base, counts=base.tok_count * 2.0 ** 50,
                                            V=1 << 20)


POSTINGS_CASES = [pytest.param(e, id=name) for name, e in _postings_cases()]


@pytest.mark.parametrize("events", POSTINGS_CASES)
def test_token_postings_match_a_csc_transpose(events):
    got = events.token_postings()
    want = reference_token_postings(events)
    assert len(got) == len(want)
    assert got[0].shape == (events.V + 1,)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("events", [p for p in POSTINGS_CASES if p.values[0].V <= 1000])
def test_token_counts_by_source_match_a_scatter_add(events):
    want = np.zeros((events.S, events.V))
    np.add.at(want, (np.repeat(events.sources, np.diff(events.tok_indptr)), events.tok_index),
              events.tok_count)
    empty = rs.EventSequence([], [], [0], [], [], events.T, events.S, events.V)
    for sequence, counts in ((events, want), (empty, np.zeros_like(want))):
        got = sequence.token_counts_by_source()
        assert got.dtype == np.float64 and got.shape == (events.S, events.V)
        assert got.tobytes() == counts.tobytes()


@pytest.mark.parametrize("events", POSTINGS_CASES)
def test_posting_positions_invert_the_postings(events):
    # mark entry k is the posting at its position: same event, token and
    # count (normalized by the event's length)
    indptr, ev, norm = events.token_postings()
    at = events.posting_positions()
    assert at.shape == events.tok_index.shape
    rows = np.repeat(np.arange(len(events)), np.diff(events.tok_indptr))
    np.testing.assert_array_equal(ev[at], rows)
    np.testing.assert_array_equal(
        np.repeat(np.arange(events.V), np.diff(indptr))[at], events.tok_index)
    np.testing.assert_array_equal(norm[at], events.tok_count / events.lengths[rows])


def test_postings_cases_reach_both_key_widths():
    # the sort key packs (token, mark entry) into V.bit_length() plus the
    # entry bits: one case needs 64 bits, the others fit in 32
    bits = {p.id: p.values[0].V.bit_length() + max(p.values[0].tok_index.size - 1, 0).bit_length()
            for p in POSTINGS_CASES}
    assert 32 < bits.pop("64-bit-key") <= 64
    assert max(bits.values()) <= 32


def test_token_postings_refuse_keys_over_64_bits():
    # 63 token bits and 2 entry bits; V + 1 offsets that large could not be
    # allocated anyway, so the postings raise before anything V-sized
    events = rs.EventSequence([1.0, 2.0], [0, 0], [0, 2, 3], [0, 1, 0], [1.0, 1.0, 1.0],
                              3.0, 1, 1 << 62)
    with pytest.raises(ValidationError, match="64 bits"):
        events.token_postings()


def test_every_public_name_resolves():
    # a deleted function or class must not leave its name behind in __all__
    missing = [name for name in rs.__all__ if not hasattr(rs, name)]
    assert missing == []
    assert len(set(rs.__all__)) == len(rs.__all__)
