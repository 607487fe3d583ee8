import numpy as np
import pytest
from scipy import special

from rootsource._numeric import ragged_ranges, xlogy

INF, NAN = np.inf, np.nan


def assert_matches_scipy(x, y):
    """xlogy(x, y) equals scipy.special.xlogy(x, y) value for value.

    numpy's log may round differently in the last bit from the C library's
    log, which scipy calls (numpy dispatches to its own SIMD log on x86-64
    hosts with AVX-512), so the results must be bit-identical wherever the
    two logs agree and within 2 units in the last place where they do not.
    """
    got, want = xlogy(x, y), special.xlogy(x, y)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = np.log(y), special.xlogy(1.0, y)
    same = np.broadcast_to((a == b) | (np.isnan(a) & np.isnan(b)), got.shape)
    np.testing.assert_array_equal(got[same], want[same])
    finite = same & np.isfinite(want)
    np.testing.assert_array_equal(np.signbit(got[finite]), np.signbit(want[finite]))
    np.testing.assert_array_max_ulp(got[~same], want[~same], maxulp=2)


@pytest.mark.parametrize("x, y", [
    (np.zeros(4), np.array([0.0, 1.0, INF, NAN])),          # x = 0
    (np.full(5, -0.0), np.array([0.0, 1.0, INF, NAN, 2.0])),
    (np.full(5, NAN), np.array([0.0, 1.0, INF, NAN, 0.5])),  # x = NaN
    (np.array([0.0, 1.0, -2.0, INF, NAN]), np.full(5, -1.5)),  # y < 0
    (np.array([1.0, -1.0, INF, -INF, 3.0]), np.array([0.0, 0.0, 1.0, 1.0, INF])),
], ids=["x-zero", "x-negative-zero", "x-nan", "y-negative", "edges"])
def test_xlogy_special_values_match_scipy(x, y):
    assert_matches_scipy(x, y)
    # every log here is exact or special, so the match is bit for bit
    np.testing.assert_array_equal(xlogy(x, y), special.xlogy(x, y))


def test_xlogy_random_positive_arrays_match_scipy():
    rng = np.random.default_rng(0)
    for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
        x = rng.standard_normal(20_000) * rng.choice([0.0, 1.0, 1e5], 20_000)
        assert_matches_scipy(x, rng.random(20_000) * scale)
    eta = rng.dirichlet(np.ones(7), size=1000).ravel()
    eta[::5] = 0.0  # the entropy term of elbo: xlogy(eta, eta)
    assert_matches_scipy(eta, eta)


def test_xlogy_broadcasts_like_the_prior_terms():
    # (a - 1)[:, None] against an S x S matrix, as the Gamma prior on A uses
    rng = np.random.default_rng(1)
    S = 6
    shape = np.array([1.0, 1.0, 2.5, 0.5, 1.0, 4.0])
    A = rng.uniform(0.0, 0.4, (S, S))
    A[0, 1] = A[2, 3] = 0.0
    assert_matches_scipy((shape - 1.0)[:, None], A)
    assert xlogy((shape - 1.0)[:, None], A).shape == (S, S)
    assert_matches_scipy(shape - 1.0, A[0])


def test_xlogy_scalars_and_no_warnings():
    with np.errstate(all="raise"):
        assert xlogy(0.0, 0.0) == 0.0
        assert xlogy(2.0, 0.0) == -INF
        assert np.isnan(xlogy(1.0, -1.0))
        assert xlogy(3, 1) == 0.0


@pytest.mark.parametrize("starts, stops", [([3, 0, 5, 2], [5, 0, 4, 4]), ([], []), ([1, 1], [1, 0])])
def test_ragged_ranges_match_a_loop(starts, stops):
    owner, values = ragged_ranges(np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64))
    want = [(k, v) for k, (a, b) in enumerate(zip(starts, stops)) for v in range(a, b)]
    assert owner.tolist() == [k for k, _ in want] and values.tolist() == [v for _, v in want]
    assert owner.dtype == values.dtype == np.int64
