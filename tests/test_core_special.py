"""``log_gamma`` returns the same bits as ``scipy.special.gammaln``.

The Poisson weight update subtracts log Gamma(count + 1) from every
particle's log-likelihood, so any rounding difference against the
function the golden digests were computed with would move every seeded
result.  These checks therefore compare bit patterns, not values within a
tolerance: every integer argument a count up to 2e5 produces, and seeded
reals in each branch of the cephes routine.
"""

import math

import numpy as np
import pytest

from repro.core.special import MAXLGM, log_gamma

try:
    from scipy.special import gammaln
except ImportError:  # the domain checks below still run
    gammaln = None

needs_scipy = pytest.mark.skipif(gammaln is None, reason="scipy is not installed")

#: One interval per branch of cephes ``lgam`` for x > 0: downward
#: recurrence, the rational approximation on [2, 3), upward recurrence,
#: Stirling with the A table, the short Stirling series, bare Stirling,
#: and overflow to inf.
BRANCHES = [
    (1e-300, 2.0),
    (2.0, 3.0),
    (3.0, 13.0),
    (13.0, 1000.0),
    (1000.0, 1e8),
    (1e8, MAXLGM),
    (MAXLGM, 1.7976931348623157e308),
]


def assert_bitwise(xs: np.ndarray) -> None:
    expected = gammaln(xs)
    got = np.array([log_gamma(x) for x in xs.tolist()])
    mismatch = np.flatnonzero(expected.view(np.int64) != got.view(np.int64))
    assert mismatch.size == 0, (
        f"{mismatch.size} of {xs.size} differ, first at x={xs[mismatch[0]]!r}: "
        f"{got[mismatch[0]]!r} != {expected[mismatch[0]]!r}"
    )


@needs_scipy
def test_integer_arguments_bitwise():
    assert_bitwise(np.arange(200_001, dtype=np.float64) + 1.0)


@needs_scipy
@pytest.mark.parametrize("low, high", BRANCHES)
def test_seeded_reals_bitwise_in_each_branch(low, high):
    rng = np.random.default_rng(20110620)
    if high / low > 1e3:
        xs = np.exp(rng.uniform(math.log(low), math.log(high), 10_000))
    else:
        xs = rng.uniform(low, high, 10_000)
    xs = xs[(xs >= low) & (xs < high)]
    assert xs.size > 9_000
    assert_bitwise(xs)


@needs_scipy
def test_branch_boundaries_bitwise():
    edges = [2.0, 3.0, 13.0, 1000.0, 1e8, MAXLGM]
    xs = np.array(
        [np.nextafter(e, 0.0) for e in edges]
        + edges
        + [np.nextafter(e, np.inf) for e in edges]
        + [5e-324, 0.5, 1.0]
    )
    assert_bitwise(xs)


@needs_scipy
def test_inf_and_nan_pass_through():
    assert log_gamma(math.inf) == math.inf == gammaln(math.inf)
    assert math.isnan(log_gamma(math.nan))
    assert math.isnan(gammaln(math.nan))


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -2.5, -math.inf])
def test_non_positive_arguments_rejected(x):
    with pytest.raises(ValueError, match="x > 0"):
        log_gamma(x)


def test_accepts_numpy_scalars():
    assert log_gamma(np.float64(7.0)) == log_gamma(7.0) == math.log(720.0)
    assert log_gamma(np.int64(4)) == log_gamma(4.0)
