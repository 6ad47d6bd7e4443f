"""log_gamma against an arbitrary-precision oracle and exact identities."""

import math

import mpmath
import numpy as np
import pytest

from metats.special import _HALF_LOG_2PI, _LANCZOS_C, _LANCZOS_G, _SERIES_MIN, log_gamma

mpmath.mp.dps = 40


def oracle(x: float) -> float:
    return float(mpmath.loggamma(mpmath.mpf(x)))


def test_exact_at_one_and_two():
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(2.0)) < 1e-14


def test_factorials():
    # Gamma(n+1) = n!, oracle computed by exact integer factorial
    fact = 1
    for n in range(1, 15):
        fact *= n
        assert log_gamma(n + 1.0) == pytest.approx(math.log(fact), abs=1e-10)


def test_log_gamma_four_is_log_six():
    assert log_gamma(4.0) == pytest.approx(math.log(6.0), abs=1e-12)


def test_half_integer():
    # Gamma(1/2) = sqrt(pi)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)
    # Gamma(3/2) = sqrt(pi)/2
    assert log_gamma(1.5) == pytest.approx(
        0.5 * math.log(math.pi) - math.log(2.0), abs=1e-12
    )


def test_against_mpmath_small_range():
    # Absolute tolerance of 1e-10 holds where lnGamma's own magnitude permits
    # it in float64 (ULP(lnGamma(3000)) ~ 2.7e-12); above that the check is
    # relative at ULP scale.
    xs = np.concatenate(
        [
            np.linspace(0.1, 2.0, 97),
            np.linspace(2.0, 50.0, 231),
            np.geomspace(50.0, 3000.0, 173),
        ]
    )
    for x in xs:
        assert log_gamma(float(x)) == pytest.approx(oracle(float(x)), abs=1e-10)


def test_against_mpmath_large_range_ulp():
    for x in np.geomspace(3000.0, 1e6, 211):
        got = log_gamma(float(x))
        want = oracle(float(x))
        assert abs(got - want) <= 3.0 * math.ulp(want)


def test_recurrence():
    # log Gamma(x+1) = log Gamma(x) + log x
    gen = np.random.Generator(np.random.Philox(12345))
    xs = gen.uniform(0.1, 1000.0, size=500)
    for x in xs:
        x = float(x)
        assert log_gamma(x + 1.0) == pytest.approx(
            log_gamma(x) + math.log(x), abs=1e-9
        )


def test_domain_error():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.5)


DOMAIN_EDGES = [0.0, -0.0, -3.5, -5e-324, math.nan, math.inf, -math.inf, 5e-324, 1.0, 1e308]


@pytest.mark.parametrize(
    "x",
    [*DOMAIN_EDGES, np.array(0.0), np.array(5e-324), np.array([]), np.empty((0, 3))]
    + [np.array([[2.0, 1.0], [3.0, x]]) for x in DOMAIN_EDGES],
    ids=repr,
)
def test_domain_is_the_elementwise_rule(x):
    # Refused, with one message, exactly where some element is <= 0 or not
    # finite: -0.0 and NaN are refused, 5e-324 and empty arrays are not.
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        with pytest.raises(ValueError, match=r"^log_gamma requires finite x > 0$"):
            log_gamma(x)
    else:
        with np.errstate(all="ignore"):  # at 1e308 terms underflow, lgG overflows
            out = log_gamma(x)
        assert np.shape(out) == arr.shape


def test_below_the_series_overflow_is_lgamma():
    # The series term c1 / x is finite from _SERIES_MIN on and overflows
    # below it; there lgG(x) is lgG(x + 1) - log x, alone and inside arrays,
    # without a warning, and the ordinary entries keep their bits.
    with np.errstate(over="ignore"):
        assert np.isfinite(_LANCZOS_C[1] / _SERIES_MIN)
        assert np.isinf(_LANCZOS_C[1] / np.nextafter(_SERIES_MIN, 0.0))
    tiny = [5e-324, 1e-310, 2.3e-308, float(np.nextafter(_SERIES_MIN, 0.0))]
    for x in tiny:
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-15)
    ordinary = [0.5, 3.0, 1e-300, _SERIES_MIN, 42.0, 1e300]
    order = np.random.Generator(np.random.Philox(3)).permutation(10)
    mixed = np.array(tiny + ordinary)[order].reshape(2, 5)
    out = log_gamma(mixed)
    for x, y in zip(mixed.ravel(), out.ravel()):
        if x in tiny:
            assert y == pytest.approx(math.lgamma(x), rel=1e-15)
        else:
            assert np.float64(y).tobytes() == np.float64(log_gamma(float(x))).tobytes()


def test_vectorized_matches_scalar():
    xs = np.array([0.5, 1.0, 2.5, 10.0, 123.4])
    out = log_gamma(xs)
    assert out.shape == xs.shape
    for x, y in zip(xs, out):
        assert y == log_gamma(float(x))
    # Every element of a stacked 3-D input equals the scalar call, bit for
    # bit, over the shapes a prior table accepts (1e-300 to 1e300): the
    # categorical meta-update's stacked evaluation rests on this.
    gen = np.random.Generator(np.random.Philox(7))
    values = np.concatenate(
        [np.geomspace(1e-300, 1e300, 61), gen.uniform(0.1, 50.0, size=59)]
    )
    stacked = gen.permutation(values).reshape(4, 5, 6)
    out = log_gamma(stacked)
    assert out.shape == stacked.shape
    for x, y in zip(stacked.ravel(), out.ravel()):
        assert np.float64(y).tobytes() == np.float64(log_gamma(float(x))).tobytes()


def looped_log_gamma(x):
    """The series as a term-by-term loop, one add per term in term order."""
    arr = np.asarray(x, dtype=float)
    series = np.full(arr.shape, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        series = series + _LANCZOS_C[k] / (arr + (k - 1))
    t = arr + (_LANCZOS_G - 0.5)
    return (arr - 0.5) * np.log(t) - t + _HALF_LOG_2PI + np.log(series)


def test_series_folds_terms_in_order():
    # The stacked series must add its terms one after another, as the loop
    # does, at every shape: a pairwise sum changes the last bit of some
    # values, and most often at a trailing size of 1.
    gen = np.random.Generator(np.random.Philox(7))
    values = np.concatenate(
        [np.geomspace(1e-300, 1e300, 61), gen.uniform(0.1, 50.0, size=59)]
    )
    for x in values:
        want = np.float64(looped_log_gamma(x)).tobytes()
        assert np.float64(log_gamma(float(x))).tobytes() == want
        assert log_gamma(np.array([x])).tobytes() == want
    stacked = values.reshape(4, 5, 6)
    assert log_gamma(stacked).tobytes() == looped_log_gamma(stacked).tobytes()
