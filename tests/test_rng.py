"""Stream determinism and distinctness, and the draws the priors and
meta-states make from a stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metats.envs import (
    BetaProductPrior,
    CategoricalWeights,
    GaussianDiagPrior,
    GaussianDiagState,
    LinearGaussianPrior,
    sample_instance_prior,
    sample_task_instance,
)
from metats.rng import derive_stream, name_substream, rekey, stream_keys


def draws(stream, k=100):
    return [stream.normal(0.0, 1.0) for _ in range(k)]


def test_same_key_same_sequence():
    a = derive_stream(7, 0, 0)
    b = derive_stream(7, 0, 0)
    assert draws(a) == draws(b)


def test_different_run_differs():
    a = derive_stream(7, 0, 0)
    b = derive_stream(7, 1, 0)
    assert a.normal(0.0, 1.0) != b.normal(0.0, 1.0)


def test_different_task_and_substream_differ():
    base = draws(derive_stream(7, 0, 0, 0), 8)
    assert draws(derive_stream(7, 0, 1, 0), 8) != base
    assert draws(derive_stream(7, 0, 0, 1), 8) != base


def test_order_independence():
    # Deriving task 3 after simulating tasks 0-2 or fresh gives the same draws
    fresh = draws(derive_stream(7, 0, 3))
    for task in range(3):
        draws(derive_stream(7, 0, task))
    again = draws(derive_stream(7, 0, 3))
    assert fresh == again


def test_negative_key_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        derive_stream(-1, 0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        derive_stream(0, 0, -2)


def gaussian_state(var, size=1):
    """A Gaussian meta-state of mean 0 and variance var on each of size arms."""
    return GaussianDiagState(mu=np.zeros(size), var=np.full(size, var), sigma_0=0.1, sigma=1.0)


def beta_instance(stream, a, b, size):
    """size Beta(a, b) draws, as the arm means of one instance."""
    prior = BetaProductPrior(alpha=np.full(size, a), beta=np.full(size, b))
    return sample_task_instance(prior, stream)


def categorical(weights):
    """A categorical state whose j-th candidate prior has alpha_0 = j + 1."""
    priors = [BetaProductPrior(alpha=[j + 1.0], beta=[1.0]) for j in range(len(weights))]
    return CategoricalWeights(weights=weights, priors=priors)


def drawn_index(meta, stream) -> int:
    return int(sample_instance_prior(meta, stream).alpha[0]) - 1


def test_gaussian_negative_variance_rejected():
    with pytest.raises(ValueError):
        gaussian_state(-1.0)
    with pytest.raises(ValueError):
        GaussianDiagPrior(mu=[0.0], sigma_0=-1.0, sigma=1.0)


def test_gaussian_moments():
    s = derive_stream(5, 0, 0)
    x = sample_instance_prior(gaussian_state(1.0, 100_000), s).mu
    assert abs(x.mean()) < 0.02
    y = sample_instance_prior(gaussian_state(4.0, 100_000), s).mu
    assert abs(y.var(ddof=1) - 4.0) < 0.15


def test_beta_means():
    s = derive_stream(6, 0, 0)
    for a, b, mean in ((6.0, 2.0, 0.75), (1.0, 1.0, 0.5), (2.0, 6.0, 0.25)):
        x = beta_instance(s, a, b, 100_000)
        assert abs(x.mean() - mean) < 0.01
        assert np.all((x > 0.0) & (x < 1.0))


def test_beta_bad_shapes_rejected():
    with pytest.raises(ValueError):
        BetaProductPrior(alpha=[0.0], beta=[1.0])
    with pytest.raises(ValueError):
        BetaProductPrior(alpha=[1.0], beta=[-2.0])


def ks_two_sample(x, y):
    """Two-sample Kolmogorov-Smirnov statistic, direct definition."""
    both = np.concatenate([np.sort(x), np.sort(y)])
    cdf_x = np.searchsorted(np.sort(x), both, side="right") / len(x)
    cdf_y = np.searchsorted(np.sort(y), both, side="right") / len(y)
    return float(np.max(np.abs(cdf_x - cdf_y)))


def test_beta_reflection_symmetry():
    # Beta(a,b) and 1 - Beta(b,a) are the same distribution; at n = 1e5 the
    # 1% critical value is 1.628 sqrt(2/n) ~ 0.00728.
    s = derive_stream(8, 0, 0)
    n = 100_000
    x = beta_instance(s, 6.0, 2.0, n)
    y = 1.0 - beta_instance(s, 2.0, 6.0, n)
    assert ks_two_sample(x, y) < 1.628 * np.sqrt(2.0 / n)


def test_categorical_degenerate():
    s = derive_stream(9, 0, 0)
    assert all(drawn_index(categorical([1.0, 0.0]), s) == 0 for _ in range(50))
    assert all(drawn_index(categorical([0.0, 1.0]), s) == 1 for _ in range(50))


def test_categorical_frequencies():
    s = derive_stream(10, 0, 0)
    for weights in ([0.5, 0.5], [0.2, 0.3, 0.5]):
        meta = categorical(weights)
        counts = np.zeros(len(weights))
        trials = 100_000
        for _ in range(trials):
            counts[drawn_index(meta, s)] += 1
        assert np.all(np.abs(counts / trials - np.asarray(weights)) < 0.01)


def test_categorical_bad_weights_rejected():
    with pytest.raises(ValueError):
        categorical([0.7, -0.1, 0.4])
    with pytest.raises(ValueError):
        categorical([0.5, 0.6])
    with pytest.raises(ValueError):
        categorical([])


# The samplers the priors' draws replaced, kept as oracles: each validated
# its arguments and then made one generator call.
def oracle_gaussian(stream, mean, variance, size=None):
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0.0) or not np.all(np.isfinite(variance)):
        raise ValueError("variance must be finite and >= 0")
    draw = stream.normal(loc=mean, scale=np.sqrt(variance), size=size)
    return float(draw) if np.ndim(draw) == 0 else draw


def oracle_beta(stream, alpha, beta):
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(alpha <= 0.0) or np.any(beta <= 0.0):
        raise ValueError("Beta shapes must be > 0")
    return stream.beta(alpha, beta)


def oracle_categorical(stream, weights) -> int:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or np.any(w < 0.0):
        raise ValueError("weights must be a nonempty nonnegative vector")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 within 1e-9, got {total!r}")
    u = stream.random()
    idx = int(np.searchsorted(np.cumsum(w), u * total, side="right"))
    return min(idx, w.size - 1)


def exponents(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32),
    num_arms=st.integers(1, 8),
    mu=st.floats(-1e3, 1e3),
    sigma_0=exponents(-150.0, 150.0),
    var=exponents(-300.0, 300.0),
    shape=exponents(-2.0, 3.0),
    raw_weights=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0), min_size=1),
    dim=st.integers(1, 4),
)
def test_draws_through_priors_equal_the_old_samplers(
    seed, num_arms, mu, sigma_0, var, shape, raw_weights, dim
):
    # Each prior or state draws the same bits as the sampler it replaced,
    # and leaves its stream where that sampler left it.
    w = np.asarray(raw_weights)
    w = w / w.sum() if w.sum() > 0.0 else np.full(w.size, 1.0 / w.size)
    mus = np.linspace(-mu, mu, num_arms)
    shapes = np.linspace(shape, 2.0 * shape, num_arms)
    gauss = GaussianDiagPrior(mu=mus, sigma_0=sigma_0, sigma=1.0)
    linear = LinearGaussianPrior(
        theta_0=np.zeros(dim), Sigma=np.diag(np.linspace(0.5, 1.5, dim)),
        features=np.ones((num_arms, dim)), sigma=1.0,
    )
    cases = [
        (
            lambda s: sample_task_instance(gauss, s),
            lambda s: oracle_gaussian(s, mus, sigma_0**2),
        ),
        (
            lambda s: sample_instance_prior(
                GaussianDiagState(mu=mus, var=np.full(num_arms, var), sigma_0=0.1, sigma=1.0), s
            ).mu,
            lambda s: oracle_gaussian(s, mus, np.full(num_arms, var)),
        ),
        (
            lambda s: sample_task_instance(BetaProductPrior(alpha=shapes, beta=shapes[::-1]), s),
            lambda s: oracle_beta(s, shapes, shapes[::-1]),
        ),
        (
            lambda s: drawn_index(categorical(w), s),
            lambda s: oracle_categorical(s, w),
        ),
        (
            lambda s: sample_task_instance(linear, s),
            lambda s: linear.features
            @ (linear.theta_0
               + np.linalg.cholesky(linear.Sigma) @ oracle_gaussian(s, 0.0, 1.0, size=dim)),
        ),
    ]
    for draw, oracle in cases:
        a, b = derive_stream(seed, 0, 0), derive_stream(seed, 0, 0)
        assert np.asarray(draw(a)).tobytes() == np.asarray(oracle(b)).tobytes()
        assert a.random(4).tobytes() == b.random(4).tobytes()


def test_cross_stream_correlation():
    n = 10_000
    a = derive_stream(3, 0, 0).normal(0.0, 1.0, size=n)
    b = derive_stream(3, 1, 0).normal(0.0, 1.0, size=n)
    c = derive_stream(3, 0, 5).normal(0.0, 1.0, size=n)
    assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / np.sqrt(n)
    assert abs(np.corrcoef(a, c)[0, 1]) < 5.0 / np.sqrt(n)


def test_name_substream_stable_and_distinct():
    assert name_substream("MetaTS") == name_substream("MetaTS")
    assert name_substream("MetaTS") >= 16
    names = ["MetaTS", "MetaTSx3", "MetaTS/3", "OracleTS", "TS"]
    assert len({name_substream(n) for n in names}) == len(names)


# Ids of one, two and three 32-bit words: zero, small, 2^32 and above, and
# the largest three-word agent substream 16 + 2^64 - 1.
IDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1]) | st.integers(
    0, 2**40
)
SEEDS = st.sampled_from([0, 23, 2**32, 2**64, 2**64 + 7, 2**100 - 1]) | st.integers(0, 2**70)
SUBSTREAMS = (
    st.integers(0, 15)
    | st.sampled_from([16 + 2**64 - 1, name_substream("MetaTS"), name_substream("TS")])
    | st.integers(16, 16 + 2**64 - 1)
)


def seed_sequence_key(*entropy):
    return np.random.SeedSequence(entropy=entropy).generate_state(2, np.uint64)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    SEEDS,
    st.lists(IDS, min_size=1, max_size=3),
    st.lists(IDS, min_size=1, max_size=3),
    st.lists(SUBSTREAMS, min_size=1, max_size=4),
)
def test_stream_keys_equal_seed_sequence(seed, runs, tasks, subs):
    # Mixed word counts in one call: every key is numpy's, in its own cell.
    keys = stream_keys(seed, runs, tasks, subs)
    assert keys.shape == (len(runs), len(tasks), len(subs), 2)
    assert keys.dtype == np.uint64
    for i, run in enumerate(runs):
        for j, task in enumerate(tasks):
            for k, sub in enumerate(subs):
                np.testing.assert_array_equal(
                    keys[i, j, k], seed_sequence_key(seed, run, task, sub)
                )


@settings(max_examples=50, deadline=None, derandomize=True)
@given(SEEDS, IDS, IDS, SUBSTREAMS, st.integers(0, 7), st.integers(0, 3))
def test_rekeyed_stream_draws_like_a_fresh_one(seed, run, task, sub, normals, words):
    # A stream that has drawn, including a uint32 draw that leaves half a
    # 64-bit word buffered, re-keyed, draws bit for bit like derive_stream.
    stream = derive_stream(3, 1, 4, 2)
    stream.normal(size=normals)
    stream.integers(0, 2**32, size=2 * words + 1, dtype=np.uint32)
    assert stream.bit_generator.state["has_uint32"] == 1
    rekey(stream, stream_keys(seed, [run], [task], [sub])[0, 0, 0])
    fresh = derive_stream(seed, run, task, sub)
    for gen in (stream, fresh):
        assert gen.bit_generator.state["has_uint32"] == 0
    for draw in (
        lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
        lambda g: g.normal(size=5),
        lambda g: g.beta(2.0, 3.0, size=4),
        lambda g: g.random(),
    ):
        np.testing.assert_array_equal(draw(stream), draw(fresh))


def test_stream_keys_reject_negative_ids():
    with pytest.raises(ValueError, match="nonnegative"):
        stream_keys(1, [0, -1], [0], [0])
    with pytest.raises(ValueError, match="nonnegative"):
        stream_keys(-1, [0], [0], [0])
