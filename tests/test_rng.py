"""Stream determinism, distinctness, and sampler statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metats.rng import (
    derive_stream,
    name_substream,
    rekey,
    sample_beta,
    sample_categorical,
    sample_gaussian,
    stream_keys,
)


def draws(stream, k=100):
    return [sample_gaussian(stream, 0.0, 1.0) for _ in range(k)]


def test_same_key_same_sequence():
    a = derive_stream(7, 0, 0)
    b = derive_stream(7, 0, 0)
    assert draws(a) == draws(b)


def test_different_run_differs():
    a = derive_stream(7, 0, 0)
    b = derive_stream(7, 1, 0)
    assert sample_gaussian(a, 0.0, 1.0) != sample_gaussian(b, 0.0, 1.0)


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


def test_gaussian_zero_variance_exact():
    s = derive_stream(1, 0, 0)
    assert sample_gaussian(s, 2.5, 0.0) == 2.5


def test_gaussian_negative_variance_rejected():
    s = derive_stream(1, 0, 0)
    with pytest.raises(ValueError):
        sample_gaussian(s, 0.0, -1.0)


def test_gaussian_moments():
    s = derive_stream(5, 0, 0)
    x = sample_gaussian(s, 0.0, 1.0, size=100_000)
    assert abs(x.mean()) < 0.02
    y = sample_gaussian(s, 0.0, 4.0, size=100_000)
    assert abs(y.var(ddof=1) - 4.0) < 0.15


def test_beta_means():
    s = derive_stream(6, 0, 0)
    for a, b, mean in ((6.0, 2.0, 0.75), (1.0, 1.0, 0.5), (2.0, 6.0, 0.25)):
        x = sample_beta(s, a, b, size=100_000)
        assert abs(x.mean() - mean) < 0.01
        assert np.all((x > 0.0) & (x < 1.0))


def test_beta_bad_shapes_rejected():
    s = derive_stream(1, 0, 0)
    with pytest.raises(ValueError):
        sample_beta(s, 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_beta(s, 1.0, -2.0)


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
    x = sample_beta(s, 6.0, 2.0, size=n)
    y = 1.0 - sample_beta(s, 2.0, 6.0, size=n)
    assert ks_two_sample(x, y) < 1.628 * np.sqrt(2.0 / n)


def test_categorical_degenerate():
    s = derive_stream(9, 0, 0)
    assert all(sample_categorical(s, [1.0, 0.0]) == 0 for _ in range(50))
    assert all(sample_categorical(s, [0.0, 1.0]) == 1 for _ in range(50))


def test_categorical_frequencies():
    s = derive_stream(10, 0, 0)
    for weights in ([0.5, 0.5], [0.2, 0.3, 0.5]):
        counts = np.zeros(len(weights))
        trials = 100_000
        for _ in range(trials):
            counts[sample_categorical(s, weights)] += 1
        assert np.all(np.abs(counts / trials - np.asarray(weights)) < 0.01)


def test_categorical_bad_weights_rejected():
    s = derive_stream(1, 0, 0)
    with pytest.raises(ValueError):
        sample_categorical(s, [0.7, -0.1, 0.4])
    with pytest.raises(ValueError):
        sample_categorical(s, [0.5, 0.6])
    with pytest.raises(ValueError):
        sample_categorical(s, [])


def test_cross_stream_correlation():
    n = 10_000
    a = sample_gaussian(derive_stream(3, 0, 0), 0.0, 1.0, size=n)
    b = sample_gaussian(derive_stream(3, 1, 0), 0.0, 1.0, size=n)
    c = sample_gaussian(derive_stream(3, 0, 5), 0.0, 1.0, size=n)
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
