"""Conjugate task posteriors and the three meta-posterior updates.

Frozen expected values come from closed-form conjugate algebra evaluated
independently (documented inline); matrix identities are cross-checked
against dense linear-algebra oracles built from scratch in each test.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metats import envs, posteriors
from metats.envs import (
    BetaProductPrior,
    GaussianDiagPrior,
    LinearGaussianPrior,
)
from metats.harness import MAX_BETA_SHAPE_SUM, MIN_BETA_SHAPE
from metats.posteriors import (
    WEIGHT_FLOOR,
    BetaCounts,
    CategoricalWeights,
    GaussianArms,
    GaussianDiagState,
    LinearGaussianPosterior,
    LinearState,
    NumericalError,
    TaskLog,
    categorical_log_evidence,
    init_task_posterior,
    play_linear,
    sample_meta_posterior,
    sample_task_posterior,
    update_meta_posterior_categorical,
    update_meta_posterior_gaussian,
    update_meta_posterior_linear,
    update_meta_posteriors,
    update_task_posterior,
)
from metats.posteriors import _cholesky, _factor, _solve
from metats.rng import derive_stream
from metats.selftest import direct_linear_meta_update
from metats.special import log_gamma


def make_log(num_arms, pairs):
    pairs = list(pairs)
    return TaskLog(num_arms, [arm for arm, _ in pairs], [reward for _, reward in pairs])


def arm_totals(log):
    """Per-arm pull counts and reward sums of a log, each arm's rewards added
    by value: the canonical order in which no shuffle of rounds moves a bit."""
    order = np.lexsort((log.rewards, log.arms))
    pulls = np.bincount(log.arms, minlength=log.num_arms).astype(float)
    sums = np.bincount(log.arms[order], weights=log.rewards[order], minlength=log.num_arms)
    return pulls, sums


def gaussian_moments(post):
    """Per-arm mean and variance of a GaussianArms posterior, from its pulls
    and sums in closed form: var = sigma^2 / (sigma^2 / sigma_0^2 + N)."""
    var = post.sigma**2 / (post.sigma**2 / post.sigma_0**2 + np.asarray(post.pulls))
    mean = var * (np.asarray(post.prior_mu) / post.sigma_0**2 + np.asarray(post.sums) / post.sigma**2)
    return mean, var


def linear_mean(post):
    return np.linalg.solve(post.precision, post.info)


def linear_posts(precisions):
    """Identity-featured linear posteriors at zero info, one per precision."""
    return [
        LinearGaussianPosterior(precision=p.copy(), info=np.zeros(2), sigma=1.0, features=np.eye(2))
        for p in precisions
    ]


def forced_posts(scales):
    """Linear posteriors at identity precision and zero info, one per scale c,
    each with K = 3 feature rows [c, 0] and sigma = 1."""
    return [
        LinearGaussianPosterior(np.eye(2), np.zeros(2), 1.0, np.array([[c, 0.0]] * 3))
        for c in scales
    ]


def play_one_round(posts):
    """One drawn round of the posts in lockstep, as a run's chunk plays it."""
    gens = [np.random.default_rng(i) for i in range(len(posts))]
    return play_linear(posts, gens, np.zeros((len(posts), 1, 2)), [1] * len(posts))


# ---------------------------------------------------------------------------
# TaskLog


class TestTaskLog:
    def test_counts_and_sums(self):
        log = make_log(3, [(0, 1.0), (2, 0.5), (0, -0.25), (2, 2.0)])
        assert len(log) == 4
        pulls, sums = arm_totals(log)
        np.testing.assert_array_equal(pulls, [2.0, 0.0, 2.0])
        np.testing.assert_allclose(sums, [0.75, 0.0, 2.5])

    def test_out_of_range_arm(self):
        with pytest.raises(ValueError, match="arm 2 out of range for K=2"):
            TaskLog(2, [0, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match="arm -1 out of range for K=2"):
            TaskLog(2, [1, -1], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_reward_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^task log rewards must be finite; got {bad!r}$"):
            TaskLog(2, [0, 1], [0.5, bad])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="one reward per arm"):
            TaskLog(2, [0, 1], [1.0])
        with pytest.raises(ValueError, match="one reward per arm"):
            TaskLog(2, [], [0.5])

    def test_holds_arrays(self):
        log = make_log(3, [(0, 1.0), (2, 0.5)])
        assert log.arms.dtype.kind == "i" and log.rewards.dtype == float
        assert np.array_equal(log.arms, [0, 2]) and np.array_equal(log.rewards, [1.0, 0.5])
        empty = TaskLog(num_arms=3)
        assert len(empty) == 0 and empty.arms.shape == empty.rewards.shape == (0,)

    def test_non_binary_reward_rejected_by_binary_views(self):
        # The Bernoulli evidence is where a log is read as success counts.
        log = make_log(2, [(0, 1.0), (1, 0.5), (0, 2.0)])
        with pytest.raises(ValueError, match=r"^non-binary reward 0.5 in a Bernoulli log$"):
            categorical_log_evidence(SEC5_P1, log)
        meta = CategoricalWeights(weights=np.array([0.5, 0.5]), priors=(SEC5_P1, SEC5_P2))
        with pytest.raises(ValueError, match="non-binary"):
            update_meta_posterior_categorical(meta, log)


# ---------------------------------------------------------------------------
# Within-task posterior: init


class TestInitTaskPosterior:
    def test_beta_init_copies_prior(self):
        prior = BetaProductPrior(alpha=[6.0, 2.0], beta=[2.0, 6.0])
        post = init_task_posterior(prior)
        assert isinstance(post, BetaCounts)
        np.testing.assert_array_equal(post.alpha, [6.0, 2.0])
        np.testing.assert_array_equal(post.beta, [2.0, 6.0])
        post.alpha[0] = 99.0
        assert prior.alpha[0] == 6.0

    def test_gaussian_init(self):
        prior = GaussianDiagPrior(mu=[0.1, -0.2], sigma_0=0.1, sigma=1.0)
        post = init_task_posterior(prior)
        assert isinstance(post, GaussianArms)
        mean, var = gaussian_moments(post)
        np.testing.assert_array_equal(mean, [0.1, -0.2])
        np.testing.assert_allclose(var, [0.01, 0.01], rtol=1e-15)

    def test_linear_init(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        sigma_mat = np.array([[0.04, 0.01], [0.01, 0.09]])
        prior = LinearGaussianPrior(
            theta_0=[0.3, -0.1], Sigma=sigma_mat, features=features, sigma=1.0
        )
        post = init_task_posterior(prior)
        assert isinstance(post, LinearGaussianPosterior)
        np.testing.assert_allclose(linear_mean(post), [0.3, -0.1], atol=1e-12)
        np.testing.assert_allclose(
            post.precision, np.linalg.inv(sigma_mat), rtol=1e-10
        )

    def test_linear_init_singular_covariance(self):
        # A singular Sigma is refused when the prior is built, before any
        # task posterior could invert it.
        for sigma_mat in ([[0.0]], np.diag([1.0, 0.0])):
            d = len(sigma_mat)
            with pytest.raises(ValueError, match="^Sigma must be positive-definite$"):
                LinearGaussianPrior(
                    theta_0=np.zeros(d), Sigma=sigma_mat, features=np.eye(d), sigma=1.0
                )

    def test_wrong_type(self):
        with pytest.raises(TypeError, match="not an instance prior"):
            init_task_posterior(object())


# ---------------------------------------------------------------------------
# Within-task posterior: update


class TestUpdateTaskPosterior:
    def test_beta_conjugacy(self):
        post = BetaCounts(alpha=np.array([1.0, 1.0]), beta=np.array([1.0, 1.0]))
        post1 = update_task_posterior(post, arm=0, reward=1.0)
        np.testing.assert_array_equal(post1.alpha, [2.0, 1.0])
        np.testing.assert_array_equal(post1.beta, [1.0, 1.0])
        post2 = update_task_posterior(post1, arm=0, reward=0.0)
        np.testing.assert_array_equal(post2.alpha, [2.0, 1.0])
        np.testing.assert_array_equal(post2.beta, [2.0, 1.0])
        # Purely functional: inputs untouched.
        np.testing.assert_array_equal(post.alpha, [1.0, 1.0])

    def test_beta_rejects_non_binary(self):
        post = BetaCounts(alpha=np.array([1.0]), beta=np.array([1.0]))
        with pytest.raises(ValueError, match="0 or 1"):
            update_task_posterior(post, arm=0, reward=0.5)

    def test_gaussian_single_observation(self):
        # sigma_0^2 = 0.01, sigma^2 = 1, one reward y = 1 on arm 1:
        # posterior variance = 1/(1/0.01 + 1) = 1/101, mean = (1/101)*(0 + 1).
        prior = GaussianDiagPrior(mu=[0.0, 0.0], sigma_0=0.1, sigma=1.0)
        post = init_task_posterior(prior)
        post = update_task_posterior(post, arm=0, reward=1.0)
        mean, var = gaussian_moments(post)
        np.testing.assert_allclose(var[0], 1.0 / 101.0, rtol=1e-14)
        np.testing.assert_allclose(mean[0], 1.0 / 101.0, rtol=1e-14)
        # Untouched arm keeps the prior width to the bit (0.1**2 in floats).
        assert var[1] == 0.1**2
        assert mean[1] == 0.0

    def test_gaussian_variance_closed_form(self):
        # After N pulls the variance is exactly sigma^2/(sigma^2/sigma_0^2 + N),
        # independent of the observed values.
        prior = GaussianDiagPrior(mu=[0.3], sigma_0=0.5, sigma=2.0)
        post = init_task_posterior(prior)
        gen = np.random.default_rng(3)
        for n in range(1, 40):
            post = update_task_posterior(post, arm=0, reward=gen.normal())
            expected = 4.0 / (4.0 / 0.25 + n)
            assert gaussian_moments(post)[1][0] == expected

    def test_gaussian_mean_matches_precision_weighting(self):
        prior = GaussianDiagPrior(mu=[0.2], sigma_0=0.3, sigma=1.5)
        post = init_task_posterior(prior)
        rewards = [0.7, -0.4, 1.1]
        for y in rewards:
            post = update_task_posterior(post, arm=0, reward=y)
        prec0 = 1.0 / 0.09
        prec = prec0 + 3.0 / 1.5**2
        expected = (0.2 * prec0 + sum(rewards) / 1.5**2) / prec
        np.testing.assert_allclose(gaussian_moments(post)[0][0], expected, rtol=1e-14)

    def test_linear_rank_one_update(self):
        features = np.array([[1.0, 0.5], [-0.5, 1.0]])
        prior = LinearGaussianPrior(
            theta_0=[0.0, 0.0], Sigma=0.25 * np.eye(2), features=features, sigma=2.0
        )
        post = init_task_posterior(prior)
        post1 = update_task_posterior(post, arm=1, reward=0.8)
        x = features[1]
        np.testing.assert_allclose(
            post1.precision, post.precision + np.outer(x, x) / 4.0, rtol=1e-14
        )
        np.testing.assert_allclose(post1.info, post.info + x * 0.2, rtol=1e-14)
        # Batch Bayes-rule oracle for the mean after two observations.
        post2 = update_task_posterior(post1, arm=0, reward=-0.3)
        x_mat = features[[1, 0]]
        y = np.array([0.8, -0.3])
        lam = np.linalg.inv(0.25 * np.eye(2)) + x_mat.T @ x_mat / 4.0
        mean = np.linalg.solve(lam, x_mat.T @ y / 4.0)
        np.testing.assert_allclose(linear_mean(post2), mean, atol=1e-12)

    def test_wrong_type(self):
        with pytest.raises(TypeError, match="not a task posterior"):
            update_task_posterior(object(), arm=0, reward=1.0)


# ---------------------------------------------------------------------------
# Within-task posterior: sampling


class TestSampleTaskPosterior:
    def test_beta_concentrated(self):
        # Beta(1e6, 1): P(theta < 1 - 1e-4) = (1 - 1e-4)^1e6 ~ e^-100.
        post = BetaCounts(alpha=np.array([1e6]), beta=np.array([1.0]))
        stream = derive_stream(0, 0, 0, 0)
        for _ in range(50):
            draw = sample_task_posterior(post, stream)
            assert abs(draw[0] - 1.0) < 1e-4

    def test_gaussian_degenerate_equals_mean(self):
        prior = GaussianDiagPrior(mu=[0.4, -0.7], sigma_0=1e-9, sigma=1.0)
        post = init_task_posterior(prior)
        stream = derive_stream(0, 0, 1, 0)
        draw = sample_task_posterior(post, stream)
        np.testing.assert_allclose(draw, [0.4, -0.7], atol=1e-8)

    def test_linear_antipodal_features(self):
        # Features (1) and (-1) over a scalar parameter: arm 2's sample is the
        # exact negation of arm 1's, draw by draw.
        prior = LinearGaussianPrior(
            theta_0=[0.2], Sigma=[[0.5]], features=[[1.0], [-1.0]], sigma=1.0
        )
        post = init_task_posterior(prior)
        stream = derive_stream(1, 2, 3, 4)
        for _ in range(20):
            draw = sample_task_posterior(post, stream)
            assert draw.shape == (2,)
            assert draw[1] == -draw[0]

    def test_gaussian_sampling_moments(self):
        prior = GaussianDiagPrior(mu=[0.5], sigma_0=0.2, sigma=1.0)
        post = init_task_posterior(prior)
        stream = derive_stream(5, 0, 0, 0)
        draws = np.array(
            [sample_task_posterior(post, stream)[0] for _ in range(20000)]
        )
        assert abs(draws.mean() - 0.5) < 0.005
        assert abs(draws.var() - 0.04) < 0.002

    def test_nan_precision_raises(self):
        # Cholesky returns NaNs for a NaN matrix without raising; the pivot
        # floor still refuses it, alone and inside a stack of pairs.
        nan = np.full((2, 2), np.nan)
        post = LinearGaussianPosterior(
            precision=nan.copy(), info=np.zeros(2), sigma=1.0, features=np.eye(2)
        )
        with pytest.raises(NumericalError, match="pivot"):
            sample_task_posterior(post, derive_stream(0, 0, 0, 0))
        with pytest.raises(NumericalError, match="pivot"):
            play_one_round(linear_posts([np.eye(2), nan]))

    def test_pivot_floor_is_relative_to_the_largest_pivot(self):
        # A tiny but perfectly conditioned precision samples like the unit
        # one scaled; a pivot 1e-15 of its matrix's largest is refused, also
        # next to a tiny well-conditioned matrix in the same stack.
        unit, tiny = linear_posts([np.eye(2), 1e-26 * np.eye(2)])
        unit_draw = unit.thompson(np.random.default_rng(3))
        tiny_draw = tiny.thompson(np.random.default_rng(3))
        np.testing.assert_allclose(tiny_draw, 1e13 * np.array(unit_draw), rtol=1e-12)
        skewed = linear_posts([1e-26 * np.eye(2), np.diag([1.0, 1e-30])])
        with pytest.raises(NumericalError, match="pivot below 1e-12 of the largest"):
            play_one_round(skewed)

    def test_pivot_floor_crossed_mid_task_raises_that_rounds_error(self):
        # Each arm of the middle pair adds a^2 = 4.225e23 to its precision's
        # first entry: the factor passes the floor after two absorbs (pivot
        # ratio 1.09e-12) and fails after three (8.9e-13). play_linear checks
        # the floor once per task, yet raises the very error that checking
        # round 3 at once raised (condition number 1 + 3 a^2), and writes no
        # posterior back.
        a = 0.65e12
        posts = linear_posts([np.eye(2)] * 3)
        posts[1].features = np.array([[a, 0.0], [a, 0.0]])
        gens = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(NumericalError) as raised:
            play_linear(posts, gens, np.zeros((3, 6, 2)), [6] * 3)
        assert str(raised.value) == (
            "linear task posterior sampling: Cholesky pivot below 1e-12 of the largest "
            "pivot (condition number 1.267e+24)"
        )
        for post in posts:
            assert post.precision.tobytes() == np.eye(2).tobytes()
        # Rounds 3 to 5 are partial: pair 0 pulls its forced arms. Pair 1
        # crosses the floor at round 3 (c = 6.5e11) or 4 (5.5e11), and pair
        # 0's precision at round 3 (7e11, condition number 1.470e+24), but
        # only the drawing pairs' pivots are checked, and only theirs make
        # the error, as checking each partial round at once did.
        for scale, cond in [(6.5e11, "1.267e+24"), (5.5e11, "1.210e+24")]:
            posts = forced_posts([7e11, scale, 0.5])
            gens = [np.random.default_rng(i) for i in range(3)]
            with pytest.raises(NumericalError) as raised:
                play_linear(posts, gens, np.zeros((3, 6, 3)), (3, 6, 6))
            assert str(raised.value) == (
                "linear task posterior sampling: Cholesky pivot below 1e-12 of the largest "
                f"pivot (condition number {cond})"
            )
            for post in posts:
                assert post.precision.tobytes() == np.eye(2).tobytes()
        # Alone, pair 0 passes the floor in its drawn rounds (ratio 1.01e-12
        # after two absorbs) and fails it in its forced ones: the task plays.
        posts = forced_posts([7e11, 0.5, 0.5])
        gens = [np.random.default_rng(i) for i in range(3)]
        arms = play_linear(posts, gens, np.zeros((3, 6, 3)), (3, 6, 6))
        assert arms.tolist() == [[0, 0, 0, 0, 1, 2], [0] * 6, [0] * 6]
        for post, first in zip(posts, [2.94e24, 2.5, 2.5]):
            assert post.precision.tobytes() == np.array([[first, 0.0], [0.0, 1.0]]).tobytes()

    def test_play_linear_refuses_what_it_cannot_play(self):
        # free = 2 at K = 2, n = 6 would pull arms 2 and 3, read from the next
        # pair's rows; a free or gen missing leaves a pair unplayed.
        # Each is refused before any draw.
        rewards = np.zeros((3, 6, 2))
        for free, num_gens in [([2, 6, 6], 3), ([4, 6, 7], 3), ([6, 6], 3), ([6] * 3, 2)]:
            gens = [np.random.default_rng(i) for i in range(num_gens)]
            posts = linear_posts([np.eye(2)] * 3)
            with pytest.raises(ValueError, match=r"free in \[n - K, n\] = \[4, 6\]"):
                play_linear(posts, gens, rewards, free)
            fresh = [np.random.default_rng(i).bit_generator.state for i in range(num_gens)]
            assert [gen.bit_generator.state for gen in gens] == fresh

    def test_linear_sample_covariance(self):
        # Empirical covariance of theta-samples (recovered through identity
        # features) matches the posterior covariance.
        cov = np.array([[0.3, 0.1], [0.1, 0.2]])
        prior = LinearGaussianPrior(
            theta_0=[0.0, 0.0], Sigma=cov, features=np.eye(2), sigma=1.0
        )
        post = init_task_posterior(prior)
        stream = derive_stream(6, 0, 0, 0)
        draws = np.array([sample_task_posterior(post, stream) for _ in range(40000)])
        sample_cov = np.cov(draws.T)
        np.testing.assert_allclose(sample_cov, cov, atol=0.01)


# ---------------------------------------------------------------------------
# The LAPACK seam: _cholesky and _solve against np.linalg


@st.composite
def spd_stacks(draw):
    """A (R, d, d) stack of SPD matrices, condition numbers 1 to about 1e10,
    and which matrix a failure case replaces."""
    r = draw(st.integers(1, 6))
    d = draw(st.integers(1, 8))
    log_cond = draw(st.floats(0.0, 10.0))
    gen = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    q, _ = np.linalg.qr(gen.standard_normal((r, d, d)))
    eig = 10.0 ** gen.uniform(0.0, log_cond, size=(r, d))
    eig[:, -1] = 10.0**log_cond
    eig[:, 0] = 1.0  # the smallest, also at d = 1
    mats = (q * eig[:, None, :]) @ np.swapaxes(q, -1, -2)
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    return mats, gen, draw(st.integers(0, r - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spd_stacks())
def test_seam_equals_numpy_linalg(case):
    mats, gen, bad = case
    r, d, _ = mats.shape
    lower = _cholesky(mats)
    assert lower.tobytes() == np.linalg.cholesky(mats).tobytes()
    with np.errstate(all="ignore"):
        assert _factor(mats, "seam").tobytes() == lower.tobytes()
    # The upper factor is the swapped view, as _thompson_means passes it.
    upper = np.swapaxes(lower, -1, -2)
    for rhs in (gen.standard_normal(d), gen.standard_normal((r, d, 1))):
        for a in (lower, upper):
            assert _solve(a, rhs).tobytes() == np.linalg.solve(a, rhs).tobytes()
    # One matrix with 1-D right-hand sides, as _spd_solve and the meta draw pass it.
    vec = gen.standard_normal(d)
    for a in (lower[0], lower[0].T):
        assert _solve(a, vec).tobytes() == np.linalg.solve(a, vec).tobytes()
    # Two stacks of columns against one upper factor in one call, broadcast
    # over the slot axis as _thompson_means passes them, and a solve written
    # through out, each equal to its own call.
    w, z = gen.standard_normal((2, r, d, 1))
    both = _solve(upper[None], np.stack([w, z]))
    assert both[0].tobytes() == _solve(upper, w).tobytes()
    assert both[1].tobytes() == _solve(upper, z).tobytes()
    into = np.empty((r, d, 1))
    _solve(lower, w, out=into)
    assert into.tobytes() == _solve(lower, w).tobytes()
    # A failure is read from the result: LAPACK's NaNs for a matrix that is
    # not positive-definite, the pivot floor for a NaN one, without a warning.
    indefinite, nan = mats.copy(), mats.copy()
    indefinite[bad] -= 1.5 * np.eye(d)  # its smallest eigenvalue, 1, goes to -0.5
    nan[bad] = np.nan
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="matrix is not positive-definite"):
            _factor(indefinite, "seam")
        with pytest.raises(NumericalError, match="pivot below 1e-12 of the largest pivot"):
            _factor(nan, "seam")


# ---------------------------------------------------------------------------
# Categorical meta-posterior


SEC5_P1 = BetaProductPrior(alpha=[6.0, 2.0], beta=[2.0, 6.0])
SEC5_P2 = BetaProductPrior(alpha=[2.0, 6.0], beta=[6.0, 2.0])


class TestCategoricalMeta:
    def test_log_evidence_closed_form(self):
        # K=1, Beta(1,1), T=2 pulls with one success: the Beta-Binomial
        # marginal (without the binomial coefficient) is
        # B(2,2)/B(1,1) = Gamma(2)Gamma(2)/Gamma(4) = 1/6.
        log = make_log(1, [(0, 1.0), (0, 0.0)])
        prior = BetaProductPrior(alpha=[1.0], beta=[1.0])
        value = categorical_log_evidence(prior, log)
        np.testing.assert_allclose(np.exp(value), 1.0 / 6.0, rtol=1e-12)

    def test_log_evidence_factorizes_over_arms(self):
        log = make_log(2, [(0, 1.0), (1, 0.0), (0, 0.0), (1, 1.0), (1, 1.0)])
        joint = categorical_log_evidence(SEC5_P1, log)
        log_a = make_log(1, [(0, 1.0), (0, 0.0)])
        log_b = make_log(1, [(0, 0.0), (0, 1.0), (0, 1.0)])
        arm_a = categorical_log_evidence(
            BetaProductPrior(alpha=[6.0], beta=[2.0]), log_a
        )
        arm_b = categorical_log_evidence(
            BetaProductPrior(alpha=[2.0], beta=[6.0]), log_b
        )
        np.testing.assert_allclose(joint, arm_a + arm_b, rtol=1e-14)

    def test_identical_candidates_leave_weights_unchanged(self):
        meta = CategoricalWeights(
            weights=np.array([0.3, 0.7]), priors=(SEC5_P1, SEC5_P1)
        )
        log = make_log(2, [(0, 1.0), (1, 0.0), (0, 1.0)])
        updated = update_meta_posterior_categorical(meta, log)
        np.testing.assert_allclose(updated.weights, [0.3, 0.7], rtol=1e-12)

    def test_bayes_rule_oracle(self):
        # Direct Bayes rule in linear space on small shape parameters.
        meta = CategoricalWeights(
            weights=np.array([0.5, 0.5]), priors=(SEC5_P1, SEC5_P2)
        )
        log = make_log(2, [(0, 1.0), (0, 1.0), (1, 0.0), (0, 1.0)])
        updated = update_meta_posterior_categorical(meta, log)
        ev = np.array(
            [
                np.exp(categorical_log_evidence(p, log))
                for p in (SEC5_P1, SEC5_P2)
            ]
        )
        expected = 0.5 * ev / (0.5 * ev).sum()
        np.testing.assert_allclose(updated.weights, expected, rtol=1e-12)
        # Data favoring arm 1 should favor the prior whose arm 1 leans high.
        assert updated.weights[0] > 0.5

    def test_label_swap_symmetry(self):
        # Swapping arm labels in the log swaps the mirrored candidates'
        # weights exactly.
        meta = CategoricalWeights(
            weights=np.array([0.5, 0.5]), priors=(SEC5_P1, SEC5_P2)
        )
        pairs = [(0, 1.0), (0, 1.0), (1, 0.0), (1, 1.0), (0, 0.0)]
        swapped = [(1 - arm, r) for arm, r in pairs]
        w = update_meta_posterior_categorical(meta, make_log(2, pairs)).weights
        w_swap = update_meta_posterior_categorical(
            meta, make_log(2, swapped)
        ).weights
        assert w[0] == w_swap[1]
        assert w[1] == w_swap[0]

    def test_zero_weight_candidate_stays_dead(self):
        meta = CategoricalWeights(
            weights=np.array([1.0, 0.0]), priors=(SEC5_P1, SEC5_P2)
        )
        log = make_log(2, [(1, 1.0), (1, 1.0), (1, 1.0)])
        updated = update_meta_posterior_categorical(meta, log)
        np.testing.assert_array_equal(updated.weights, [1.0, 0.0])

    def test_long_horizon_stays_finite(self):
        # Evidence at a 200-round log is far below exp(-700); log-space plus
        # max subtraction must keep the weights normalized and finite.
        gen = np.random.default_rng(19)
        pairs = [(int(gen.integers(0, 2)), float(gen.integers(0, 2))) for _ in range(200)]
        meta = CategoricalWeights(
            weights=np.array([0.5, 0.5]), priors=(SEC5_P1, SEC5_P2)
        )
        updated = update_meta_posterior_categorical(meta, make_log(2, pairs))
        assert np.all(np.isfinite(updated.weights))
        np.testing.assert_allclose(updated.weights.sum(), 1.0, rtol=1e-12)

    def test_weights_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            CategoricalWeights(weights=np.array([0.5, 0.6]), priors=(SEC5_P1, SEC5_P2))
        with pytest.raises(ValueError, match="nonnegative"):
            CategoricalWeights(weights=np.array([1.5, -0.5]), priors=(SEC5_P1, SEC5_P2))
        with pytest.raises(ValueError, match="one weight per"):
            CategoricalWeights(weights=np.array([1.0]), priors=(SEC5_P1, SEC5_P2))


def evidence_one_candidate_at_a_time(priors, log):
    """The Beta-Binomial log evidence, one log_gamma call per term and candidate."""
    total, pos = arm_totals(log)
    neg = total - pos
    out = []
    for prior in priors:
        a, b = prior.alpha, prior.beta
        terms = (
            log_gamma(a + b)
            + log_gamma(a + pos)
            + log_gamma(b + neg)
            - log_gamma(a)
            - log_gamma(b)
            - log_gamma(a + b + total)
        )
        out.append(np.sum(terms))
    return np.array(out)


# Shapes over the accepted prior_table domain (MIN_BETA_SHAPE <= a, b and
# a + b + n <= MAX_BETA_SHAPE_SUM for n <= 30), log-uniform plus everyday values.
BETA_SHAPES = st.floats(-300.0, 299.0).map(
    lambda e: max(MIN_BETA_SHAPE, 10.0**e)
) | st.floats(MIN_BETA_SHAPE, 20.0)


@st.composite
def candidates_and_log(draw):
    j = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    n = draw(st.integers(0, 30))
    shapes = [draw(st.lists(BETA_SHAPES, min_size=2 * k, max_size=2 * k)) for _ in range(j)]
    priors = tuple(BetaProductPrior(alpha=s[:k], beta=s[k:]) for s in shapes)
    raw = draw(
        st.lists(st.floats(0.0, 1.0), min_size=j, max_size=j).filter(lambda w: sum(w) > 0)
    )
    meta = CategoricalWeights(weights=np.array(raw) / sum(raw), priors=priors)
    arms = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    rewards = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    return meta, make_log(k, zip(arms, rewards))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(candidates_and_log())
def test_stacked_evidence_equals_one_candidate_at_a_time(case):
    meta, log = case
    for prior in meta.priors:
        assert MIN_BETA_SHAPE <= min(prior.alpha.min(), prior.beta.min())
        assert np.all(prior.alpha + prior.beta + len(log) <= MAX_BETA_SHAPE_SUM)
    loop = evidence_one_candidate_at_a_time(meta.priors, log)
    single = np.array([categorical_log_evidence(p, log) for p in meta.priors])
    assert single.dtype == loop.dtype and single.tobytes() == loop.tobytes()
    # The weights of the same Bayes rule on the loop's evidence: the update
    # stacks the evidence of all J candidates.
    with np.errstate(divide="ignore"):
        logw = np.log(meta.weights)
    logw = logw + loop
    logw -= np.max(logw[np.isfinite(logw)])
    w = np.exp(logw)
    w /= w.sum()
    w[w < WEIGHT_FLOOR] = 0.0
    w /= w.sum()
    updated = update_meta_posterior_categorical(meta, log)
    assert updated.weights.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# Gaussian meta-posterior


class TestGaussianMeta:
    def test_frozen_single_task(self):
        # One arm pulled T=100 times, ybar = 0.2, sigma_q^2 = 0.25,
        # sigma_0^2 = 0.01, sigma^2 = 1. Effective weight
        #   w = T/(T sigma_0^2 + sigma^2) = 100/2 = 50,
        # new precision = 1/0.25 + 50 = 54 (kept to full float precision),
        # new var = 1/54 = 0.0185185..., new mu = (1/54)*(0 + 0.2*50).
        meta = GaussianDiagState(
            mu=np.zeros(2), var=np.full(2, 0.25), sigma_0=0.1, sigma=1.0
        )
        pairs = [(0, 0.2)] * 100  # sum 20.0, mean 0.2
        updated = update_meta_posterior_gaussian(meta, make_log(2, pairs))
        np.testing.assert_allclose(1.0 / updated.var[0], 54.0, rtol=1e-12)
        np.testing.assert_allclose(updated.mu[0], 10.0 / 54.0, rtol=1e-12)
        # The d=1 linear twin of this case (precision 4.990099, mean 0.059524
        # with T=1) is frozen below in the cross-family test.

    def test_frozen_one_observation(self):
        # T=1, y=0.3, sigma_q^2=0.25, sigma_0^2=0.01, sigma^2=1:
        # w = 1/(0.01 + 1) = 1/1.01, precision = 4 + 1/1.01 = 4.990099...,
        # var = 0.200397..., mu = var * 0.3/1.01 = 0.059524...
        meta = GaussianDiagState(
            mu=np.zeros(1), var=np.array([0.25]), sigma_0=0.1, sigma=1.0
        )
        updated = update_meta_posterior_gaussian(meta, make_log(1, [(0, 0.3)]))
        np.testing.assert_allclose(1.0 / updated.var[0], 4.990099, atol=5e-7)
        np.testing.assert_allclose(updated.var[0], 0.200397, atol=5e-7)
        np.testing.assert_allclose(updated.mu[0], 0.059524, atol=5e-7)

    def test_unpulled_arms_bit_identical(self):
        meta = GaussianDiagState(
            mu=np.array([0.123456789, -0.987654321, 0.5]),
            var=np.array([0.25, 0.17, 0.09]),
            sigma_0=0.1,
            sigma=1.0,
        )
        updated = update_meta_posterior_gaussian(meta, make_log(3, [(1, 0.4)]))
        assert updated.mu[0] == meta.mu[0]
        assert updated.var[0] == meta.var[0]
        assert updated.mu[2] == meta.mu[2]
        assert updated.var[2] == meta.var[2]
        assert updated.var[1] < meta.var[1]

    def test_empty_log_is_identity(self):
        meta = GaussianDiagState(
            mu=np.array([0.3]), var=np.array([0.25]), sigma_0=0.1, sigma=1.0
        )
        updated = update_meta_posterior_gaussian(meta, TaskLog(num_arms=1))
        assert updated.mu[0] == meta.mu[0]
        assert updated.var[0] == meta.var[0]

    def test_large_t_precision_increment_saturates(self):
        # As T -> inf the per-task precision gain tends to 1/sigma_0^2 = 100.
        # At T=1e8 the gain is 1e8/(1e6 + 1), off by 1e-6 in relative terms.
        meta = GaussianDiagState(
            mu=np.zeros(1), var=np.array([0.25]), sigma_0=0.1, sigma=1.0
        )
        t = 100_000_000
        log = TaskLog(1, np.zeros(t, dtype=int), np.full(t, 0.3))
        updated = update_meta_posterior_gaussian(meta, log)
        increment = 1.0 / updated.var[0] - 4.0
        np.testing.assert_allclose(increment, 100.0, rtol=1e-6)

    def test_depends_only_on_sufficient_stats(self):
        # Any two logs with equal per-arm (T, reward sum) give bit-identical
        # results; permuting rounds is the canonical case.
        gen = np.random.default_rng(23)
        arms = gen.integers(0, 3, size=60)
        rewards = gen.normal(size=60)
        meta = GaussianDiagState(
            mu=np.zeros(3), var=np.full(3, 0.25), sigma_0=0.1, sigma=1.0
        )
        perm = gen.permutation(60)
        upd_a = update_meta_posterior_gaussian(
            meta, make_log(3, list(zip(arms, rewards)))
        )
        upd_b = update_meta_posterior_gaussian(
            meta, make_log(3, list(zip(arms[perm], rewards[perm])))
        )
        assert all(a == b for a, b in zip(upd_a.mu, upd_b.mu))
        assert all(a == b for a, b in zip(upd_a.var, upd_b.var))

    def test_precision_never_decreases_and_concentration_cap(self):
        # Across s tasks each arm's precision is nondecreasing, and the
        # variance never drops below the every-round-on-one-arm limit
        # (1/sigma_q^2 + s/(sigma_0^2 + sigma^2/T))^-1 <= handled via the
        # T->inf cap (1/sigma_q^2 + s/sigma_0^2)^-1; we check the looser
        # per-task bound with T finite.
        gen = np.random.default_rng(29)
        meta = GaussianDiagState(
            mu=np.zeros(2), var=np.full(2, 0.25), sigma_0=0.1, sigma=1.0
        )
        horizon = 40
        for s in range(1, 6):
            pairs = [
                (int(gen.integers(0, 2)), float(gen.normal()))
                for _ in range(horizon)
            ]
            updated = update_meta_posterior_gaussian(meta, make_log(2, pairs))
            assert np.all(1.0 / updated.var >= 1.0 / meta.var)
            # Per-arm gain is at most the full-horizon weight.
            max_gain = horizon / (horizon * 0.01 + 1.0)
            assert np.all(
                1.0 / updated.var <= 1.0 / meta.var + max_gain + 1e-12
            )
            meta = updated
        # After 5 tasks of 40 rounds the variance is still above the cap with
        # all pulls concentrated: (4 + 5*40/(40*0.01+1))^-1.
        cap = 1.0 / (4.0 + 5.0 * 40.0 / (40.0 * 0.01 + 1.0))
        assert np.all(meta.var >= cap - 1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            GaussianDiagState(
                mu=np.zeros(2), var=np.ones(3), sigma_0=0.1, sigma=1.0
            )
        with pytest.raises(ValueError, match="> 0"):
            GaussianDiagState(
                mu=np.zeros(1), var=np.array([0.0]), sigma_0=0.1, sigma=1.0
            )


# ---------------------------------------------------------------------------
# Stacked meta-updates: M states at once, each as if updated alone


def six_row_evidence(priors, log):
    """The Beta-Binomial log evidence of J candidates as one six-row stack,
    the formula the categorical update used before the count-free rows were
    cached: lg(a+b) + lg(a+pos) + lg(b+neg) - lg(a) - lg(b) - lg(a+b+T)."""
    a = np.stack([p.alpha for p in priors])
    b = np.stack([p.beta for p in priors])
    total, pos = arm_totals(log)
    lg = log_gamma(np.stack([a + b, a + pos, b + (total - pos), a, b, a + b + total]))
    return (lg[0] + lg[1] + lg[2] - lg[3] - lg[4] - lg[5]).sum(axis=-1)


def categorical_weights_alone(meta, log):
    """The one-state categorical update, written out on 1-D arrays."""
    with np.errstate(divide="ignore"):
        logw = np.log(meta.weights)
    logw = logw + six_row_evidence(meta.priors, log)
    logw -= np.max(logw[np.isfinite(logw)])
    w = np.exp(logw)
    w /= w.sum()
    w[w < WEIGHT_FLOOR] = 0.0
    w /= w.sum()
    return w


def gaussian_state_alone(meta, log):
    """The one-state Gaussian update, written out on the pulled arms."""
    pulls, sums = arm_totals(log)
    pulled = pulls > 0
    t = pulls[pulled]
    weight = t / (t * meta.sigma_0**2 + meta.sigma**2)
    old_precision = 1.0 / meta.var[pulled]
    var, mu = meta.var.copy(), meta.mu.copy()
    var[pulled] = 1.0 / (old_precision + weight)
    mu[pulled] = var[pulled] * (meta.mu[pulled] * old_precision + sums[pulled] / t * weight)
    return mu, var


def task_logs(draw, gen, num_pairs, num_arms, rewards):
    """One log per pair, 0 to 50 rounds, on a drawn subset of the arms (so
    some arms go unpulled). The bulk values come from gen, seeded by a drawn
    integer, so a batch of up to 8 logs stays within Hypothesis's budget."""
    logs = []
    for _ in range(num_pairs):
        n = draw(st.integers(0, 50))
        arms = draw(st.lists(st.integers(0, num_arms - 1), min_size=1, unique=True))
        logs.append(TaskLog(num_arms, gen.choice(arms, size=n), rewards(draw, gen, n)))
    return logs


def bernoulli_rewards(draw, gen, n):
    fill = draw(st.sampled_from(["all 0", "all 1", "mixed"]))
    if fill == "mixed":
        return (gen.random(n) < 0.5).astype(float)
    return np.full(n, float(fill == "all 1"))


def gaussian_rewards(draw, gen, n):
    # Rounded to 0-2 decimals, values repeat (-0.0 among them), so the
    # canonical sum order meets ties; unrounded, every value is distinct.
    values = gen.normal(0.0, 1.5, size=n)
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    return values if decimals is None else np.round(values, decimals)


# Weights drawn per candidate: zero (log -inf), below the floor, or ordinary.
RAW_WEIGHTS = st.sampled_from([0.0, 1e-310, 1e-250]) | st.floats(0.0, 1.0)


@st.composite
def categorical_batches(draw):
    m, j, k = draw(st.integers(1, 8)), draw(st.integers(1, 11)), draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = draw(st.booleans())
    metas = []
    for _ in range(m):
        if not metas or not shared:
            shapes = 10.0 ** gen.uniform(-3.0, 3.0, size=(j, 2, k))
            priors = tuple(BetaProductPrior(alpha=a, beta=b) for a, b in shapes)
        raw = draw(st.lists(RAW_WEIGHTS, min_size=j, max_size=j).filter(lambda w: max(w) > 0.01))
        metas.append(CategoricalWeights(weights=np.array(raw) / sum(raw), priors=priors))
    return metas, task_logs(draw, gen, m, k, bernoulli_rewards)


@st.composite
def gaussian_batches(draw):
    m, k = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    metas = []
    for _ in range(m):
        # Widths log-uniform over 1e-2 to 1e2; the variance is that of a
        # MetaTS that believes the meta-prior sigma_q * scale wide.
        sigma_0, sigma, sigma_q, scale = 10.0 ** gen.uniform(-2.0, 2.0, size=4)
        var = np.full(k, (sigma_q * scale) ** 2)
        if draw(st.booleans()):  # a state some tasks in: every arm its own
            var *= 10.0 ** gen.uniform(-2.0, 0.0, size=k)
        mu = gen.normal(0.0, 1.0, size=k)
        metas.append(GaussianDiagState(mu=mu, var=var, sigma_0=sigma_0, sigma=sigma))
    return metas, task_logs(draw, gen, m, k, gaussian_rewards)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(categorical_batches())
def test_stacked_categorical_update_equals_one_state_at_a_time(batch):
    metas, logs = batch
    stacked = update_meta_posteriors(metas, logs)
    for meta, log, new in zip(metas, logs, stacked):
        want = categorical_weights_alone(meta, log)
        assert new.weights.tobytes() == want.tobytes()
        assert new.priors is meta.priors and new._terms is meta._terms
        one = update_meta_posterior_categorical(meta, log)
        assert one.weights.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gaussian_batches())
def test_stacked_gaussian_update_equals_one_state_at_a_time(batch):
    metas, logs = batch
    stacked = update_meta_posteriors(metas, logs)
    for meta, log, new in zip(metas, logs, stacked):
        mu, var = gaussian_state_alone(meta, log)
        for state in (new, update_meta_posterior_gaussian(meta, log)):
            assert state.mu.tobytes() == mu.tobytes()
            assert state.var.tobytes() == var.tobytes()
            assert (state.sigma_0, state.sigma) == (meta.sigma_0, meta.sigma)


def test_stacked_update_refuses_what_the_one_state_update_refuses():
    meta = CategoricalWeights(weights=np.array([0.5, 0.5]), priors=(SEC5_P1, SEC5_P2))
    good, bad = make_log(2, [(0, 1.0)]), make_log(2, [(0, 1.0), (1, 0.5)])
    with pytest.raises(ValueError, match="non-binary reward 0.5 in a Bernoulli log"):
        update_meta_posteriors([meta, meta], [good, bad])
    # A log of another arm count would shift its bins into the next pair's.
    with pytest.raises(ValueError, match="every task log needs the K=2 arms of its meta-state"):
        update_meta_posteriors([meta, meta], [good, make_log(3, [(2, 1.0)])])
    with pytest.raises(TypeError, match="not a meta posterior"):
        update_meta_posteriors([object()], [good])


def test_mixed_states_update_in_their_own_groups():
    # States of other families and shapes keep their order, each updated as
    # if alone; linear states go through the one-state Woodbury update.
    cat2 = CategoricalWeights(weights=np.array([0.3, 0.7]), priors=(SEC5_P1, SEC5_P2))
    cat3 = CategoricalWeights(weights=np.array([0.2, 0.3, 0.5]), priors=(SEC5_P1,) * 3)
    gauss = GaussianDiagState(mu=np.zeros(2), var=np.full(2, 0.25), sigma_0=0.1, sigma=1.0)
    lin = LinearState(
        mu=np.zeros(2), Lambda=4.0 * np.eye(2), Sigma=0.01 * np.eye(2), sigma=1.0,
        features=np.array([[1.0, 0.0], [0.3, 0.8]]),
    )
    binary = make_log(2, [(0, 1.0), (1, 0.0), (1, 1.0)])
    real = make_log(2, [(0, 0.25), (1, -0.5), (0, 0.75)])
    metas = [cat2, gauss, lin, cat3, cat2, gauss]
    logs = [binary, real, real, binary, binary, real]
    for meta, log, new in zip(metas, logs, update_meta_posteriors(metas, logs)):
        if isinstance(meta, CategoricalWeights):
            assert new.weights.tobytes() == categorical_weights_alone(meta, log).tobytes()
        elif isinstance(meta, GaussianDiagState):
            assert np.concatenate([new.mu, new.var]).tobytes() == np.concatenate(
                gaussian_state_alone(meta, log)
            ).tobytes()
        else:
            alone = update_meta_posterior_linear(meta, log)
            assert new.mu.tobytes() == alone.mu.tobytes()
            assert new.Lambda.tobytes() == alone.Lambda.tobytes()


# ---------------------------------------------------------------------------
# Linear meta-posterior


def random_linear_state(gen, d, num_arms, sigma=1.0):
    a = gen.normal(size=(d, d))
    lam = a @ a.T + d * np.eye(d)
    b = gen.normal(size=(d, d))
    sig = 0.1 * (b @ b.T) + 0.05 * np.eye(d)
    return LinearState(
        mu=gen.normal(size=d),
        Lambda=lam,
        Sigma=sig,
        sigma=sigma,
        features=gen.uniform(-0.5, 0.5, size=(num_arms, d)),
    )


class TestLinearMeta:
    def test_update_and_sample_factor_three_times(self, monkeypatch):
        # One Woodbury update factors its inner matrix, the new Lambda for
        # the mean solve, and the new Lambda once more when the state is
        # built; the meta sample reads that factor and factors nothing, with
        # the bits of factoring Lambda there.
        state = random_linear_state(np.random.default_rng(5), 2, 3)
        log = make_log(3, [(0, 0.5), (2, -1.0), (1, 0.25)])
        calls, seams = [], [(envs, "_cholesky"), (posteriors, "_cholesky"), (np.linalg, "cholesky")]
        for module, name in seams:

            def counted(mat, _fn=getattr(module, name), **kwargs):
                calls.append(name)
                return _fn(mat, **kwargs)

            monkeypatch.setattr(module, name, counted)
        new = update_meta_posterior_linear(state, log)
        assert len(calls) == 3
        prior = sample_meta_posterior(new, derive_stream(3, 0, 0, 0))
        assert len(calls) == 3
        monkeypatch.undo()
        z = derive_stream(3, 0, 0, 0).normal(0.0, 1.0, size=2)
        theta_0 = new.mu + np.linalg.solve(np.linalg.cholesky(new.Lambda).T, z)
        assert prior.theta_0.tobytes() == theta_0.tobytes()

    def test_empty_log_is_identity(self):
        gen = np.random.default_rng(31)
        state = random_linear_state(gen, 2, 4)
        out = update_meta_posterior_linear(state, TaskLog(num_arms=4))
        assert out is state

    def test_frozen_scalar_case_both_modes(self):
        # d=1, Lambda_0=4, mu_0=0, task Sigma=0.01, sigma^2=1, one pull with
        # feature x=1 and reward 0.3:
        #   direct: Lambda_1 = 4 + 1/(1 + 0.01) = 4.990099...
        #   mu_1 = Lambda_1^-1 * 0.3/1.01 = 0.0595238...
        # Matches the Gaussian-diagonal single-observation numbers exactly,
        # for the update and for the direct-solve oracle alike.
        for update in (direct_linear_meta_update, update_meta_posterior_linear):
            state = LinearState(
                mu=np.zeros(1),
                Lambda=np.array([[4.0]]),
                Sigma=np.array([[0.01]]),
                sigma=1.0,
                features=np.array([[1.0]]),
            )
            out = update(state, make_log(1, [(0, 0.3)]))
            np.testing.assert_allclose(out.Lambda[0, 0], 4.990099, atol=5e-7)
            np.testing.assert_allclose(out.mu[0], 0.059524, atol=5e-7)

    def test_direct_vs_woodbury_agree(self):
        gen = np.random.default_rng(37)
        for _ in range(30):
            d = int(gen.integers(1, 5))
            k = int(gen.integers(d, 8))
            state = random_linear_state(gen, d, k, sigma=float(gen.uniform(0.5, 2.0)))
            t = int(gen.integers(1, 30))
            pairs = [
                (int(gen.integers(0, k)), float(gen.normal())) for _ in range(t)
            ]
            log = make_log(k, pairs)
            out_d = direct_linear_meta_update(state, log)
            out_w = update_meta_posterior_linear(state, log)
            scale = max(1.0, float(np.max(np.abs(out_d.Lambda))))
            assert np.max(np.abs(out_d.Lambda - out_w.Lambda)) / scale < 1e-8
            assert np.max(np.abs(out_d.mu - out_w.mu)) < 1e-8

    def test_precision_increment_psd(self):
        gen = np.random.default_rng(41)
        for _ in range(10):
            state = random_linear_state(gen, 3, 6)
            pairs = [
                (int(gen.integers(0, 6)), float(gen.normal())) for _ in range(25)
            ]
            out = update_meta_posterior_linear(state, make_log(6, pairs))
            increment = out.Lambda - state.Lambda
            eigvals = np.linalg.eigvalsh(increment)
            assert eigvals.min() > -1e-10
            np.testing.assert_allclose(out.Lambda, out.Lambda.T, atol=0)

    def test_singular_task_covariance_raises(self):
        # The Woodbury form inverts the task covariance; a numerically
        # singular Sigma must fail loudly, not silently produce garbage. An
        # exactly singular one, and one that factors but has a pivot below
        # the floor, are refused when the state is built.
        def state(sigma):
            return LinearState(
                mu=np.zeros(2),
                Lambda=np.eye(2),
                Sigma=sigma,
                sigma=1.0,
                features=np.array([[1.0, 0.0], [0.0, 1.0]]),
            )

        with pytest.raises(ValueError, match="Sigma must be positive-definite"):
            state(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="^Sigma must have no Cholesky pivot below 1e-12"):
            state(np.diag([1.0, 1e-26]))

    def test_matches_batch_bayes_oracle(self):
        # Closed-form oracle: integrating theta_s out, a task's rows are
        # y ~ N(X theta_0, sigma^2 I + X Sigma X^T), so the exact posterior is
        # Lambda_1 = Lambda_0 + X^T V^-1 X, mu_1 = Lambda_1^-1 (Lambda_0 mu_0 + X^T V^-1 y).
        gen = np.random.default_rng(47)
        state = random_linear_state(gen, 2, 5)
        pairs = [(int(gen.integers(0, 5)), float(gen.normal())) for _ in range(12)]
        log = make_log(5, pairs)
        x = state.features[log.arms]
        y = np.asarray(log.rewards)
        v = np.eye(12) + x @ state.Sigma @ x.T
        v_inv = np.linalg.inv(v)
        lam_expected = state.Lambda + x.T @ v_inv @ x
        mu_expected = np.linalg.solve(
            lam_expected, state.Lambda @ state.mu + x.T @ v_inv @ y
        )
        for update in (direct_linear_meta_update, update_meta_posterior_linear):
            out = update(state, log)
            np.testing.assert_allclose(out.Lambda, lam_expected, rtol=1e-9)
            np.testing.assert_allclose(out.mu, mu_expected, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="d x d"):
            LinearState(
                mu=np.zeros(2),
                Lambda=np.eye(3),
                Sigma=np.eye(2),
                sigma=1.0,
                features=np.ones((3, 2)),
            )


# ---------------------------------------------------------------------------
# Meta-posterior sampling


class TestSampleMetaPosterior:
    def test_categorical_degenerate(self):
        meta = CategoricalWeights(
            weights=np.array([0.0, 1.0]), priors=(SEC5_P1, SEC5_P2)
        )
        stream = derive_stream(9, 0, 0, 0)
        for _ in range(30):
            assert sample_meta_posterior(meta, stream) is SEC5_P2

    def test_gaussian_degenerate_returns_mean(self):
        meta = GaussianDiagState(
            mu=np.array([0.25, -0.5]),
            var=np.full(2, 1e-18),
            sigma_0=0.1,
            sigma=1.0,
        )
        stream = derive_stream(9, 0, 1, 0)
        prior = sample_meta_posterior(meta, stream)
        assert isinstance(prior, GaussianDiagPrior)
        np.testing.assert_allclose(prior.mu, [0.25, -0.5], atol=1e-8)
        assert prior.sigma_0 == 0.1

    def test_gaussian_sampling_variance(self):
        meta = GaussianDiagState(
            mu=np.zeros(1), var=np.array([0.25]), sigma_0=0.1, sigma=1.0
        )
        stream = derive_stream(9, 0, 2, 0)
        draws = np.array(
            [sample_meta_posterior(meta, stream).mu[0] for _ in range(100_000)]
        )
        assert abs(draws.var() - 0.25) < 0.005
        assert abs(draws.mean()) < 0.01

    def test_linear_sampling_covariance(self):
        # Lambda = diag(4, 25) -> theta_0 samples have covariance diag(1/4, 1/25).
        features = np.array([[0.1, 0.2], [0.3, -0.1]])
        meta = LinearState(
            mu=np.array([0.5, -0.2]),
            Lambda=np.diag([4.0, 25.0]),
            Sigma=0.01 * np.eye(2),
            sigma=1.0,
            features=features,
        )
        stream = derive_stream(9, 0, 3, 0)
        draws = np.array(
            [sample_meta_posterior(meta, stream).theta_0 for _ in range(50_000)]
        )
        np.testing.assert_allclose(draws.mean(axis=0), [0.5, -0.2], atol=0.01)
        np.testing.assert_allclose(
            np.cov(draws.T), np.diag([0.25, 0.04]), atol=0.005
        )
        out = sample_meta_posterior(meta, stream)
        assert out.features is features or np.array_equal(out.features, features)

    def test_wrong_type(self):
        with pytest.raises(TypeError, match="not a meta posterior"):
            sample_meta_posterior(object(), derive_stream(0, 0, 0, 0))
