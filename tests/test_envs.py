"""Generative hierarchy: meta-priors, instance priors, instances, rewards."""

from dataclasses import replace

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
    LinearState,
    reward_table,
    sample_instance_prior,
    sample_task_instance,
)
from metats.harness import check_widths
from metats import envs
from metats.posteriors import (
    TaskLog,
    _spd_solve,
    sample_meta_posterior,
    update_meta_posterior_categorical,
)
from metats.rng import derive_stream


def beta_pair():
    return (
        BetaProductPrior(alpha=np.array([6.0, 2.0]), beta=np.array([2.0, 6.0])),
        BetaProductPrior(alpha=np.array([2.0, 6.0]), beta=np.array([6.0, 2.0])),
    )


def gaussian_meta(sigma_q=0.5, num_arms=2, sigma_0=0.1):
    """The Gaussian meta-prior N(0, sigma_q^2 I): the meta-state at zero tasks."""
    return GaussianDiagState(
        mu=np.zeros(num_arms), var=np.full(num_arms, sigma_q**2), sigma_0=sigma_0, sigma=1.0
    )


def test_categorical_meta_prior_validation():
    p1, p2 = beta_pair()
    with pytest.raises(ValueError, match="sum to 1"):
        CategoricalWeights(weights=np.array([0.7, 0.4]), priors=(p1, p2))
    with pytest.raises(ValueError, match="nonnegative"):
        CategoricalWeights(weights=np.array([1.2, -0.2]), priors=(p1, p2))
    with pytest.raises(ValueError, match="need one weight per candidate prior"):
        CategoricalWeights(weights=np.array([1.0]), priors=(p1, p2))
    with pytest.raises(ValueError, match="nonempty finite vector"):
        CategoricalWeights(weights=np.array([np.nan, 1.0]), priors=(p1, p2))
    three = BetaProductPrior(alpha=np.ones(3), beta=np.ones(3))
    with pytest.raises(ValueError, match="share the arm count"):
        CategoricalWeights(weights=np.array([0.5, 0.5]), priors=(p1, three))


def test_beta_prior_validation():
    with pytest.raises(ValueError):
        BetaProductPrior(alpha=np.array([0.0, 1.0]), beta=np.array([1.0, 1.0]))


def test_gaussian_prior_validation():
    with pytest.raises(ValueError):
        GaussianDiagPrior(mu=np.zeros(2), sigma_0=0.0, sigma=1.0)
    with pytest.raises(ValueError, match="meta variances must be > 0"):
        gaussian_meta(sigma_q=0.0)
    with pytest.raises(ValueError, match="sigma_0 must be > 0"):
        gaussian_meta(sigma_0=0.0)
    with pytest.raises(ValueError, match="nonempty"):
        gaussian_meta(num_arms=0)


ZERO_PULL = "zero-pull variance .* got sigma=.*, sigma_0="


@pytest.mark.parametrize("width", [1e200, np.inf, np.nan, -1.0, 1e-160, 1e-170])
def test_gaussian_widths_checked_where_held(width):
    # Draws take their scales unchecked, so the priors and the states refuse
    # a width or a reward noise whose square is not finite, and the Gaussian
    # state a variance that is not finite, when built. A NaN sigma used to
    # give all-NaN reward tables.
    if 0.0 < width < 1.0:
        _check_underflowing_width(width)
        return
    with pytest.raises(ValueError, match="sigma_0 must be > 0 with a finite square"):
        GaussianDiagPrior(mu=np.zeros(2), sigma_0=width, sigma=1.0)
    with pytest.raises(ValueError, match="sigma_0 must be > 0 with a finite square"):
        gaussian_meta(sigma_0=width)
    holders = (
        lambda: GaussianDiagPrior(mu=np.zeros(2), sigma_0=0.1, sigma=width),
        lambda: GaussianDiagState(mu=np.zeros(2), var=np.full(2, 0.25), sigma_0=0.1, sigma=width),
        lambda: LinearGaussianPrior(np.zeros(2), np.eye(2), np.eye(2), width),
        lambda: LinearState(np.zeros(2), np.eye(2), np.eye(2), width, np.eye(2)),
    )
    for build in holders:
        with pytest.raises(ValueError, match="^sigma must be > 0 with a finite square"):
            build()
    if not width > 0.0:
        return
    with pytest.raises(ValueError, match="meta variances must be > 0 and finite"):
        GaussianDiagState(mu=np.zeros(2), var=[0.25, width * width], sigma_0=0.1, sigma=1.0)


def _check_underflowing_width(width):
    # A width whose square is subnormal (1e-160) or 0 (1e-170) is refused by
    # ExperimentConfig, and now where it is held too. It used to build: a
    # Gaussian prior of that sigma_0 sampled [nan, nan] or divided by zero,
    # a Gaussian state did so at its first meta sample, and a linear prior of
    # that sigma stopped play with "condition number nan". The Gaussian
    # holders report it through the sigma**2 / sigma_0**2 rule.
    for widths in ((1.0, width, 0.5), (width, 0.1, 0.5)):
        with pytest.raises(ValueError):
            check_widths(*widths)
    gaussian = (
        lambda: GaussianDiagPrior(mu=[0.3, -0.2], sigma_0=width, sigma=1.0),
        lambda: gaussian_meta(sigma_0=width),
        lambda: GaussianDiagPrior(mu=np.zeros(2), sigma_0=0.1, sigma=width),
        lambda: GaussianDiagState(mu=np.zeros(2), var=np.full(2, 0.25), sigma_0=0.1, sigma=width),
    )
    for build in gaussian:
        with pytest.raises(ValueError, match=ZERO_PULL):
            build()
    for build in (
        lambda: LinearGaussianPrior(np.zeros(2), np.eye(2), np.eye(2), width),
        lambda: LinearState(np.zeros(2), np.eye(2), np.eye(2), width, np.eye(2)),
    ):
        with pytest.raises(ValueError, match="^sigma must be > 0 with a finite square"):
            build()


def linear_meta(Lambda, Sigma=np.eye(2)):
    return LinearState(
        mu=np.zeros(2), Lambda=Lambda, Sigma=Sigma, sigma=1.0, features=np.zeros((3, 2))
    )


def test_linear_meta_prior_requires_spd():
    with pytest.raises(ValueError, match="Lambda must be positive-definite"):
        linear_meta(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError, match="Lambda must be symmetric"):
        linear_meta(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError, match="Sigma must be positive-definite"):
        linear_meta(np.eye(2), Sigma=np.ones((2, 2)))  # singular
    with pytest.raises(ValueError, match="features must be a K x d matrix"):
        LinearState(
            mu=np.zeros(2), Lambda=np.eye(2), Sigma=np.eye(2), sigma=1.0, features=np.zeros(3)
        )


def test_pivot_floor_refused_when_built():
    # Positive-definite, but a pivot 3.2e-13 of the largest: refused by name.
    skewed = np.diag([1.0, 1e-25])
    floor = "must have no Cholesky pivot below 1e-12 of its largest$"
    with pytest.raises(ValueError, match="^Lambda " + floor):
        linear_meta(skewed)
    with pytest.raises(ValueError, match="^Sigma " + floor):
        linear_meta(np.eye(2), Sigma=skewed)
    with pytest.raises(ValueError, match="^Sigma " + floor):
        LinearGaussianPrior(np.zeros(2), skewed, np.eye(2), 1.0)


def test_linear_shapes_refused_before_factoring(monkeypatch):
    # A Sigma or Lambda of the wrong shape, an empty one too, is refused by
    # name before anything is factored.
    factored = []

    def counted(mat, _fn=envs._cholesky):
        factored.append(mat.shape)
        return _fn(mat)

    monkeypatch.setattr(envs, "_cholesky", counted)
    shape = r"^{} must be d x d at d = {}, got shape \({}, {}\)$"
    with pytest.raises(ValueError, match=shape.format("Sigma", 1, 0, 0)):
        LinearGaussianPrior([0.0], np.zeros((0, 0)), [[1.0]], 1.0)
    with pytest.raises(ValueError, match=shape.format("Sigma", 2, 3, 3)):
        LinearGaussianPrior(np.zeros(2), np.eye(3), np.eye(2), 1.0)
    with pytest.raises(ValueError, match=shape.format("Lambda", 1, 0, 0)):
        LinearState([0.0], np.zeros((0, 0)), [[1.0]], 1.0, [[1.0]])
    assert factored == []
    with pytest.raises(ValueError, match=shape.format("Sigma", 1, 0, 0)):
        LinearState([0.0], [[1.0]], np.zeros((0, 0)), 1.0, [[1.0]])
    assert factored == [(1, 1)]  # Lambda's


def test_replace_recomputes_cached_factors_and_terms():
    # A state made by replace() holds the cached terms of its own matrices
    # and priors, as one built afresh; the meta-update hands the terms on.
    p1, p2 = beta_pair()
    c = BetaProductPrior(alpha=np.array([1.0, 9.0]), beta=np.array([9.0, 1.0]))
    d = BetaProductPrior(alpha=np.array([9.0, 1.0]), beta=np.array([1.0, 9.0]))
    log = TaskLog(2, [0, 1, 1], [1.0, 0.0, 1.0])
    meta = CategoricalWeights(weights=np.array([0.5, 0.5]), priors=(p1, p2))
    fresh = CategoricalWeights(weights=np.array([0.5, 0.5]), priors=(c, d))
    replaced = update_meta_posterior_categorical(replace(meta, priors=(c, d)), log)
    updated = update_meta_posterior_categorical(fresh, log)
    assert replaced.weights.tobytes() == updated.weights.tobytes()
    assert updated._terms is fresh._terms
    Lambda, Sigma = np.diag([4.0, 2.0]), np.diag([4.0, 9.0])
    state = replace(linear_meta(np.eye(2)), Lambda=Lambda, Sigma=Sigma)
    assert state._lambda_lower.tobytes() == np.linalg.cholesky(Lambda).tobytes()
    assert state._sigma_inv.tobytes() == _spd_solve(Sigma, np.eye(2), "inverse").tobytes()


SIGMAS = [
    np.eye(2),
    np.array([[0.04, 0.01], [0.01, 0.09]]),
    np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]]),
    np.diag([1.0, 1e-25]),  # positive-definite, but a pivot 3.2e-13 of the largest
]


@pytest.mark.parametrize("Sigma", SIGMAS)
def test_sigma_is_factored_once_per_build(monkeypatch, Sigma):
    # The Cholesky factor that checks Sigma also solves Sigma^-1, with
    # _spd_solve's bits; a Sigma that fails the pivot floor is refused when
    # built, naming it.
    d, factored = len(Sigma), []
    for module, name in [(np.linalg, "cholesky"), (envs, "_cholesky")]:

        def counted(mat, _fn=getattr(module, name), **kwargs):
            factored.append(np.asarray(mat).tobytes() == Sigma.tobytes())
            return _fn(mat, **kwargs)

        monkeypatch.setattr(module, name, counted)
    if Sigma is SIGMAS[-1]:
        with pytest.raises(ValueError, match="^Sigma must have no Cholesky pivot below 1e-12"):
            LinearGaussianPrior(np.zeros(d), Sigma, np.eye(d), 1.0)
        with pytest.raises(ValueError, match="^Sigma must have no Cholesky pivot below 1e-12"):
            LinearState(np.zeros(d), 2.0 * np.eye(d), Sigma, 1.0, np.eye(d))
        assert factored == [True, False, True]
        return
    prior = LinearGaussianPrior(np.zeros(d), Sigma, np.eye(d), 1.0)
    state = LinearState(np.zeros(d), 2.0 * np.eye(d), Sigma, 1.0, np.eye(d))
    monkeypatch.undo()
    assert factored == [True, False, True]  # the prior's Sigma; the state's Lambda, Sigma
    for built in (prior, state):
        assert built._sigma_inv.tobytes() == _spd_solve(Sigma, np.eye(d), "inverse").tobytes()


def test_categorical_degenerate_weights_select_first():
    p1, p2 = beta_pair()
    meta = CategoricalWeights(weights=np.array([1.0, 0.0]), priors=(p1, p2))
    s = derive_stream(1, 0, 0)
    assert all(sample_instance_prior(meta, s) is p1 for _ in range(20))


def test_gaussian_meta_prior_variance():
    meta = gaussian_meta()
    s = derive_stream(2, 0, 0)
    mus = np.array([sample_instance_prior(meta, s).mu for _ in range(100_000)])
    assert np.all(np.abs(mus.var(axis=0, ddof=1) - 0.25) < 0.005)
    assert np.all(np.abs(mus.mean(axis=0)) < 0.01)


def test_linear_meta_prior_near_delta():
    meta = LinearState(
        mu=np.array([0.4, -0.2]),
        Lambda=1e9 * np.eye(2),
        Sigma=0.01 * np.eye(2),
        sigma=1.0,
        features=np.zeros((3, 2)),
    )
    s = derive_stream(3, 0, 0)
    prior = sample_instance_prior(meta, s)
    assert np.all(np.abs(prior.theta_0 - meta.mu) < 1e-3)


def test_beta_instance_mean():
    p1, _ = beta_pair()
    s = derive_stream(4, 0, 0)
    thetas = np.array([sample_task_instance(p1, s) for _ in range(100_000)])
    assert abs(thetas[:, 0].mean() - 0.75) < 0.005
    assert abs(thetas[:, 1].mean() - 0.25) < 0.005
    assert np.all((thetas >= 0.0) & (thetas <= 1.0))


def test_gaussian_instance_degenerate_width():
    prior = GaussianDiagPrior(mu=np.array([0.3, -0.1]), sigma_0=1e-9, sigma=1.0)
    s = derive_stream(5, 0, 0)
    theta = sample_task_instance(prior, s)
    assert np.all(np.abs(theta - prior.mu) < 1e-6)


def test_gaussian_marginal_consistency():
    # Composing the two sampling levels gives variance sigma_q^2 + sigma_0^2
    meta = gaussian_meta()
    s = derive_stream(7, 0, 0)
    n = 100_000
    thetas = np.empty((n, 2))
    for i in range(n):
        prior = sample_instance_prior(meta, s)
        thetas[i] = sample_task_instance(prior, s)
    target = 0.26
    stderr = target * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(thetas.var(axis=0, ddof=1) - target) < 3.0 * stderr)


def test_drawn_priors_and_instances_carry_the_state_noise():
    # A state's sigma reaches every prior drawn from it and, through the
    # prior, the rewards of the instances it draws; Bernoulli rewards have no
    # Gaussian noise.
    linear = LinearState(
        mu=np.zeros(2), Lambda=np.eye(2), Sigma=np.eye(2), sigma=2.0, features=np.eye(2)
    )
    gauss = GaussianDiagState(mu=np.zeros(2), var=np.full(2, 0.25), sigma_0=0.1, sigma=2.0)
    s = derive_stream(12, 0, 0)
    for meta in (gauss, linear):
        for draw in (sample_instance_prior, sample_meta_posterior):
            prior = draw(meta, s)
            assert prior.sigma == 2.0
            theta = sample_task_instance(prior, s)
            table = reward_table(prior, theta, 5, derive_stream(12, 0, 1))
            z = derive_stream(12, 0, 1).standard_normal((5, 2))
            assert table.tobytes() == (theta + 2.0 * z).tobytes()
    p1, _ = beta_pair()
    table = reward_table(p1, sample_task_instance(p1, s), 5, s)
    assert set(np.unique(table)) <= {0.0, 1.0}


@pytest.mark.parametrize(
    "sigma, sigma_0", [(1e-200, 1.0), (1e-100, 1e150), (1e150, 1e-150)]
)
def test_gaussian_prior_refuses_an_infinite_zero_pull_variance(sigma, sigma_0):
    # sigma**2 / sigma_0**2 underflows, so the task posterior's variance at
    # zero pulls, sigma**2 / (sigma**2 / sigma_0**2), is not finite; or it
    # overflows, and the prior's samples used to come out [0, -0]. The state
    # that draws such priors refuses the pair too, as ExperimentConfig does.
    with pytest.raises(ValueError, match="zero-pull variance .* got sigma=.*, sigma_0="):
        GaussianDiagPrior(mu=[0.0, 0.0], sigma_0=sigma_0, sigma=sigma)
    with pytest.raises(ValueError, match=ZERO_PULL):
        GaussianDiagState(mu=np.zeros(2), var=np.full(2, 0.25), sigma_0=sigma_0, sigma=sigma)
    with pytest.raises(ValueError):
        check_widths(sigma, sigma_0, 0.5)


def test_bernoulli_instance_validation():
    p1, _ = beta_pair()
    with pytest.raises(ValueError, match="Bernoulli arm means must lie in"):
        reward_table(p1, np.array([0.5, 1.2]), 3, derive_stream(8, 0, 0))
    with pytest.raises(ValueError, match="theta must be a nonempty finite vector"):
        reward_table(p1, np.array([0.5, np.nan]), 3, derive_stream(8, 0, 0))
    with pytest.raises(ValueError, match="theta needs one mean per arm"):
        reward_table(p1, np.array([0.5, 0.5, 0.5]), 3, derive_stream(8, 0, 0))


def test_bernoulli_rewards():
    p1, _ = beta_pair()
    table = reward_table(p1, np.array([1.0, 0.75]), 100_000, derive_stream(8, 0, 0))
    assert np.all(table[:, 0] == 1.0)
    assert set(np.unique(table)) <= {0.0, 1.0}
    assert abs(table[:, 1].mean() - 0.75) < 0.007


def unit_noise_prior():
    return GaussianDiagPrior(mu=np.zeros(2), sigma_0=1.0, sigma=1.0)


def test_gaussian_reward_noise():
    theta = np.array([0.2, 0.0])
    draws = reward_table(unit_noise_prior(), theta, 100_000, derive_stream(9, 0, 0))[:, 0]
    assert abs(draws.var(ddof=1) - 1.0) < 0.03
    assert abs(draws.mean() - 0.2) < 0.02


def test_reward_table_matches_family():
    table = reward_table(unit_noise_prior(), np.array([0.2, -0.3]), 50, derive_stream(10, 0, 0))
    assert table.shape == (50, 2)
    p1, _ = beta_pair()
    btable = reward_table(p1, np.array([0.0, 1.0]), 25, derive_stream(10, 0, 1))
    assert np.all(btable[:, 0] == 0.0) and np.all(btable[:, 1] == 1.0)


def test_reward_table_deterministic_in_stream():
    theta = np.array([0.2, -0.3])
    t1 = reward_table(unit_noise_prior(), theta, 20, derive_stream(11, 0, 0))
    t2 = reward_table(unit_noise_prior(), theta, 20, derive_stream(11, 0, 0))
    assert np.array_equal(t1, t2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sigma_q=st.floats(-150.0, 150.0).map(lambda e: 10.0**e),
    num_arms=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_gaussian_zero_state_draw_is_the_meta_prior_draw(sigma_q, num_arms, seed):
    # The zero-task state's draw, mean 0 and variance sigma_q^2 per arm, takes
    # the same normals with the same bits as N(0, sigma_q^2) of size K did;
    # the stream stands at the same place after it, and MetaTS's sample of the
    # same state is the same draw.
    meta = gaussian_meta(sigma_q=sigma_q, num_arms=num_arms)
    streams = [derive_stream(seed, 0, 0) for _ in range(3)]
    expected = streams[0].normal(0.0, np.sqrt(sigma_q**2), size=num_arms)
    for draw, stream in ((sample_instance_prior, streams[1]), (sample_meta_posterior, streams[2])):
        assert draw(meta, stream).mu.tobytes() == expected.tobytes()
    following = [stream.standard_normal() for stream in streams]
    assert following[1:] == following[:1] * 2


def test_categorical_meta_draws_agree():
    p1, p2 = beta_pair()
    meta = CategoricalWeights(weights=np.array([0.3, 0.7]), priors=(p1, p2))
    a, b = derive_stream(8, 0, 0), derive_stream(8, 0, 0)
    for _ in range(50):
        assert sample_instance_prior(meta, a) is sample_meta_posterior(meta, b)


# Beta shapes on both sides of 1: numpy draws Beta(a, b) by Johnk's
# algorithm when a <= 1 and b <= 1, and as a ratio of gamma draws otherwise.
SHAPES_AROUND_ONE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e) | st.sampled_from([1.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shapes=st.lists(st.tuples(SHAPES_AROUND_ONE, SHAPES_AROUND_ONE), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_beta_instance_is_the_array_draw(shapes, seed):
    # One scalar draw per arm gives the bits of one array call and leaves the
    # stream where the array call leaves it.
    prior = BetaProductPrior(alpha=[a for a, _ in shapes], beta=[b for _, b in shapes])
    scalar, array = derive_stream(seed, 0, 0), derive_stream(seed, 0, 0)
    theta = sample_task_instance(prior, scalar)
    expected = array.beta(prior.alpha, prior.beta)
    assert theta.dtype == expected.dtype and theta.tobytes() == expected.tobytes()
    assert scalar.random(4).tobytes() == array.random(4).tobytes()


def test_draw_from_a_non_state_raises():
    for draw in (sample_instance_prior, sample_meta_posterior):
        with pytest.raises(TypeError, match="not a meta posterior"):
            draw(object(), derive_stream(0, 0, 0))
