"""Conjugate posterior state: within-task updates and per-family meta updates.

Within a task the agent holds a task posterior updated after every reward.
The Bernoulli and Gaussian ones play a task's drawn rounds in one call,
``play(gen, rows)``: each round pulls the first arm of largest Thompson
sample and folds its reward from the round's row into the state in place.
The step API (sample_task_posterior, update_task_posterior) uses one-round
methods with the same bits: ``noise(gen, rounds)`` draws the Thompson noise
of that many rounds, ``thompson(noise_row)`` turns one round's noise into a
sample of the arm means, and ``absorb(arm, reward)`` folds one observation
into the state. Linear tasks are played through play_linear, which runs the
same round math for many (run, agent) pairs at once.

Across tasks the agent holds a meta-posterior over instance priors, updated
exactly once per completed task from the task's full interaction log. A
TaskLog holds that log as two arrays, the pulled arms and their rewards, and
the meta updates read it through array reductions: pull counts, canonical
per-arm reward sums and, for Bernoulli logs, success counts. Its
classes (CategoricalWeights, GaussianDiagState, LinearState) live in envs,
because the meta-prior is the same state at zero tasks, and are re-exported
here. Meta updates are pure: they return new state objects and never mutate
their inputs, so one zero-task state can start many agents.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .envs import (
    BetaProductPrior,
    CategoricalWeights,
    GaussianDiagPrior,
    GaussianDiagState,
    LinearGaussianPrior,
    LinearState,
    _sample_prior,
)
from .special import log_gamma

__all__ = [
    "NumericalError",
    "TaskLog",
    "BetaCounts",
    "GaussianArms",
    "LinearGaussianPosterior",
    "linear_thompson",
    "play_linear",
    "CategoricalWeights",
    "GaussianDiagState",
    "LinearState",
    "init_task_posterior",
    "update_task_posterior",
    "sample_task_posterior",
    "categorical_log_evidence",
    "stacked_log_evidence",
    "update_meta_posterior_categorical",
    "update_meta_posterior_gaussian",
    "update_meta_posterior_linear",
    "sample_meta_posterior",
]

WEIGHT_FLOOR = 1e-300
PIVOT_FLOOR = 1e-12


class NumericalError(RuntimeError):
    """A linear solve was refused because the system is numerically singular."""


def _spd_factor(mat: np.ndarray, context: str) -> np.ndarray:
    """Cholesky factor of an SPD matrix, or of each matrix of a (R, d, d) stack.

    An explicit pivot floor replaces silent regularization. The floor is
    PIVOT_FLOOR times each matrix's largest pivot, so it bounds conditioning,
    not scale. Cholesky passes NaNs through without raising, so the floor
    check is written to fail on a NaN pivot too.
    """
    try:
        lower = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        problem = "matrix is not positive-definite"
    else:
        pivots = lower.diagonal(0, -2, -1)
        # Passing stack-wide implies passing per matrix, and is cheaper.
        if pivots.min() >= PIVOT_FLOOR * pivots.max() or np.all(
            pivots.min(axis=-1) >= PIVOT_FLOOR * pivots.max(axis=-1)
        ):
            return lower
        problem = f"Cholesky pivot below {PIVOT_FLOOR:g} of the largest pivot"
    try:
        cond = float(np.max(np.linalg.cond(mat)))
    except np.linalg.LinAlgError:  # the SVD of a NaN matrix does not converge
        cond = math.nan
    raise NumericalError(f"{context}: {problem} (condition number {cond:.3e})")


def _spd_solve(mat: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    lower = _spd_factor(mat, context)
    return np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))


@dataclass(eq=False)
class TaskLog:
    """Interaction record of one task: the pulled arms and their rewards, in
    round order, as a 1-D int array and a 1-D float array, plus per-arm
    summaries. Built once from whole arrays; every arm is checked against K."""

    num_arms: int
    arms: np.ndarray = ()
    rewards: np.ndarray = ()

    def __post_init__(self):
        self.arms = np.asarray(self.arms, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.arms.ndim != 1 or self.arms.shape != self.rewards.shape:
            raise ValueError(
                f"a task log needs one reward per arm; got arms of shape "
                f"{self.arms.shape} and rewards of shape {self.rewards.shape}"
            )
        # One max over the unsigned view checks both ends (a negative arm
        # reads as a huge one) and makes no temporary, however long the log.
        if self.arms.size and self.arms.view(np.uint64).max() >= self.num_arms:
            bad = int(self.arms[(self.arms < 0) | (self.arms >= self.num_arms)][0])
            raise ValueError(f"arm {bad} out of range for K={self.num_arms}")

    def __len__(self) -> int:
        return len(self.arms)

    @property
    def pull_counts(self) -> np.ndarray:
        return np.bincount(self.arms, minlength=self.num_arms).astype(float)

    @property
    def reward_sums(self) -> np.ndarray:
        # Summation in a canonical order (by arm, then value) so that permuting
        # rounds cannot change the result by even one ulp.
        arms, rewards = self.arms, self.rewards
        order = np.lexsort((rewards, arms))
        return np.bincount(
            arms[order], weights=rewards[order], minlength=self.num_arms
        ).astype(float)

    @property
    def positive_counts(self) -> np.ndarray:
        """Per-arm count of reward 1 (Bernoulli logs)."""
        binary = (self.rewards == 0.0) | (self.rewards == 1.0)
        if not binary.all():
            bad = float(self.rewards[~binary][0])
            raise ValueError(f"non-binary reward {bad!r} in a Bernoulli log")
        return self.reward_sums

    @property
    def negative_counts(self) -> np.ndarray:
        """Per-arm count of reward 0 (Bernoulli logs)."""
        return self.pull_counts - self.positive_counts


# ---------------------------------------------------------------------------
# Within-task posteriors


@dataclass
class BetaCounts:
    """Beta posterior shapes per arm, as lists of floats updated in place.

    Beta draws use rejection sampling, so their noise cannot be drawn ahead:
    the noise of every round is the generator itself, and one round draws
    one scalar Beta per arm in arm order (bit-identical to one array call).
    """

    alpha: list
    beta: list

    def noise(self, gen: np.random.Generator, rounds: int) -> list:
        return [gen] * rounds

    def thompson(self, gen: np.random.Generator) -> list:
        return [gen.beta(a, b) for a, b in zip(self.alpha, self.beta)]

    def absorb(self, arm: int, reward: float) -> None:
        if reward not in (0.0, 1.0):
            raise ValueError(f"Bernoulli reward must be 0 or 1, got {reward!r}")
        self.alpha[arm] += reward
        self.beta[arm] += 1.0 - reward

    def play(self, gen: np.random.Generator, rows: list) -> list:
        """thompson, first maximum and absorb for one round per reward row."""
        alpha, beta, draw = self.alpha, self.beta, gen.beta
        rest, arms = range(1, len(alpha)), []
        pull = arms.append
        for row in rows:
            arm, top = 0, draw(alpha[0], beta[0])
            for k in rest:
                x = draw(alpha[k], beta[k])
                if x > top:
                    arm, top = k, x
            reward = row[arm]
            if reward not in (0.0, 1.0):
                raise ValueError(f"Bernoulli reward must be 0 or 1, got {reward!r}")
            alpha[arm] += reward
            beta[arm] += 1.0 - reward
            pull(arm)
        return arms


@dataclass
class GaussianArms:
    """Normal-normal posterior per arm with known observation noise.

    Stores sufficient statistics (lists of floats, updated in place); mean
    and variance are evaluated in closed form, so the variance after N pulls
    is exactly sigma^2/(sigma^2/sigma_0^2 + N).
    """

    prior_mu: list
    sigma_0: float
    sigma: float
    pulls: list
    sums: list

    @property
    def variance(self) -> np.ndarray:
        return self.sigma**2 / (self.sigma**2 / self.sigma_0**2 + np.asarray(self.pulls))

    @property
    def mean(self) -> np.ndarray:
        v = self.variance
        mu = np.asarray(self.prior_mu)
        return v * (mu / self.sigma_0**2 + np.asarray(self.sums) / self.sigma**2)

    def noise(self, gen: np.random.Generator, rounds: int) -> list:
        # Row t holds exactly the normals gen.normal(mean, sqrt(var)) would
        # consume in round t, and numpy computes that draw as mean + sqrt(var) * z.
        return gen.standard_normal((rounds, len(self.prior_mu))).tolist()

    def _arm_terms(self):
        """k -> (mean, sd) of arm k's Thompson draw, read from the live statistics."""
        s2 = self.sigma**2
        s02 = self.sigma_0**2
        kappa = s2 / s02
        prior_mu, pulls, sums = self.prior_mu, self.pulls, self.sums

        def terms(k: int) -> tuple:
            v = s2 / (kappa + pulls[k])
            return v * (prior_mu[k] / s02 + sums[k] / s2), math.sqrt(v)

        return terms

    def thompson(self, z) -> list:
        terms = self._arm_terms()
        return [mean + sd * zk for (mean, sd), zk in zip(map(terms, range(len(z))), z)]

    def absorb(self, arm: int, reward: float) -> None:
        self.pulls[arm] += 1.0
        self.sums[arm] += reward

    def play(self, gen: np.random.Generator, rows: list) -> list:
        """thompson, first maximum and absorb for one round per reward row.

        Each arm's mean and sd are refreshed only when it is pulled.
        """
        num_arms = len(self.prior_mu)
        z = self.noise(gen, len(rows))
        terms = self._arm_terms()
        mean, sd = map(list, zip(*map(terms, range(num_arms))))
        pulls, sums = self.pulls, self.sums
        rest, arms = range(1, num_arms), []
        pull = arms.append
        for row, zr in zip(rows, z):
            arm, top = 0, mean[0] + sd[0] * zr[0]
            for k in rest:
                x = mean[k] + sd[k] * zr[k]
                if x > top:
                    arm, top = k, x
            pulls[arm] += 1.0
            sums[arm] += row[arm]
            mean[arm], sd[arm] = terms(arm)
            pull(arm)
        return arms


@dataclass
class LinearGaussianPosterior:
    """Gaussian posterior over the latent parameter of a linear bandit.

    Its round methods are the one-pair case of the stacked round math
    (linear_thompson, linear_absorb) that play_linear runs for many pairs.
    """

    precision: np.ndarray
    info: np.ndarray  # precision @ mean
    sigma: float
    features: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        return _spd_solve(self.precision, self.info, "linear task posterior mean")

    def noise(self, gen: np.random.Generator, rounds: int) -> np.ndarray:
        return gen.normal(0.0, 1.0, size=(rounds, self.info.size))

    def thompson(self, z) -> list:
        draw = linear_thompson(
            self.precision[None], self.info[None], self.features[None], np.asarray(z)[None]
        )
        return draw[0].tolist()

    def absorb(self, arm: int, reward: float) -> None:
        linear_absorb(
            self.precision[None],
            self.info[None],
            self.features[None, arm],
            np.array([reward]),
            np.array([self.sigma**2]),
        )


def linear_thompson(precision, info, features, z) -> np.ndarray:
    """Posterior samples of the arm means of R linear pairs, shape (R, K).

    precision is (R, d, d), info and the standard normal noise z are (R, d),
    features is (R, K, d). One stacked Cholesky and three stacked solves give
    the same bits as the per-matrix calls.
    """
    lower = _spd_factor(precision, "linear task posterior sampling")
    upper = np.swapaxes(lower, -1, -2)
    mean = np.linalg.solve(upper, np.linalg.solve(lower, info[..., None]))
    # precision = L L^T, so L^-T z has the posterior covariance.
    theta = mean + np.linalg.solve(upper, z[..., None])
    return (features @ theta)[..., 0]


def linear_absorb(precision, info, x, rewards, sigma2) -> None:
    """Fold one observation per pair into R linear posteriors, in place.

    x is the (R, d) feature row of each pair's arm; rewards and the noise
    variances sigma2 are (R,).
    """
    precision += x[:, :, None] * x[:, None, :] / sigma2[:, None, None]
    info += x * (rewards / sigma2)[:, None]


def play_linear(posts: list, noise: list, rewards: np.ndarray, free) -> np.ndarray:
    """Play n rounds of R linear tasks in lockstep; returns the arms, (R, n).

    posts are the pairs' task posteriors, updated in place. noise[r] holds
    pair r's Thompson noise, one row per drawn round, and rewards is the
    (R, n, K) stack of reward tables. Pair r draws its arm while t < free[r]
    and pulls arm t - free[r] after. Each round factors the precisions of the
    drawing pairs in one stacked call; every pair's arms, log and posterior
    equal those of playing it alone.
    """
    num_pairs, n, _ = rewards.shape
    precision = np.stack([p.precision for p in posts])
    info = np.stack([p.info for p in posts])
    features = np.stack([p.features for p in posts])
    sigma2 = np.array([p.sigma**2 for p in posts])
    z = np.zeros((num_pairs, n, info.shape[1]))
    for r, table in enumerate(noise):
        z[r, : len(table)] = table
    all_draw = min(free)
    free = np.asarray(free)
    pairs = np.arange(num_pairs)
    arms = np.empty((num_pairs, n), dtype=int)
    for t in range(n):
        if t < all_draw:
            arm = linear_thompson(precision, info, features, z[:, t]).argmax(axis=1)
        else:
            drawing = free > t
            arm = t - free
            if drawing.any():
                draw = linear_thompson(
                    precision[drawing], info[drawing], features[drawing], z[drawing, t]
                )
                arm[drawing] = draw.argmax(axis=1)
        arms[:, t] = arm
        linear_absorb(precision, info, features[pairs, arm], rewards[pairs, t, arm], sigma2)
    for r, post in enumerate(posts):
        post.precision, post.info = precision[r], info[r]
    return arms


_TASK_POSTERIORS = (BetaCounts, GaussianArms, LinearGaussianPosterior)


def init_task_posterior(prior):
    """Posterior at zero observations: the prior itself.

    Gaussian and linear posteriors assume the prior's reward noise sigma.
    The prior checked its parameters when it was built, also that the
    Gaussian zero-pull variance is finite.
    """
    if isinstance(prior, BetaProductPrior):
        return BetaCounts(alpha=prior.alpha.tolist(), beta=prior.beta.tolist())
    if isinstance(prior, GaussianDiagPrior):
        k = prior.num_arms
        return GaussianArms(
            prior_mu=prior.mu.tolist(),
            sigma_0=prior.sigma_0,
            sigma=prior.sigma,
            pulls=[0.0] * k,
            sums=[0.0] * k,
        )
    if isinstance(prior, LinearGaussianPrior):
        precision = _spd_solve(
            prior.Sigma, np.eye(prior.dim), "linear prior covariance inverse"
        )
        precision = 0.5 * (precision + precision.T)
        return LinearGaussianPosterior(
            precision=precision,
            info=precision @ prior.theta_0,
            sigma=prior.sigma,
            features=prior.features,
        )
    raise TypeError(f"not an instance prior: {type(prior).__name__}")


def _check_task_posterior(post) -> None:
    if not isinstance(post, _TASK_POSTERIORS):
        raise TypeError(f"not a task posterior: {type(post).__name__}")


def update_task_posterior(post, arm: int, reward: float):
    """Absorb one (arm, reward) observation; returns a new posterior."""
    _check_task_posterior(post)
    new = copy.deepcopy(post)
    new.absorb(arm, reward)
    return new


def sample_task_posterior(post, stream: np.random.Generator) -> np.ndarray:
    """One posterior sample of the arm-mean vector, with fresh noise from stream."""
    _check_task_posterior(post)
    return np.array(post.thompson(post.noise(stream, 1)[0]))


# ---------------------------------------------------------------------------
# Meta-posteriors


def categorical_log_evidence(prior: BetaProductPrior, log: TaskLog) -> float:
    """log of the marginal likelihood of a Bernoulli task log under one prior."""
    return float(stacked_log_evidence([prior], log)[0])


def stacked_log_evidence(priors, log: TaskLog) -> np.ndarray:
    """log marginal likelihoods of a Bernoulli task log under J priors, shape (J,).

    Product over arms of Beta-Binomial evidence, written with log-Gamma so the
    shapes may exceed the horizon without overflow. The six terms of all J
    candidates go through one log_gamma call; log_gamma is elementwise and a
    row sum equals np.sum of that row, so row j equals the J=1 case bit for bit.
    """
    a = np.stack([p.alpha for p in priors])
    b = np.stack([p.beta for p in priors])
    pos = log.positive_counts
    total = log.pull_counts
    lg = log_gamma(np.stack([a + b, a + pos, b + (total - pos), a, b, a + b + total]))
    return (lg[0] + lg[1] + lg[2] - lg[3] - lg[4] - lg[5]).sum(axis=-1)


def update_meta_posterior_categorical(
    meta: CategoricalWeights, log: TaskLog
) -> CategoricalWeights:
    """Reweight candidate priors by their evidence for the completed task."""
    with np.errstate(divide="ignore"):
        logw = np.log(meta.weights)
    logw = logw + stacked_log_evidence(meta.priors, log)
    logw -= np.max(logw[np.isfinite(logw)])
    w = np.exp(logw)
    w /= w.sum()
    w[w < WEIGHT_FLOOR] = 0.0
    w /= w.sum()
    return CategoricalWeights(weights=w, priors=meta.priors)


def update_meta_posterior_gaussian(
    meta: GaussianDiagState, log: TaskLog
) -> GaussianDiagState:
    """Per-arm precision-weighted update from one completed Gaussian task.

    An arm pulled T times with reward mean ybar contributes one effective
    observation of weight T/(T sigma_0^2 + sigma^2); unpulled arms keep their
    state bit-for-bit. Depends on the log only through (T, sum of rewards).
    """
    pulls = log.pull_counts
    sums = log.reward_sums
    pulled = pulls > 0
    t = pulls[pulled]
    weight = t / (t * meta.sigma_0**2 + meta.sigma**2)
    old_precision = 1.0 / meta.var[pulled]
    new_var = meta.var.copy()
    new_mu = meta.mu.copy()
    new_var[pulled] = 1.0 / (old_precision + weight)
    ybar = sums[pulled] / t
    new_mu[pulled] = new_var[pulled] * (
        meta.mu[pulled] * old_precision + ybar * weight
    )
    return replace(meta, mu=new_mu, var=new_var)


def update_meta_posterior_linear(meta: LinearState, log: TaskLog) -> LinearState:
    """Absorb one completed linear task into the meta-posterior.

    Solves only d x d systems via S_t = X_t^T X_t, c_t = X_t^T y_t (Woodbury);
    selftest checks it against the pull-count-sized direct solve.
    """
    if len(log) == 0:
        return meta
    x_rows = meta.features[log.arms]
    y = log.rewards
    sig2 = meta.sigma**2
    s_t = x_rows.T @ x_rows / sig2
    c_t = x_rows.T @ y / sig2
    sigma_inv = _spd_solve(
        meta.Sigma, np.eye(meta.Sigma.shape[0]), "task covariance inverse"
    )
    inner = sigma_inv + s_t
    correction = _spd_solve(
        inner, np.column_stack([s_t, c_t]), "linear meta update (woodbury)"
    )
    lam_new = meta.Lambda + s_t - s_t @ correction[:, :-1]
    rhs = meta.Lambda @ meta.mu + c_t - s_t @ correction[:, -1]
    lam_new = 0.5 * (lam_new + lam_new.T)
    mu_new = _spd_solve(lam_new, rhs, "linear meta posterior mean")
    return replace(meta, mu=mu_new, Lambda=lam_new)


def sample_meta_posterior(meta, stream: np.random.Generator):
    """Draw one instance prior from the current meta-posterior."""
    if isinstance(meta, LinearState):
        lower = _spd_factor(meta.Lambda, "linear meta posterior sampling")
        z = stream.normal(0.0, 1.0, size=meta.mu.size)
        theta_0 = meta.mu + np.linalg.solve(lower.T, z)
        return LinearGaussianPrior(theta_0, meta.Sigma, meta.features, meta.sigma)
    return _sample_prior(meta, stream)
