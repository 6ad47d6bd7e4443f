"""Generative hierarchy for meta-bandit simulation.

Three levels: a meta-prior over instance priors, an instance prior over arm
means, and per-round stochastic rewards. A task instance is the (K,) array
of its arm means, and its rewards take the noise model from the prior that
drew it. Three conjugate families are
supported: Bernoulli arms under Beta-product priors chosen from a categorical
meta-prior, Gaussian arms under diagonal-Gaussian priors, and linear bandits
whose arm means are a fixed feature matrix times a latent parameter vector.

A meta-prior is the meta-posterior at zero tasks, so one class per family
holds both: CategoricalWeights, GaussianDiagState and LinearState. The meta
updates in posteriors refine these states task by task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BetaProductPrior",
    "GaussianDiagPrior",
    "LinearGaussianPrior",
    "CategoricalWeights",
    "check_weights",
    "GaussianDiagState",
    "LinearState",
    "sample_instance_prior",
    "sample_task_instance",
    "reward_table",
]


def _as_vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be a nonempty finite vector")
    return v


def _width(value, name: str) -> float:
    """A width (sigma_0, or the reward noise sigma) as a float: > 0 with a
    finite square, so the conjugate updates can divide by it."""
    w = float(value)
    if not (w > 0.0 and w * w < math.inf):
        raise ValueError(f"{name} must be > 0 with a finite square, got {w!r}")
    return w


def check_weights(weights: np.ndarray, name: str = "weights") -> None:
    """The one rule for categorical weights (a float64 array), config and state
    alike: nonnegative (NaN is not), numpy's pairwise sum within 1e-9 of 1."""
    if not (np.all(weights >= 0.0) and abs(float(weights.sum()) - 1.0) <= 1e-9):
        raise ValueError(f"{name} must be nonnegative and sum to 1 within 1e-9")


def _check_spd(mat, name: str, *, allow_semidefinite: bool = False) -> np.ndarray:
    """Validate a symmetric (semi)definite matrix; returns it as an array."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-12:
        raise ValueError(f"{name} must be symmetric within 1e-12")
    eps = -1e-12 * max(1.0, float(np.max(np.abs(m))))
    if allow_semidefinite:
        if np.min(np.linalg.eigvalsh(m)) < eps:
            raise ValueError(f"{name} must be positive semi-definite")
    else:
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError(f"{name} must be positive-definite") from None
    return m


@dataclass
class BetaProductPrior:
    """Independent Beta(alpha_i, beta_i) prior per arm."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = _as_vector(self.alpha, "alpha")
        self.beta = _as_vector(self.beta, "beta")
        if self.alpha.shape != self.beta.shape:
            raise ValueError("alpha and beta must have equal length")
        if np.any(self.alpha <= 0.0) or np.any(self.beta <= 0.0):
            raise ValueError("Beta shapes must be strictly positive")

    @property
    def num_arms(self) -> int:
        return self.alpha.size


@dataclass
class GaussianDiagPrior:
    """N(mu_i, sigma_0^2) prior per arm, shared width sigma_0; sigma is the
    reward noise of the instances it draws."""

    mu: np.ndarray
    sigma_0: float
    sigma: float

    def __post_init__(self):
        self.mu = _as_vector(self.mu, "mu")
        self.sigma_0 = _width(self.sigma_0, "sigma_0")
        self.sigma = _width(self.sigma, "sigma")
        # A task posterior's variance is largest at zero pulls, so this bounds
        # every round's Thompson draw.
        kappa = self.sigma**2 / self.sigma_0**2
        if not (kappa > 0.0 and self.sigma**2 / kappa < math.inf):
            raise ValueError(
                "the zero-pull variance sigma**2 / (sigma**2 / sigma_0**2) must be "
                f"finite; got sigma={self.sigma!r}, sigma_0={self.sigma_0!r}"
            )

    @property
    def num_arms(self) -> int:
        return self.mu.size


@dataclass
class LinearGaussianPrior:
    """Latent parameter theta ~ N(theta_0, Sigma); arm means are X @ theta,
    observed with reward noise sigma."""

    theta_0: np.ndarray
    Sigma: np.ndarray
    features: np.ndarray
    sigma: float

    def __post_init__(self):
        self.theta_0 = _as_vector(self.theta_0, "theta_0")
        self.sigma = _width(self.sigma, "sigma")
        # Semidefinite allowed: a zero covariance is the degenerate point prior.
        self.Sigma = _check_spd(self.Sigma, "Sigma", allow_semidefinite=True)
        self.features = np.asarray(self.features, dtype=float)
        d = self.theta_0.size
        if self.Sigma.shape != (d, d):
            raise ValueError("Sigma shape must match theta_0 dimension")
        if self.features.ndim != 2 or self.features.shape[1] != d:
            raise ValueError("features must be a K x d matrix")

    @property
    def num_arms(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.theta_0.size


@dataclass
class CategoricalWeights:
    """Weights over a finite set of candidate Beta-product priors.

    The categorical meta-prior is this state at zero tasks; each completed
    task reweights the candidates by their evidence.
    """

    weights: np.ndarray
    priors: tuple

    def __post_init__(self):
        self.weights = _as_vector(self.weights, "weights")
        self.priors = tuple(self.priors)
        if self.weights.size != len(self.priors):
            raise ValueError("need one weight per candidate prior")
        check_weights(self.weights)
        arms = {p.num_arms for p in self.priors}
        if len(arms) != 1:
            raise ValueError("all candidate priors must share the arm count")


@dataclass
class GaussianDiagState:
    """Gaussian state over per-arm prior means, diagonal covariance.

    The meta-prior N(0, sigma_q^2 I_K) is this state at zero tasks (mu = 0,
    var = sigma_q^2). sigma_0 is the known width of the instance priors it
    ranges over, sigma the reward noise its updates assume and the priors it
    draws carry.
    """

    mu: np.ndarray
    var: np.ndarray
    sigma_0: float
    sigma: float

    def __post_init__(self):
        self.mu = _as_vector(self.mu, "mu")
        self.var = np.asarray(self.var, dtype=float)
        if self.mu.shape != self.var.shape:
            raise ValueError("mu and var must have equal length")
        if not np.all((self.var > 0.0) & (self.var < math.inf)):
            raise ValueError("meta variances must be > 0 and finite")
        self.sigma_0 = _width(self.sigma_0, "sigma_0")
        self.sigma = _width(self.sigma, "sigma")


@dataclass
class LinearState:
    """Gaussian state N(mu, Lambda^-1) over the shared linear parameter theta_0.

    The meta-prior N(0, sigma_q^2 I_d) is this state at zero tasks (mu = 0,
    Lambda = I / sigma_q^2). Sigma is the known task covariance, sigma the
    reward noise and features the run's K x d arm features.
    """

    mu: np.ndarray
    Lambda: np.ndarray
    Sigma: np.ndarray
    sigma: float
    features: np.ndarray

    def __post_init__(self):
        self.mu = _as_vector(self.mu, "mu")
        self.Lambda = _check_spd(self.Lambda, "Lambda")
        self.Sigma = _check_spd(self.Sigma, "Sigma")
        self.sigma = _width(self.sigma, "sigma")
        self.features = np.asarray(self.features, dtype=float)
        d = self.mu.size
        if self.Lambda.shape != (d, d) or self.Sigma.shape != (d, d):
            raise ValueError("Lambda and Sigma must be d x d")
        if self.features.ndim != 2 or self.features.shape[1] != d:
            raise ValueError("features must be a K x d matrix")


def sample_instance_prior(meta, stream: np.random.Generator):
    """Draw one instance prior from the meta-prior (a meta-state at zero tasks)."""
    if isinstance(meta, LinearState):
        cov = np.linalg.inv(meta.Lambda)
        theta_0 = meta.mu + _sample_mvn_zero(cov, stream)
        return LinearGaussianPrior(theta_0, meta.Sigma, meta.features, meta.sigma)
    return _sample_prior(meta, stream)


def _sample_prior(meta, stream: np.random.Generator):
    """One instance prior from a categorical or Gaussian meta-state.

    Shared by the true-prior draw and MetaTS's meta-posterior sample; the two
    linear draws differ in bits and stay with their callers.
    """
    if isinstance(meta, CategoricalWeights):
        # Inverse CDF on one uniform; the last bucket absorbs rounding slack.
        w = meta.weights
        j = int(np.searchsorted(np.cumsum(w), stream.random() * float(w.sum()), side="right"))
        return meta.priors[min(j, w.size - 1)]
    if isinstance(meta, GaussianDiagState):
        mu = stream.normal(meta.mu, np.sqrt(meta.var))
        return GaussianDiagPrior(mu, meta.sigma_0, meta.sigma)
    raise TypeError(f"not a meta posterior: {type(meta).__name__}")


def _sample_mvn_zero(cov: np.ndarray, stream: np.random.Generator) -> np.ndarray:
    """Zero-mean multivariate normal draw; tolerates semidefinite covariance."""
    z = stream.normal(0.0, 1.0, size=cov.shape[0])
    try:
        root = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return root @ z


def sample_task_instance(prior, stream: np.random.Generator) -> np.ndarray:
    """Draw one task instance from an instance prior: its (K,) arm means."""
    if isinstance(prior, BetaProductPrior):
        return stream.beta(prior.alpha, prior.beta)
    if isinstance(prior, GaussianDiagPrior):
        return stream.normal(prior.mu, prior.sigma_0)
    if isinstance(prior, LinearGaussianPrior):
        return prior.features @ (prior.theta_0 + _sample_mvn_zero(prior.Sigma, stream))
    raise TypeError(f"not an instance prior: {type(prior).__name__}")


def reward_table(
    prior, theta: np.ndarray, horizon: int, stream: np.random.Generator
) -> np.ndarray:
    """Pre-draw the full horizon x K reward matrix for one task.

    theta holds the task's arm means, drawn from prior. Row t holds the
    rewards every arm would have paid in round t: Bernoulli(theta) under a
    Beta-product prior, theta plus N(0, sigma^2) noise of the prior's sigma
    otherwise. Drawing the whole matrix from one agent-independent stream is
    what lets all compared agents face common random numbers.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    theta = _as_vector(theta, "theta")
    if theta.size != prior.num_arms:
        raise ValueError(
            f"theta needs one mean per arm of the prior ({prior.num_arms}), got {theta.size}"
        )
    if isinstance(prior, BetaProductPrior):
        if np.any(theta < 0.0) or np.any(theta > 1.0):
            raise ValueError("Bernoulli arm means must lie in [0, 1]")
        return (stream.random((horizon, theta.size)) < theta).astype(float)
    return theta + prior.sigma * stream.standard_normal((horizon, theta.size))
