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
updates in posteriors refine these states task by task. Every linear Sigma
and Lambda passes one rule where it is built, _check_spd; a prior or state
keeps Sigma^-1 solved from the factor that checked it, a state Lambda's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field

import numpy as np

from .special import PIVOT_FLOOR, _cholesky, _pivots_pass, _solve, log_gamma

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
    if v.ndim != 1 or v.size == 0 or not np.isfinite(v).all():
        raise ValueError(f"{name} must be a nonempty finite vector")
    return v


def _normal_finite(x: float) -> bool:
    """x is a positive float that is neither subnormal nor infinite (NaN fails)."""
    return sys.float_info.min <= x < math.inf


def _normal_square(w: float) -> bool:
    """w > 0 with a normal finite square, so reciprocals of the square stay finite."""
    return w > 0.0 and _normal_finite(w * w)


def _prior_weight_ok(sigma: float, width: float) -> bool:
    """The sigma^2 / width^2 rule: a Gaussian prior's weight in pulls is a
    normal finite float, and the task-posterior variance at zero pulls, the
    largest it gets, is finite. NaN fails."""
    s2, w2 = sigma * sigma, width * width
    kappa = s2 / w2 if w2 > 0.0 else math.inf
    return _normal_finite(kappa) and s2 / kappa < math.inf


def _width(value, name: str) -> float:
    """A width (sigma_0, or the reward noise sigma) as a float: > 0 with a
    normal finite square, so the conjugate updates can divide by it."""
    w = float(value)
    if not _normal_square(w):
        raise ValueError(f"{name} must be > 0 with a finite square, not subnormal; got {w!r}")
    return w


def _gaussian_widths(sigma_0, sigma) -> tuple:
    """sigma_0 and sigma of a Gaussian prior or state: widths that pass the
    sigma^2 / sigma_0^2 rule. Where both squares are finite the rule comes
    first, so a square that underflows is reported with both widths."""
    sigma_0, sigma = float(sigma_0), float(sigma)
    finite = all(w > 0.0 and w * w < math.inf for w in (sigma_0, sigma))
    if finite and not _prior_weight_ok(sigma, sigma_0):
        raise ValueError(
            "sigma**2 / sigma_0**2 must be a normal finite float and the zero-pull variance "
            f"sigma**2 / (sigma**2 / sigma_0**2) finite; got sigma={sigma!r}, sigma_0={sigma_0!r}"
        )
    return _width(sigma_0, "sigma_0"), _width(sigma, "sigma")


def check_weights(weights: np.ndarray, name: str = "weights") -> None:
    """The one rule for categorical weights (a float64 array), config and state
    alike: nonnegative (NaN is not), numpy's pairwise sum within 1e-9 of 1."""
    if not ((weights >= 0.0).all() and abs(float(weights.sum()) - 1.0) <= 1e-9):
        raise ValueError(f"{name} must be nonnegative and sum to 1 within 1e-9")


def _check_spd(mat, name: str, d: int) -> tuple:
    """The one rule for a linear Sigma or Lambda: a finite symmetric d x d
    matrix (d >= 1) whose Cholesky factor passes the pivot floor. Returns it
    as an array, with that factor; a failure is a ValueError naming it."""
    m = np.asarray(mat, dtype=float)
    if m.shape != (d, d):
        raise ValueError(f"{name} must be d x d at d = {d}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    if np.max(np.abs(m - m.T)) > 1e-12:
        raise ValueError(f"{name} must be symmetric within 1e-12")
    with np.errstate(all="ignore"):
        lower = _cholesky(m)
    if np.isnan(lower).all():  # LAPACK refused it
        raise ValueError(f"{name} must be positive-definite")
    if not _pivots_pass(lower.diagonal()):
        raise ValueError(f"{name} must have no Cholesky pivot below {PIVOT_FLOOR:g} of its largest")
    return m, lower


def _inherit_sigma(obj, inverse, d: int) -> None:
    """Keep Sigma^-1 on a linear prior or state: one inherited with a checked
    Sigma, or solved here from the factor that checked Sigma."""
    if inverse is None:
        obj.Sigma, lower = _check_spd(obj.Sigma, "Sigma", d)
        with np.errstate(all="ignore"):
            inverse = _solve(lower.T, _solve(lower, np.eye(d)))
    obj._sigma_inv = inverse


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
        self.sigma_0, self.sigma = _gaussian_widths(self.sigma_0, self.sigma)

    @property
    def num_arms(self) -> int:
        return self.mu.size


@dataclass
class LinearGaussianPrior:
    """Latent parameter theta ~ N(theta_0, Sigma), Sigma positive-definite;
    arm means are X @ theta, observed with reward noise sigma. _sigma_inv is
    Sigma^-1 (_inherit_sigma), handed in by a MetaTS sample; replace() drops it."""

    theta_0: np.ndarray
    Sigma: np.ndarray
    features: np.ndarray
    sigma: float
    _inherited_inverse: InitVar[np.ndarray] = None
    _sigma_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, _inherited_inverse):
        self.theta_0 = _as_vector(self.theta_0, "theta_0")
        self.sigma = _width(self.sigma, "sigma")
        d = self.theta_0.size
        _inherit_sigma(self, _inherited_inverse, d)
        self.features = np.asarray(self.features, dtype=float)
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
    task reweights the candidates by their evidence. _terms, the count-free
    evidence terms (_candidate_terms), is computed when the first state of a
    candidate set is built and handed by the meta-update to every successor
    (_inherited_terms); replace() recomputes it.
    """

    weights: np.ndarray
    priors: tuple
    _inherited_terms: InitVar[np.ndarray] = None
    _terms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, _inherited_terms):
        self.weights = _as_vector(self.weights, "weights")
        self.priors = tuple(self.priors)
        if self.weights.size != len(self.priors):
            raise ValueError("need one weight per candidate prior")
        check_weights(self.weights)
        arms = {p.num_arms for p in self.priors}
        if len(arms) != 1:
            raise ValueError("all candidate priors must share the arm count")
        terms = _inherited_terms
        self._terms = _candidate_terms(self.priors) if terms is None else terms


def _candidate_terms(priors) -> np.ndarray:
    """Count-free evidence rows of J priors, (6, J, K): a, b, a+b, lgGamma of a+b, a, b."""
    a = np.stack([p.alpha for p in priors])
    b = np.stack([p.beta for p in priors])
    shapes = np.stack([a, b, a + b])
    return np.concatenate([shapes, log_gamma(shapes[[2, 0, 1]])])


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
        if not ((self.var > 0.0) & (self.var < math.inf)).all():
            raise ValueError("meta variances must be > 0 and finite")
        self.sigma_0, self.sigma = _gaussian_widths(self.sigma_0, self.sigma)


@dataclass
class LinearState:
    """Gaussian state N(mu, Lambda^-1) over the shared linear parameter theta_0.

    The meta-prior N(0, sigma_q^2 I_d) is this state at zero tasks (mu = 0,
    Lambda = I / sigma_q^2). Sigma is the known task covariance, sigma the
    reward noise and features the run's K x d arm features. Sigma^-1 is kept
    as on LinearGaussianPrior, and _lambda_lower, the factor that checked
    Lambda, for the meta-posterior sample; replace() recomputes both.
    """

    mu: np.ndarray
    Lambda: np.ndarray
    Sigma: np.ndarray
    sigma: float
    features: np.ndarray
    _inherited_inverse: InitVar[np.ndarray] = None
    _sigma_inv: np.ndarray = field(init=False, repr=False, compare=False)
    _lambda_lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, _inherited_inverse):
        self.mu = _as_vector(self.mu, "mu")
        d = self.mu.size
        self.Lambda, self._lambda_lower = _check_spd(self.Lambda, "Lambda", d)
        _inherit_sigma(self, _inherited_inverse, d)
        self.sigma = _width(self.sigma, "sigma")
        self.features = np.asarray(self.features, dtype=float)
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
        # Scalar draws in arm order: the array call's bits and stream position, faster.
        shapes = zip(prior.alpha.tolist(), prior.beta.tolist())
        return np.array([stream.beta(a, b) for a, b in shapes])
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
    if isinstance(prior, BetaProductPrior) and not (theta.min() >= 0.0 and theta.max() <= 1.0):
        raise ValueError("Bernoulli arm means must lie in [0, 1]")
    return _draw_rewards(prior, theta, horizon, stream)


def _draw_rewards(prior, theta: np.ndarray, horizon: int, stream) -> np.ndarray:
    """reward_table's draw without its checks, for a theta drawn from prior."""
    if isinstance(prior, BetaProductPrior):
        return (stream.random((horizon, theta.size)) < theta).astype(float)
    return theta + prior.sigma * stream.standard_normal((horizon, theta.size))
