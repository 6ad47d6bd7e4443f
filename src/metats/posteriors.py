"""Conjugate posterior state: within-task updates and per-family meta updates.

Within a task the agent holds a task posterior updated after every reward,
and the posterior plays the task's rounds: its play driver draws the
Thompson noise of the free rounds, each pulling the first arm of largest
Thompson sample and folding its reward into the state in place, then makes
the forced pulls, round t pulling arm t - free. The Bernoulli and Gaussian
posteriors play one task per call, ``play(gen, rows, free)``, Gaussian play
at K = 2 (the paper's setting) with both arms' statistics in locals, about
0.27 us a round against 0.55 us in its K-arm loop; play_linear plays many
linear (run, agent) pairs in lockstep, a round one Cholesky and two solve
calls for all of them, the pivot floor checked, rewards scaled and absorb
terms built once per task. The step API (sample_task_posterior,
update_task_posterior) takes the same bits from ``thompson(gen)`` and
``absorb(arm, reward)``, one round's sample and one observation.

Every Cholesky factor and solve goes through one seam, _cholesky and
_solve, which call numpy's linalg gufuncs (numpy.linalg._umath_linalg)
directly: the same LAPACK calls np.linalg makes, so the same bits, without
the wrapper's type checks and per-call errstate (three to four times the
LAPACK call at a few 2 x 2 systems). The callers hold the flags silenced
and read a failure from its NaNs. Linear priors and states keep Sigma^-1,
solved once per run, for the task-posterior start and the meta-update.

Across tasks the agent holds a meta-posterior over instance priors, updated
exactly once per completed task from the task's full interaction log. A
TaskLog holds that log as two arrays, the pulled arms and their rewards, and
the meta updates read it through array reductions: pull counts, canonical
per-arm reward sums and, for Bernoulli logs, success counts, over the logs
of many states at once (update_meta_posteriors). Their state classes
(CategoricalWeights, GaussianDiagState, LinearState) live in envs, because
the meta-prior is the same state at zero tasks, and are re-exported here.
Meta updates are pure: they return new state objects and never mutate
their inputs, so one zero-task state can start many agents.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .envs import (
    BetaProductPrior,
    CategoricalWeights,
    GaussianDiagPrior,
    GaussianDiagState,
    LinearGaussianPrior,
    LinearState,
    _candidate_terms,
    _sample_prior,
)
from .special import log_gamma

__all__ = [
    "NumericalError",
    "TaskLog",
    "BetaCounts",
    "GaussianArms",
    "LinearGaussianPosterior",
    "play_linear",
    "CategoricalWeights",
    "GaussianDiagState",
    "LinearState",
    "init_task_posterior",
    "update_task_posterior",
    "sample_task_posterior",
    "categorical_log_evidence",
    "update_meta_posterior_categorical",
    "update_meta_posterior_gaussian",
    "update_meta_posterior_linear",
    "update_meta_posteriors",
    "sample_meta_posterior",
]

WEIGHT_FLOOR = 1e-300
PIVOT_FLOOR = 1e-12


class NumericalError(RuntimeError):
    """A linear solve was refused because the system is numerically singular."""


def _cholesky(mat: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky's LAPACK call without its wrapper: the same bits,
    NaNs where a matrix is not positive-definite, and no floating-point check.
    The caller holds the flags silenced (np.errstate), as np.linalg does."""
    return _umath_linalg.cholesky_lo(mat, signature="d->d")


def _solve(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """np.linalg.solve's LAPACK call without its wrapper, flags as in _cholesky."""
    return (_umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve)(
        a, b, signature="dd->d", out=out
    )


def _pivots_pass(pivots: np.ndarray) -> np.ndarray:
    """Whether each factor's least pivot of diagonals (..., d) is at least PIVOT_FLOOR
    times its largest (not if NaN); elementwise passes beat short-axis reductions."""
    low = high = pivots[..., 0]
    for j in range(1, pivots.shape[-1]):
        low, high = np.minimum(low, pivots[..., j]), np.maximum(high, pivots[..., j])
    return low >= PIVOT_FLOOR * high


def _factor(mat: np.ndarray, context: str) -> np.ndarray:
    """_spd_factor for a caller that already holds the flags silenced."""
    lower = _cholesky(mat)
    if _pivots_pass(lower.diagonal(0, -2, -1)).all():
        return lower
    # np.linalg.cholesky raises exactly where LAPACK refused a matrix.
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        problem = "matrix is not positive-definite"
    else:
        problem = f"Cholesky pivot below {PIVOT_FLOOR:g} of the largest pivot"
    try:
        cond = float(np.max(np.linalg.cond(mat)))
    except np.linalg.LinAlgError:  # the SVD of a NaN matrix does not converge
        cond = math.nan
    raise NumericalError(f"{context}: {problem} (condition number {cond:.3e})")


def _spd_factor(mat: np.ndarray, context: str) -> np.ndarray:
    """Cholesky factor of an SPD matrix, or of each matrix of a (R, d, d) stack.

    An explicit pivot floor replaces silent regularization. The floor is
    PIVOT_FLOOR times each matrix's largest pivot, so it bounds conditioning,
    not scale. A matrix LAPACK refuses comes back as NaNs, and so does a NaN
    matrix, so the floor check is written to fail on a NaN pivot.
    """
    with np.errstate(all="ignore"):
        return _factor(mat, context)


def _spd_solve(mat: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    lower = _spd_factor(mat, context)
    with np.errstate(all="ignore"):
        return _solve(lower.T, _solve(lower, rhs))


def _sigma_inverse(obj, context: str) -> np.ndarray:
    """A linear prior's or state's Sigma^-1, or where it failed, context's error."""
    if obj._sigma_inv is None:
        return _spd_solve(obj.Sigma, np.eye(len(obj.Sigma)), context)
    return obj._sigma_inv


def _check_binary(rewards: np.ndarray) -> None:
    binary = (rewards == 0.0) | (rewards == 1.0)
    if not binary.all():
        raise ValueError(f"non-binary reward {float(rewards[~binary][0])!r} in a Bernoulli log")


@dataclass(eq=False)
class TaskLog:
    """Interaction record of one task: the pulled arms and their rewards, in
    round order, as a 1-D int array and a 1-D float array. Built once from
    whole arrays; every arm is checked against K."""

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


# ---------------------------------------------------------------------------
# Within-task posteriors


def _forced_pulls(post, rows: list, free: int, arms: list) -> list:
    """Append the forced pulls to arms: each row t from max(free, 0) on pulls
    arm t - free, folded in through absorb."""
    for t in range(max(free, 0), len(rows)):
        arm = t - free
        post.absorb(arm, rows[t][arm])
        arms.append(arm)
    return arms


@dataclass
class BetaCounts:
    """Beta posterior shapes per arm, as lists of floats updated in place.

    Beta draws use rejection sampling, so they cannot be drawn ahead: one
    round draws one scalar Beta per arm in arm order from the generator
    (bit-identical to one array call).
    """

    alpha: list
    beta: list

    def thompson(self, gen: np.random.Generator) -> list:
        return [gen.beta(a, b) for a, b in zip(self.alpha, self.beta)]

    def absorb(self, arm: int, reward: float) -> None:
        if reward not in (0.0, 1.0):
            raise ValueError(f"Bernoulli reward must be 0 or 1, got {reward!r}")
        self.alpha[arm] += reward
        self.beta[arm] += 1.0 - reward

    def play(self, gen: np.random.Generator, rows: list, free: int) -> list:
        """thompson, first maximum and absorb per free row, then the forced pulls."""
        alpha, beta, draw = self.alpha, self.beta, gen.beta
        rest, arms = range(1, len(alpha)), []
        pull = arms.append
        for row in rows[: max(free, 0)]:
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
        return _forced_pulls(self, rows, free, arms)


@dataclass
class GaussianArms:
    """Normal-normal posterior per arm with known observation noise.

    Stores sufficient statistics (lists of floats, updated in place); _arm_terms
    evaluates an arm's mean and variance in closed form, so the variance after
    N pulls is exactly sigma^2/(sigma^2/sigma_0^2 + N).
    """

    prior_mu: list
    sigma_0: float
    sigma: float
    pulls: list
    sums: list

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

    def thompson(self, gen: np.random.Generator) -> list:
        # z holds exactly the normals gen.normal(mean, sqrt(var)) would
        # consume, and numpy computes that draw as mean + sqrt(var) * z.
        z = gen.standard_normal(len(self.prior_mu)).tolist()
        terms = self._arm_terms()
        return [mean + sd * zk for (mean, sd), zk in zip(map(terms, range(len(z))), z)]

    def absorb(self, arm: int, reward: float) -> None:
        self.pulls[arm] += 1.0
        self.sums[arm] += reward

    def play(self, gen: np.random.Generator, rows: list, free: int) -> list:
        """thompson, first maximum and absorb per free row, then the forced pulls.

        The free rows' noise is drawn in one call; an arm's mean and sd are
        refreshed only when it is pulled. Two arms take _play_two_arms."""
        num_arms = len(self.prior_mu)
        if num_arms == 2:
            return self._play_two_arms(gen, rows, free)
        z = gen.standard_normal((max(free, 0), num_arms)).tolist()
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
        return _forced_pulls(self, rows, free, arms)

    def _play_two_arms(self, gen: np.random.Generator, rows: list, free: int) -> list:
        """play at K = 2, the paper's Gaussian setting, with both arms'
        statistics in locals: the same draws, arms and bits.

        Arm 1 wins only a strictly larger draw (the first maximum). The pulled
        arm's refresh is _arm_terms' expression written inline, its one copy:
        a 200-round task, noise draw included, took 52-56 us so, 78-82 us with
        an _arm_terms call per pull and 107-111 us through play's K-arm loop
        (2-core Xeon, Python 3.11, numpy 2.4)."""
        s2, s02, sqrt = self.sigma**2, self.sigma_0**2, math.sqrt
        kappa = s2 / s02
        a0, a1 = (mu / s02 for mu in self.prior_mu)
        (n0, n1), (y0, y1) = self.pulls, self.sums
        (m0, d0), (m1, d1) = map(self._arm_terms(), (0, 1))
        z = iter(gen.standard_normal((max(free, 0), 2)).ravel().tolist())
        arms = []
        pull = arms.append
        for row, z0, z1 in zip(rows, z, z):
            if m1 + d1 * z1 > m0 + d0 * z0:
                n1, y1 = n1 + 1.0, y1 + row[1]
                v = s2 / (kappa + n1)
                m1, d1 = v * (a1 + y1 / s2), sqrt(v)
                pull(1)
            else:
                n0, y0 = n0 + 1.0, y0 + row[0]
                v = s2 / (kappa + n0)
                m0, d0 = v * (a0 + y0 / s2), sqrt(v)
                pull(0)
        self.pulls[:], self.sums[:] = (n0, n1), (y0, y1)
        return _forced_pulls(self, rows, free, arms)


@dataclass
class LinearGaussianPosterior:
    """Gaussian posterior over the latent parameter of a linear bandit.

    Its round methods are the one-pair case of the stacked round math
    (_thompson_means, _absorb_outer) that play_linear runs for many pairs.
    """

    precision: np.ndarray
    info: np.ndarray  # precision @ mean
    sigma: float
    features: np.ndarray

    def thompson(self, gen: np.random.Generator) -> list:
        pair = np.empty((2, 1, self.info.size, 1))
        pair[1, ..., 0] = gen.normal(0.0, 1.0, size=(1, self.info.size))
        with np.errstate(all="ignore"):
            lower = _factor(self.precision[None], "linear task posterior sampling")
            draw = _thompson_means(lower, self.info[None, :, None], self.features[None], pair)
        return draw[0].tolist()

    def absorb(self, arm: int, reward: float) -> None:
        x, sigma2 = self.features[arm], self.sigma**2
        self.precision += _absorb_outer(x, np.array(sigma2))
        self.info += x * (reward / sigma2)


def _thompson_means(lower, info, features, pair) -> np.ndarray:
    """Posterior samples of the arm means of R linear pairs, shape (R, K).

    lower holds the precisions' Cholesky factors (R, d, d), info is (R, d, 1),
    features (R, K, d), and pair (2, R, d, 1) holds noise in pair[1]. pair[0]
    receives L^-1 info, then one call solves L^T against both: broadcast, each
    column is its own LAPACK call with its own bits (two columns differ), as
    the seam test and selftest check. The caller holds the flags silenced.
    """
    _solve(lower, info, out=pair[0])
    # precision = L L^T, so L^-T z has the posterior covariance.
    theta = _solve(lower.swapaxes(-1, -2)[None], pair)
    return (features @ (theta[0] + theta[1]))[..., 0]


def _absorb_outer(x, sigma2) -> np.ndarray:
    """The precision term x x^T / sigma^2 of each feature row in x (..., d);
    sigma2 broadcasts against x's leading axes."""
    return x[..., :, None] * x[..., None, :] / sigma2[..., None, None]


def _builds_absorb_terms(num_arms: int, d: int, n: int) -> bool:
    """Whether play_linear builds a pair's K absorb terms for an n-round task."""
    return 4 * num_arms * d * d <= n * (num_arms + d)


def play_linear(posts: list, gens: list, rewards, free) -> np.ndarray:
    """Play n rounds of R linear tasks in lockstep; returns the arms, (R, n).

    posts are the pairs' task posteriors, updated in place, and rewards their
    R (n, K) reward tables, as a list or one stack. Pair r draws its arm while
    t < free[r], its noise for all those rounds drawn from gens[r] in one
    call, and pulls arm t - free[r] after. Every pair's arms, log and
    posterior equal those of playing it alone. A drawing round makes one
    stacked Cholesky and _thompson_means' two solve calls. Rounds where all
    draw check their pivots once, after the last; a failure replays the
    absorbs and raises the first failing round's error. Other rounds check
    at once (_factor); posteriors are written back after every check. Where
    _builds_absorb_terms says so, the K terms x x^T / sigma^2 of each pair
    are built once per task, else a round builds R (task_cells counts them).
    """
    num_pairs, (n, num_arms), d = len(rewards), rewards[0].shape, posts[0].info.size
    precision = np.stack([p.precision for p in posts])
    info = np.stack([p.info for p in posts])
    info_col = info[..., None]  # a view: it follows info's in-place updates
    features = np.stack([p.features for p in posts])
    sigma2 = np.array([p.sigma**2 for p in posts])
    prebuilt = _builds_absorb_terms(num_arms, d, n)
    outer = _absorb_outer(features, sigma2[:, None]).reshape(-1, d, d) if prebuilt else None
    flat_features = features.reshape(num_pairs * num_arms, -1)
    scaled = np.stack(rewards)  # the one copy of the rewards, scaled in place
    flat_scaled = np.divide(scaled, sigma2[:, None, None], out=scaled).reshape(-1, 1)
    # slots[t + 1] is round t's noise, slots[t : t + 2] its pair, then pivots[t] its pivots.
    slots = np.zeros((n + 1, num_pairs, d, 1))
    pivots = slots[..., 0]
    for r, (gen, f) in enumerate(zip(gens, free)):
        pivots[1 : max(f, 0) + 1, r] = gen.normal(0.0, 1.0, size=(max(f, 0), d))
    all_draw = max(min(free), 0)
    free = np.asarray(free)
    pair_rows = np.arange(num_pairs) * num_arms
    # Row t: the flat_scaled index of each pair's round t, arm 0.
    round_rows = np.arange(0, n * num_arms, num_arms)[:, None] + pair_rows * n
    arms = np.empty((n, num_pairs), dtype=int)

    def terms(row):  # the precision terms x x^T / sigma^2 of feature rows row
        return outer.take(row, axis=0) if prebuilt else _absorb_outer(flat_features[row], sigma2)

    def check_pivots():  # of the all-drawing rounds; raises the first failing one's error
        done = pivots[:all_draw]
        if done.min(initial=np.inf) >= PIVOT_FLOOR * done.max(initial=0.0):
            return  # passing task-wide implies passing per matrix, and is cheaper
        passed = _pivots_pass(done).all(axis=1)
        if not passed.all():
            start = np.stack([p.precision for p in posts])
            for arm in arms[: passed.argmin()]:
                start += terms(pair_rows + arm)
            _factor(start, "linear task posterior sampling")

    # One errstate for the whole task: the seam leaves the flags to it.
    with np.errstate(all="ignore"):
        for t in range(n):
            if t < all_draw:
                lower = _cholesky(precision)
                arm = _thompson_means(lower, info_col, features, slots[t : t + 2]).argmax(axis=1)
                pivots[t] = lower.diagonal(0, -2, -1)
                del lower  # freed before the absorb builds its terms
            else:
                if t == all_draw:
                    check_pivots()
                drawing = free > t
                arm = t - free
                if drawing.any():
                    lower = _factor(precision[drawing], "linear task posterior sampling")
                    pair = slots[t : t + 2, drawing]
                    draw = _thompson_means(lower, info_col[drawing], features[drawing], pair)
                    arm[drawing] = draw.argmax(axis=1)
            arms[t] = arm
            row = pair_rows + arm
            precision += terms(row)
            info += flat_features.take(row, axis=0) * flat_scaled.take(round_rows[t] + arm, axis=0)
        if all_draw == n:
            check_pivots()
    for r, post in enumerate(posts):
        post.precision, post.info = precision[r], info[r]
    return arms.T


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
        precision = _sigma_inverse(prior, "linear prior covariance inverse")
        precision = 0.5 * (precision + precision.T)
        info = precision @ prior.theta_0
        return LinearGaussianPosterior(precision, info, prior.sigma, prior.features)
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
    return np.array(post.thompson(stream))


# ---------------------------------------------------------------------------
# Meta-posteriors


def _flat_bins(logs, num_arms: int) -> tuple:
    """M logs' arms as bins pair * K + arm, with their rewards; one log's are not copied."""
    if any(log.num_arms != num_arms for log in logs):
        raise ValueError(f"every task log needs the K={num_arms} arms of its meta-state")
    if len(logs) == 1:
        return logs[0].arms, logs[0].rewards
    arms = np.concatenate([log.arms + i * num_arms for i, log in enumerate(logs)])
    return arms, np.concatenate([log.rewards for log in logs])


def _log_evidence(terms: np.ndarray, logs) -> np.ndarray:
    """Beta-Binomial log evidence (M, J) of M Bernoulli logs under the
    candidates of their (M, 6, J, K) CategoricalWeights._terms. 0/1 sums are
    exact in any order, log_gamma and the six-term sum are elementwise, and a
    row sum equals np.sum of that row: (i, j) has the bits of one log alone."""
    m, _, _, k = terms.shape
    bins, rewards = _flat_bins(logs, k)
    _check_binary(rewards)
    pos = np.bincount(bins, weights=rewards, minlength=m * k).reshape(m, 1, k)
    total = np.bincount(bins, minlength=m * k).astype(float).reshape(m, 1, k)
    lg = log_gamma(np.stack([terms[:, 0] + pos, terms[:, 1] + (total - pos), terms[:, 2] + total]))
    return (terms[:, 3] + lg[0] + lg[1] - terms[:, 4] - terms[:, 5] - lg[2]).sum(axis=-1)


def categorical_log_evidence(prior: BetaProductPrior, log: TaskLog) -> float:
    """log of the marginal likelihood of a Bernoulli task log under one prior."""
    return float(_log_evidence(_candidate_terms([prior])[None], [log])[0, 0])


def _update_categorical(metas: list, logs: list) -> list:
    """update_meta_posterior_categorical of M states of one (J, K) shape; a
    row's finite max and pairwise sums equal those of the row alone."""
    with np.errstate(divide="ignore"):
        logw = np.log(np.array([meta.weights for meta in metas]))
    logw = logw + _log_evidence(np.array([meta._terms for meta in metas]), logs)
    logw -= np.max(logw, axis=1, keepdims=True, where=np.isfinite(logw), initial=-np.inf)
    w = np.exp(logw)
    w /= w.sum(axis=1, keepdims=True)
    w[w < WEIGHT_FLOOR] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    return [CategoricalWeights(row, meta.priors, meta._terms) for row, meta in zip(w, metas)]


def update_meta_posterior_categorical(meta: CategoricalWeights, log: TaskLog) -> CategoricalWeights:
    """Reweight candidate priors by their evidence for the completed task.

    The one-state case of update_meta_posteriors: lgGamma of the count-free
    terms comes cached in meta._terms, one log_gamma call takes the rest."""
    return _update_categorical([meta], [log])[0]


def _update_gaussian(metas: list, logs: list) -> list:
    """update_meta_posterior_gaussian of M states of K arms, on (M, K) arrays."""
    m, k = len(metas), metas[0].mu.size
    bins, rewards = _flat_bins(logs, k)
    # After one argsort by value, each bin adds its rewards in ascending value
    # order, whatever the round order; equal values and signed zeros add alike.
    order = np.argsort(rewards)
    sums = np.bincount(bins[order], weights=rewards[order], minlength=m * k).reshape(m, k)
    pulls = np.bincount(bins, minlength=m * k).astype(float).reshape(m, k)
    mu, var = np.array([meta.mu for meta in metas]), np.array([meta.var for meta in metas])
    pulled = pulls > 0
    pair, t = np.nonzero(pulled)[0], pulls[pulled]
    sq = np.array([(meta.sigma_0**2, meta.sigma**2) for meta in metas])[pair]
    weight = t / (t * sq[:, 0] + sq[:, 1])
    old_precision = 1.0 / var[pulled]
    var[pulled] = 1.0 / (old_precision + weight)
    ybar = sums[pulled] / t
    mu[pulled] = var[pulled] * (mu[pulled] * old_precision + ybar * weight)
    return [GaussianDiagState(a, v, meta.sigma_0, meta.sigma) for a, v, meta in zip(mu, var, metas)]


def update_meta_posterior_gaussian(meta: GaussianDiagState, log: TaskLog) -> GaussianDiagState:
    """Per-arm precision-weighted update from one completed Gaussian task.

    An arm pulled T times with reward mean ybar contributes one effective
    observation of weight T/(T sigma_0^2 + sigma^2); unpulled arms keep their
    state bit-for-bit. Depends on the log only through (T, sum of rewards),
    summed by arm, then value. The one-state case of update_meta_posteriors,
    which sums every log after one sort and updates on (M, K) arrays, each
    element as here, with each state's squared widths taken in Python."""
    return _update_gaussian([meta], [log])[0]


def update_meta_posteriors(metas: list, logs: list) -> list:
    """Every meta-state's successor after its task log: categorical states of
    one (J, K) shape, and Gaussian ones of one K, as one array computation
    each; linear ones one by one (stacked matmul is not shown bit-exact)."""
    new, groups = list(metas), {}
    for i, meta in enumerate(metas):
        if isinstance(meta, CategoricalWeights):
            groups.setdefault((_update_categorical, meta._terms.shape), []).append(i)
        elif isinstance(meta, GaussianDiagState):
            groups.setdefault((_update_gaussian, meta.mu.shape), []).append(i)
        elif isinstance(meta, LinearState):
            new[i] = update_meta_posterior_linear(meta, logs[i])
        else:
            raise TypeError(f"not a meta posterior: {type(meta).__name__}")
    for (update, _), members in groups.items():
        states = update([metas[i] for i in members], [logs[i] for i in members])
        for i, state in zip(members, states):
            new[i] = state
    return new


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
    inner = _sigma_inverse(meta, "task covariance inverse") + s_t
    correction = _spd_solve(inner, np.column_stack([s_t, c_t]), "linear meta update (woodbury)")
    lam_new = meta.Lambda + s_t - s_t @ correction[:, :-1]
    rhs = meta.Lambda @ meta.mu + c_t - s_t @ correction[:, -1]
    lam_new = 0.5 * (lam_new + lam_new.T)
    mu_new = _spd_solve(lam_new, rhs, "linear meta posterior mean")
    return LinearState(mu_new, lam_new, meta.Sigma, meta.sigma, meta.features, meta._sigma_inv)


def sample_meta_posterior(meta, stream: np.random.Generator):
    """Draw one instance prior from the current meta-posterior."""
    if isinstance(meta, LinearState):
        lower = _spd_factor(meta.Lambda, "linear meta posterior sampling")
        z = stream.normal(0.0, 1.0, size=meta.mu.size)
        with np.errstate(all="ignore"):
            theta_0 = meta.mu + _solve(lower.T, z)
        return LinearGaussianPrior(theta_0, meta.Sigma, meta.features, meta.sigma, meta._sigma_inv)
    return _sample_prior(meta, stream)
