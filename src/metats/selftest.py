"""Numerical self-checks: every closed-form update is compared against an
independent oracle that never shares code with the implementation.

The categorical evidence is checked against grid quadrature, the Gaussian
meta-update against exact conditioning of the explicitly assembled joint
Gaussian, the linear update against a direct pull-count-sized solve, and the
linear family against the Gaussian family on identity features; one checks
the build's broadcast solve, which linear play's bits rely on. These run
from the command line (`metats selftest`) and inside the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import check_technical_lemmas
from .envs import BetaProductPrior
from .posteriors import (
    GaussianDiagState,
    LinearState,
    TaskLog,
    categorical_log_evidence,
    update_meta_posterior_gaussian,
    update_meta_posterior_linear,
)
from .rng import derive_stream, stream_keys

__all__ = [
    "CheckResult",
    "check_categorical_vs_grid",
    "check_gaussian_vs_joint",
    "check_woodbury_vs_direct",
    "direct_linear_meta_update",
    "check_gaussian_linear_identity",
    "check_stream_keys_vs_seedsequence",
    "check_broadcast_solve",
    "run_selftest",
]

GRID_POINTS = 2000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"{status:4s} {self.name}: worst {self.worst:.3e} (tol {self.tol:.0e}) {self.detail}"


def _random_log(gen, num_arms: int, horizon: int, binary: bool) -> TaskLog:
    arms, rewards = [], []
    for _ in range(horizon):
        arms.append(int(gen.integers(0, num_arms)))
        rewards.append(float(gen.integers(0, 2)) if binary else float(gen.normal()))
    return TaskLog(num_arms, arms, rewards)


def _grid_log_evidence(prior: BetaProductPrior, log: TaskLog) -> float:
    """Quadrature oracle for the task evidence under a product-Beta prior.

    Integrates theta^(N+) (1-theta)^(N-) against each arm's Beta density on a
    2000-point grid, normalizing the density by the same quadrature so no
    Gamma-function code is shared with the closed form under test.
    """
    theta = np.linspace(0.0, 1.0, GRID_POINTS)
    pos = np.bincount(log.arms, weights=log.rewards, minlength=log.num_arms)
    neg = np.bincount(log.arms, minlength=log.num_arms) - pos
    total = 0.0
    for i in range(log.num_arms):
        a = prior.alpha[i]
        b = prior.beta[i]
        density = theta ** (a - 1.0) * (1.0 - theta) ** (b - 1.0)
        weighted = theta ** (a + pos[i] - 1.0) * (1.0 - theta) ** (b + neg[i] - 1.0)
        total += math.log(np.trapezoid(weighted, theta) / np.trapezoid(density, theta))
    return total


def check_categorical_vs_grid(cases: int = 100, seed: int = 11) -> CheckResult:
    """Gamma-ratio log evidence vs. grid quadrature, relative error on logs.

    Shapes stay >= 2 (or exactly 1): for fractional shapes below 2 the Beta
    density has an unbounded endpoint derivative and the fixed 2000-point
    trapezoid cannot certify 1e-5, so those lie outside the oracle's domain.
    """
    tol = 1e-5
    gen = derive_stream(seed, 0, 0, 0)
    worst = 0.0
    for case in range(cases):
        num_arms = int(gen.integers(1, 4))
        horizon = int(gen.integers(1, 21))
        if case % 3 == 0:
            num_arms = 2
            prior = BetaProductPrior(alpha=np.array([6.0, 2.0]), beta=np.array([2.0, 6.0]))
        elif case % 3 == 1:
            prior = BetaProductPrior(alpha=np.ones(num_arms), beta=np.ones(num_arms))
        else:
            prior = BetaProductPrior(
                alpha=gen.uniform(2.0, 8.0, size=num_arms),
                beta=gen.uniform(2.0, 8.0, size=num_arms),
            )
        log = _random_log(gen, num_arms, horizon, binary=True)
        exact = categorical_log_evidence(prior, log)
        grid = _grid_log_evidence(prior, log)
        rel = abs(exact - grid) / max(abs(exact), abs(grid), 1e-12)
        worst = max(worst, rel)
    return CheckResult(
        name="categorical-evidence-vs-grid",
        passed=worst <= tol,
        worst=worst,
        tol=tol,
        detail=f"{cases} random binary logs, horizon <= 20",
    )


def check_gaussian_vs_joint(cases: int = 100, seed: int = 12) -> CheckResult:
    """Per-arm recursive meta-update vs. conditioning the assembled joint.

    Under the three-level model mu ~ N(mu_hat, v), theta | mu ~ N(mu, s0^2),
    Y_t | theta ~ N(theta, s^2), the vector (mu, Y_1..Y_T) is jointly Gaussian
    with Cov(Y) = (v + s0^2) 11' + s^2 I and Cov(mu, Y) = v 1'. Conditioning
    on Y must reproduce the closed-form update exactly.
    """
    tol = 1e-10
    gen = derive_stream(seed, 0, 0, 0)
    worst = 0.0
    for _ in range(cases):
        num_arms = int(gen.integers(1, 4))
        arm = int(gen.integers(0, num_arms))
        pulls = int(gen.integers(1, 31))
        mu_hat = gen.normal(size=num_arms)
        var = gen.uniform(0.04, 1.0, size=num_arms)
        sigma_0 = float(gen.uniform(0.05, 1.0))
        sigma = float(gen.uniform(0.5, 2.0))
        rewards = gen.normal(loc=mu_hat[arm], scale=1.0, size=pulls)

        state = GaussianDiagState(
            mu=mu_hat.copy(), var=var.copy(), sigma_0=sigma_0, sigma=sigma
        )
        log = TaskLog(num_arms, np.full(pulls, arm), rewards)
        updated = update_meta_posterior_gaussian(state, log)

        v = var[arm]
        cov_y = (v + sigma_0**2) * np.ones((pulls, pulls)) + sigma**2 * np.eye(pulls)
        cov_mu_y = v * np.ones(pulls)
        gain = np.linalg.solve(cov_y, cov_mu_y)
        cond_mean = mu_hat[arm] + gain @ (rewards - mu_hat[arm])
        cond_var = v - gain @ cov_mu_y

        worst = max(
            worst,
            abs(updated.mu[arm] - cond_mean),
            abs(updated.var[arm] - cond_var),
        )
    return CheckResult(
        name="gaussian-update-vs-joint-conditioning",
        passed=worst <= tol,
        worst=worst,
        tol=tol,
        detail=f"{cases} single-arm logs, up to 30 pulls",
    )


def _random_spd(gen, d: int, scale: float = 1.0) -> np.ndarray:
    a = gen.normal(size=(d, d))
    return scale * (a @ a.T + d * np.eye(d))


def _random_linear_state(gen, d: int, num_arms: int) -> LinearState:
    return LinearState(
        mu=gen.normal(size=d),
        Lambda=_random_spd(gen, d),
        Sigma=_random_spd(gen, d, scale=0.1),
        sigma=float(gen.uniform(0.5, 2.0)),
        features=gen.uniform(-0.5, 0.5, size=(num_arms, d)),
    )


def direct_linear_meta_update(meta: LinearState, log: TaskLog) -> LinearState:
    """Oracle for the linear meta-update: one solve of the pull-count-sized
    system sigma^2 I + X_t Sigma X_t^T, where the update solves d x d ones."""
    x_rows = meta.features[log.arms]
    y = log.rewards
    mid = meta.sigma**2 * np.eye(len(y)) + x_rows @ meta.Sigma @ x_rows.T
    gain = np.linalg.solve(mid, x_rows)
    lam_new = meta.Lambda + x_rows.T @ gain
    lam_new = 0.5 * (lam_new + lam_new.T)
    mu_new = np.linalg.solve(lam_new, meta.Lambda @ meta.mu + gain.T @ y)
    return replace(meta, mu=mu_new, Lambda=lam_new)


def check_woodbury_vs_direct(cases: int = 100, seed: int = 13) -> CheckResult:
    """The linear meta-update must agree entrywise with the direct oracle."""
    tol = 1e-8
    gen = derive_stream(seed, 0, 0, 0)
    worst = 0.0
    for case in range(cases):
        d = int(gen.integers(1, 6))
        num_arms = int(gen.integers(d, 2 * d + 3))
        state_a = _random_linear_state(gen, d, num_arms)
        state_b = state_a
        # A chain of task updates compounds any disagreement.
        chain = 3 if case % 4 == 0 else 1
        for _ in range(chain):
            log = _random_log(gen, num_arms, int(gen.integers(1, 21)), binary=False)
            state_a = direct_linear_meta_update(state_a, log)
            state_b = update_meta_posterior_linear(state_b, log)
        worst = max(
            worst,
            float(np.max(np.abs(state_a.Lambda - state_b.Lambda))),
            float(np.max(np.abs(state_a.mu - state_b.mu))),
        )
    return CheckResult(
        name="linear-direct-vs-woodbury",
        passed=worst <= tol,
        worst=worst,
        tol=tol,
        detail=f"{cases} chains, d <= 5",
    )


def check_gaussian_linear_identity(cases: int = 50, seed: int = 14) -> CheckResult:
    """On identity features the linear family must collapse to the Gaussian one."""
    tol = 1e-10
    gen = derive_stream(seed, 0, 0, 0)
    worst = 0.0
    for _ in range(cases):
        k = int(gen.integers(1, 5))
        mu_hat = gen.normal(size=k)
        var = gen.uniform(0.04, 1.0, size=k)
        sigma_0 = float(gen.uniform(0.05, 1.0))
        sigma = float(gen.uniform(0.5, 2.0))
        log = _random_log(gen, k, int(gen.integers(1, 21)), binary=False)

        diag_state = GaussianDiagState(
            mu=mu_hat.copy(), var=var.copy(), sigma_0=sigma_0, sigma=sigma
        )
        diag_out = update_meta_posterior_gaussian(diag_state, log)

        lin_state = LinearState(
            mu=mu_hat.copy(),
            Lambda=np.diag(1.0 / var),
            Sigma=sigma_0**2 * np.eye(k),
            sigma=sigma,
            features=np.eye(k),
        )
        lin_out = update_meta_posterior_linear(lin_state, log)

        worst = max(
            worst,
            float(np.max(np.abs(lin_out.mu - diag_out.mu))),
            float(np.max(np.abs(np.diag(lin_out.Lambda) - 1.0 / diag_out.var))),
            float(np.max(np.abs(lin_out.Lambda - np.diag(np.diag(lin_out.Lambda))))),
        )
    return CheckResult(
        name="linear-collapses-to-gaussian-on-identity",
        passed=worst <= tol,
        worst=worst,
        tol=tol,
        detail=f"{cases} identity-feature logs",
    )


def check_stream_keys_vs_seedsequence(masters: int = 4, seed: int = 15) -> CheckResult:
    """Vectorized stream keys vs. numpy's SeedSequence, key by key, for ids of
    one to four 32-bit words (0 to 13 random bytes) and a 64-bit substream."""
    gen = derive_stream(seed, 0, 0, 0)

    def ids(count):
        return [int.from_bytes(gen.bytes(int(gen.integers(0, 14))), "little") for _ in range(count)]

    checked = mismatches = 0
    for master in ids(masters):
        axes = (ids(4), ids(4), ids(4) + [16 + 2**64 - 1])
        keys = stream_keys(master, *axes)
        for index in itertools.product(*(range(len(a)) for a in axes)):
            entropy = (master, *(a[i] for a, i in zip(axes, index)))
            expected = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
            mismatches += not np.array_equal(keys[index], expected)
            checked += 1
    return CheckResult(
        name="stream-keys-vs-seedsequence",
        passed=mismatches == 0,
        worst=float(mismatches),
        tol=0.0,
        detail=f"{checked} keys, {mismatches} mismatches",
    )


def check_broadcast_solve(cases: int = 200, seed: int = 16) -> CheckResult:
    """One solve of upper factors broadcast over two stacks of columns gives each
    the bits of its own call (pairs 1-6, d 1-8, scales 1e-3 to 1e3)."""
    gen, bad = np.random.default_rng(seed), 0
    for _ in range(cases):
        r, d, scale = int(gen.integers(1, 7)), int(gen.integers(1, 9)), 10.0 ** gen.uniform(-3, 3)
        upper = np.linalg.cholesky([_random_spd(gen, d, scale) for _ in range(r)]).swapaxes(-1, -2)
        pair = gen.normal(size=(2, r, d, 1))
        both = np.linalg.solve(upper[None], pair)
        bad += any(np.linalg.solve(upper, z).tobytes() != b.tobytes() for z, b in zip(pair, both))
    return CheckResult("broadcast-solve", not bad, float(bad), 0.0, f"{cases} stacks, {bad} differ")


def run_selftest(trials: int = 10_000) -> tuple:
    """Run every numerical check; returns (all_passed, list of CheckResult)."""
    results = [
        check_categorical_vs_grid(),
        check_gaussian_vs_joint(),
        check_woodbury_vs_direct(),
        check_gaussian_linear_identity(),
        check_stream_keys_vs_seedsequence(),
        check_broadcast_solve(),
    ]
    tech = check_technical_lemmas(trials=trials)
    results.append(
        CheckResult(
            name="partial-sum-inequalities",
            passed=tech["passed"],
            worst=max(tech["worst_sqrt_slack"], tech["worst_log_slack"]),
            tol=0.0,
            detail=f"{tech['trials']} trials, {tech['failures']} failures",
        )
    )
    return all(r.passed for r in results), results
