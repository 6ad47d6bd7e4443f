"""The whole-task play kernels of the Bernoulli and Gaussian task posteriors.

GaussianArms.play and BetaCounts.play keep per-arm state between rounds
instead of re-evaluating every arm each round. The oracle here replays every
round from scratch: it rebuilds the posterior statistics from the log prefix,
evaluates the round's Thompson draws with numpy (Gaussian) or scalar Beta
draws on a twin stream (Bernoulli), and takes np.argmax. Examples are
derandomized so the suite is repeatable. At K = 2 Gaussian play takes its own
two-arm loop; scripted zero-noise cases pin its tie rule, also when it starts
after step rounds.
"""

import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metats.agents import Agent, play_tasks
from metats.envs import BetaProductPrior, GaussianDiagPrior
from metats.posteriors import BetaCounts, GaussianArms
from metats.rng import derive_stream

# A prior mean of 1e17 dwarfs any noise term at these widths (its ulp is 16),
# so arms that share it draw exactly equal samples until one is pulled: that
# pins the first-maximum rule. Shapes near 1e-3 make Beta draws of exactly
# 0.0 for the same reason.
kernel_cases = st.fixed_dictionaries(
    {
        "family": st.sampled_from(["gaussian", "bernoulli"]),
        "K": st.integers(2, 8),
        "n": st.integers(1, 60),
        "forced": st.booleans(),
        "seed": st.integers(0, 2**32 - 1),
        "sigma_0": st.sampled_from([1e-3, 0.1, 0.5, 1.0, 3.0, 10.0]),
        "sigma": st.sampled_from([0.25, 1.0, 2.0]),
        "mu": st.lists(st.sampled_from([-1.0, 0.0, 0.3, 1e17]), min_size=8, max_size=8),
        "shapes": st.lists(
            st.floats(-3.0, 1.5).map(lambda e: 10.0**e), min_size=16, max_size=16
        ),
    }
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _play(case):
    """An oracle agent of the case's family plays one task through play_tasks."""
    k, n, seed = case["K"], case["n"], case["seed"]
    gen = np.random.default_rng(seed)
    if case["family"] == "gaussian":
        prior = GaussianDiagPrior(mu=case["mu"][:k], sigma_0=case["sigma_0"], sigma=case["sigma"])
        table = case["sigma"] * gen.standard_normal((n, k)) + np.asarray(case["mu"][:k])
    else:
        prior = BetaProductPrior(alpha=case["shapes"][:k], beta=case["shapes"][8 : 8 + k])
        table = (gen.random((n, k)) < 0.5).astype(float)
    agent = Agent("oracle", prior, forced_last_k=case["forced"])
    stream = derive_stream(seed, 0, 1, 99)
    agent.begin_task(stream, n)
    arms = play_tasks([agent], [stream], [table])[0]
    return agent, prior, table, arms


def _oracle_arms(case, prior, table, log_arms) -> list:
    """Every round's arm: drawn rounds replayed from the log prefix, then forced pulls."""
    k, n = case["K"], case["n"]
    free = n - k if case["forced"] else n
    drawn = max(free, 0)
    twin = derive_stream(case["seed"], 0, 1, 99)
    rewards = table[np.arange(n), log_arms]
    arms = []
    if case["family"] == "gaussian":
        z = twin.standard_normal((drawn, k))
        s2, s02 = case["sigma"] ** 2, prior.sigma_0**2
        kappa = s2 / s02
        for t in range(drawn):
            pulls = np.bincount(log_arms[:t], minlength=k).astype(float)
            sums = np.bincount(log_arms[:t], weights=rewards[:t], minlength=k)
            v = s2 / (kappa + pulls)
            draw = v * (prior.mu / s02 + sums / s2) + np.sqrt(v) * z[t]
            arms.append(int(np.argmax(draw)))
    else:
        for t in range(drawn):
            alpha, beta = _beta_counts(prior, log_arms[:t], rewards[:t])
            draw = [twin.beta(a, b) for a, b in zip(alpha, beta)]
            arms.append(int(np.argmax(draw)))
    return arms + [t - free for t in range(drawn, n)]


def _beta_counts(prior, arms, rewards):
    """Beta shapes after the given rounds, added one at a time in round order."""
    alpha, beta = prior.alpha.tolist(), prior.beta.tolist()
    for arm, reward in zip(arms, rewards):
        alpha[arm] += reward
        beta[arm] += 1.0 - reward
    return alpha, beta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_cases)
# Two arms at 1e17 tie until one is pulled, and tie again at equal pulls.
@example(
    {
        "family": "gaussian",
        "K": 2,
        "n": 40,
        "forced": False,
        "seed": 3,
        "sigma_0": 1.0,
        "sigma": 1.0,
        "mu": [1e17] * 8,
        "shapes": [1.0] * 16,
    }
)
def test_play_kernels_equal_a_round_by_round_replay(case):
    agent, prior, table, arms = _play(case)
    log_arms = agent.log.arms
    assert np.array_equal(arms, log_arms)
    assert np.array_equal(log_arms, _oracle_arms(case, prior, table, log_arms))
    rewards = table[np.arange(case["n"]), log_arms]
    post = agent.task_posterior
    if case["family"] == "gaussian":
        pulls = np.bincount(log_arms, minlength=case["K"]).astype(float)
        sums = np.bincount(log_arms, weights=rewards, minlength=case["K"])
        assert _bits(post.pulls) == _bits(pulls)
        assert _bits(post.sums) == _bits(sums)
    else:
        alpha, beta = _beta_counts(prior, log_arms, rewards)
        assert _bits(post.alpha) == _bits(alpha)
        assert _bits(post.beta) == _bits(beta)


class _ScriptedGen:
    """Stands in for a numpy Generator: fixed normals, Beta draws in script order."""

    def __init__(self, normals=None, betas=()):
        self.normals = normals
        self.betas = list(betas)
        self.beta_args = []

    def standard_normal(self, shape):
        return np.asarray(self.normals, dtype=float).reshape(shape)

    def beta(self, a, b):
        self.beta_args.append((a, b))
        return self.betas[len(self.beta_args) - 1]


def test_gaussian_play_breaks_ties_toward_the_first_arm():
    # Zero noise: the draws are the means, [0, 1, 1] in both rounds (arm 1's
    # mean stays 1 after a reward of 1 at unit widths).
    post = GaussianArms(
        prior_mu=[0.0, 1.0, 1.0], sigma_0=1.0, sigma=1.0, pulls=[0.0] * 3, sums=[0.0] * 3
    )
    gen = _ScriptedGen(normals=np.zeros((2, 3)))
    arms = post.play(gen, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]], 2)
    assert arms == [int(np.argmax([0.0, 1.0, 1.0]))] * 2 == [1, 1]
    assert post.pulls == [0.0, 2.0, 0.0] and post.sums == [0.0, 2.0, 0.0]


def test_two_arm_gaussian_play_breaks_ties_toward_the_first_arm():
    # Zero noise and equal prior means: both draws are 0 every round, since
    # arm 0 only ever earns 0; arm 1's reward of 5 must go nowhere.
    post = GaussianArms(
        prior_mu=[0.0, 0.0], sigma_0=1.0, sigma=1.0, pulls=[0.0] * 2, sums=[0.0] * 2
    )
    gen = _ScriptedGen(normals=np.zeros((3, 2)))
    assert post.play(gen, [[0.0, 5.0]] * 3, 3) == [0, 0, 0]
    assert post.pulls == [3.0, 0.0] and post.sums == [0.0, 0.0]


@pytest.mark.parametrize("split", [2, 4])
def test_two_arm_gaussian_play_resumes_after_step_rounds(split):
    # Zero noise, so each draw is the arm's mean. Each arm earns -1 in the
    # rounds it should be pulled and 5 in the others: arm 0 then arm 1 leave
    # equal means, the tie goes to arm 0, and the pulls alternate.
    agent = Agent("oracle", GaussianDiagPrior(mu=[0.0, 0.0], sigma_0=1.0, sigma=1.0))
    gen = types.SimpleNamespace(standard_normal=np.zeros)
    table = np.array([[-1.0, 5.0], [5.0, -1.0]] * 5)
    agent.begin_task(gen, 10)
    for t in range(split):
        arm = agent.select_action(gen)
        agent.observe(arm, float(table[t, arm]))
    post = agent.task_posterior
    assert post.pulls == [split / 2] * 2 and post.sums == [-split / 2] * 2
    assert play_tasks([agent], [gen], [table]).tolist() == [[0, 1] * (5 - split // 2)]
    assert agent.log.arms.tolist() == [0, 1] * 5
    assert post.pulls == [5.0, 5.0] and post.sums == [-5.0, -5.0]


def test_bernoulli_play_breaks_ties_toward_the_first_arm():
    script = [[0.2, 0.7, 0.7], [0.5, 0.9, 0.9]]
    post = BetaCounts(alpha=[1.0, 2.0, 3.0], beta=[4.0, 5.0, 6.0])
    gen = _ScriptedGen(betas=[x for row in script for x in row])
    arms = post.play(gen, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 2)
    assert arms == [int(np.argmax(row)) for row in script] == [1, 1]
    # One draw per arm in arm order, the second round after arm 1's success.
    assert gen.beta_args == [(1.0, 4.0), (2.0, 5.0), (3.0, 6.0), (1.0, 4.0), (3.0, 5.0), (3.0, 6.0)]
    assert post.alpha == [1.0, 3.0, 3.0] and post.beta == [4.0, 6.0, 6.0]


@pytest.mark.parametrize("forced", [False, True])
def test_bernoulli_play_rejects_a_non_binary_reward(forced):
    # Without forced pulls play sees the reward; with them and n = K no round
    # is drawn, so absorb sees it.
    prior = BetaProductPrior(alpha=[1.0, 1.0], beta=[1.0, 1.0])
    agent = Agent("oracle", prior, forced_last_k=forced)
    stream = derive_stream(5, 0, 1, 99)
    agent.begin_task(stream, 2)
    with pytest.raises(ValueError, match="Bernoulli reward must be 0 or 1, got 0.5"):
        play_tasks([agent], [stream], [np.full((2, 2), 0.5)])
