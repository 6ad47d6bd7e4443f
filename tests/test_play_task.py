"""Properties of whole-task play (run_task / play_tasks).

The task loop draws all Thompson noise of a task in one call and updates the
posterior in place; these properties pin it to the conjugate algebra, to
round-by-round play through select_action/observe, and, for linear pairs
played in lockstep, to playing each pair alone. Examples are derandomized so
the suite is repeatable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metats.agents import Agent, AgentSpec, play_tasks
from metats.envs import reward_table, sample_instance_prior, sample_task_instance
from metats.harness import ExperimentConfig, agnostic_prior_for, build_meta_prior, run_task
from metats.posteriors import BetaCounts, GaussianArms, init_task_posterior
from metats.rng import derive_stream

SIGMA = 1.0

cases = st.fixed_dictionaries(
    {
        "family": st.sampled_from(["gaussian", "bernoulli", "linear"]),
        "kind": st.sampled_from(["oracle", "metats"]),
        "K": st.integers(2, 4),
        "n": st.integers(1, 30),
        "forced": st.booleans(),
        "seed": st.integers(0, 2**16),
    }
)


def _config(case) -> ExperimentConfig:
    table = None
    if case["family"] == "bernoulli":
        gen = np.random.default_rng(case["seed"])
        table = tuple(
            tuple(tuple(gen.uniform(0.5, 6.0, size=2)) for _ in range(case["K"]))
            for _ in range(2)
        )
    return ExperimentConfig(
        family=case["family"],
        K=case["K"],
        d=2,
        m=1,
        n=case["n"],
        runs=1,
        sigma=SIGMA,
        prior_table=table,
        master_seed=case["seed"],
    )


def _setup(case):
    """A fresh agent of the case's kind, the task instance and its reward table."""
    config = _config(case)
    seed = case["seed"]
    run_stream = derive_stream(seed, 0, 0, 0)
    meta_prior = build_meta_prior(config, run_stream)
    true_prior = sample_instance_prior(meta_prior, run_stream)
    noise = 0.0 if case["family"] == "bernoulli" else SIGMA
    instance = sample_task_instance(true_prior, derive_stream(seed, 0, 1, 1), noise)
    table = reward_table(instance, case["n"], derive_stream(seed, 0, 1, 2))

    def make_agent():
        spec = AgentSpec(
            kind=case["kind"],
            prior=meta_prior if case["kind"] == "metats" else true_prior,
            forced_last_k=case["forced"],
        )
        return Agent(spec, reward_noise=SIGMA)

    return make_agent, instance, table


def _play(case):
    make_agent, instance, table = _setup(case)
    agent = make_agent()
    stream = derive_stream(case["seed"], 0, 1, 99)
    agent.begin_task(stream, case["n"])
    log, regret = run_task(agent, instance, case["n"], stream, rewards=table)
    return agent, log, regret, instance, table


def _fold(start, arms, values) -> list:
    """Per-arm totals accumulated from start in round order.

    Conjugate updates add one observation at a time, so rebuilding them in
    the same order gives the same floats, also for non-integer Beta shapes.
    """
    totals = [float(x) for x in start]
    for arm, value in zip(arms, values):
        totals[arm] += value
    return totals


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases)
def test_final_posterior_is_the_batch_posterior_of_the_log(case):
    agent, log, regret, instance, table = _play(case)
    n = case["n"]
    assert len(log) == n and regret.shape == (n,)
    np.testing.assert_array_equal(log.rewards, table[np.arange(n), log.arms])
    post = agent.task_posterior
    prior = init_task_posterior(agent.task_prior, sigma=SIGMA)
    if isinstance(post, BetaCounts):
        failures = [1.0 - r for r in log.rewards]
        assert post.alpha == _fold(prior.alpha, log.arms, log.rewards)
        assert post.beta == _fold(prior.beta, log.arms, failures)
        shapes = np.asarray(post.alpha) + np.asarray(post.beta)
        np.testing.assert_allclose(
            shapes, np.asarray(prior.alpha) + np.asarray(prior.beta) + log.pull_counts
        )
    elif isinstance(post, GaussianArms):
        assert post.pulls == log.pull_counts.tolist()
        assert post.sums == _fold([0.0] * log.num_arms, log.arms, log.rewards)
        assert post.prior_mu == prior.prior_mu
    else:
        x = post.features[log.arms]
        y = np.asarray(log.rewards)
        np.testing.assert_allclose(
            post.precision, prior.precision + x.T @ x / SIGMA**2, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            post.info, prior.info + x.T @ y / SIGMA**2, rtol=1e-12, atol=1e-12
        )
    best = instance.theta.max()
    np.testing.assert_array_equal(regret, best - instance.theta[log.arms])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases)
def test_forced_last_k_ends_with_every_arm_in_order(case):
    case = dict(case, forced=True, n=max(case["n"], case["K"]))
    _, log, _, _, _ = _play(case)
    assert log.arms[-case["K"]:] == list(range(case["K"]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases)
def test_step_api_matches_whole_task_play(case):
    make_agent, instance, table = _setup(case)
    n = case["n"]
    whole = make_agent()
    stream = derive_stream(case["seed"], 0, 1, 99)
    whole.begin_task(stream, n)
    run_task(whole, instance, n, stream, rewards=table)

    step = make_agent()
    stream = derive_stream(case["seed"], 0, 1, 99)
    step.begin_task(stream, n)
    for t in range(n):
        arm = step.select_action(stream)
        step.observe(arm, float(table[t, arm]))

    assert step.log.arms == whole.log.arms
    assert step.log.rewards == whole.log.rewards
    a, b = step.task_posterior, whole.task_posterior
    if isinstance(a, (BetaCounts, GaussianArms)):
        assert a == b
    else:
        np.testing.assert_array_equal(a.precision, b.precision)
        np.testing.assert_array_equal(a.info, b.info)
    # Both leave the agent ready for the meta-update, with equal results.
    step.end_task()
    whole.end_task()
    if case["kind"] == "metats":
        for name in ("weights", "mu", "var", "Lambda"):
            if hasattr(step.meta, name):
                np.testing.assert_array_equal(
                    getattr(step.meta, name), getattr(whole.meta, name)
                )


linear_stacks = st.fixed_dictionaries(
    {
        "R": st.integers(1, 6),
        "K": st.integers(2, 5),
        "d": st.integers(1, 4),
        "n": st.integers(1, 25),
        "seed": st.integers(0, 2**16),
        "kinds": st.lists(st.sampled_from(["oracle", "metats", "agnostic"]), min_size=6, max_size=6),
        "forced": st.lists(st.booleans(), min_size=6, max_size=6),
    }
)


def _linear_pairs(case):
    """R linear pairs, one per run, each at the start of its first task."""
    config = ExperimentConfig(
        family="linear", K=case["K"], d=case["d"], m=1, n=case["n"], runs=case["R"],
        master_seed=case["seed"],
    )
    agents, streams, tables = [], [], []
    for r in range(case["R"]):
        seed, kind = case["seed"], case["kinds"][r]
        run_stream = derive_stream(seed, r, 0, 0)
        meta_prior = build_meta_prior(config, run_stream)
        true_prior = sample_instance_prior(meta_prior, run_stream)
        prior = {
            "metats": meta_prior,
            "oracle": true_prior,
            "agnostic": agnostic_prior_for(config, meta_prior),
        }[kind]
        spec = AgentSpec(kind=kind, prior=prior, forced_last_k=case["forced"][r])
        agent = Agent(spec, reward_noise=SIGMA)
        instance = sample_task_instance(true_prior, derive_stream(seed, r, 1, 1), SIGMA)
        stream = derive_stream(seed, r, 1, 99)
        agent.begin_task(stream, case["n"])
        agents.append(agent)
        streams.append(stream)
        tables.append(reward_table(instance, case["n"], derive_stream(seed, r, 1, 2)))
    return agents, streams, tables


@settings(max_examples=60, deadline=None, derandomize=True)
@given(linear_stacks)
def test_stacked_linear_play_equals_one_pair_at_a_time(case):
    stacked, streams, tables = _linear_pairs(case)
    arms = play_tasks(stacked, streams, tables)
    alone, streams, tables = _linear_pairs(case)
    for r, agent in enumerate(alone):
        assert play_tasks([agent], [streams[r]], [tables[r]])[0] == arms[r]
        a, b = stacked[r], agent
        assert a.log.arms == b.log.arms == arms[r]
        assert a.log.rewards == b.log.rewards
        np.testing.assert_array_equal(a.task_posterior.precision, b.task_posterior.precision)
        np.testing.assert_array_equal(a.task_posterior.info, b.task_posterior.info)


def test_stacked_linear_play_needs_a_common_round():
    case = {"R": 2, "K": 3, "d": 2, "n": 5, "seed": 3, "kinds": ["oracle"] * 2, "forced": [False] * 2}
    agents, streams, tables = _linear_pairs(case)
    arm = agents[0].select_action(streams[0])
    agents[0].observe(arm, float(tables[0][0, arm]))
    with pytest.raises(ValueError, match="share the round"):
        play_tasks(agents, streams, tables)
