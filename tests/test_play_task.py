"""Properties of whole-task play (run_task / play_tasks).

The task loop draws all Thompson noise of a task in one call and updates the
posterior in place; these properties pin it to the conjugate algebra, to
round-by-round play through select_action/observe, and, for linear pairs
played in lockstep, to playing each pair alone and to an np.linalg replay of
each pair at its own sigma. Examples are derandomized so the suite is
repeatable.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metats import posteriors
from metats.agents import Agent, play_tasks
from metats.envs import (
    BetaProductPrior,
    GaussianDiagPrior,
    LinearGaussianPrior,
    reward_table,
    sample_instance_prior,
    sample_task_instance,
)
from metats.harness import ExperimentConfig, agnostic_prior_for, build_meta_prior, run_task
from metats.posteriors import (
    BetaCounts,
    GaussianArms,
    LinearGaussianPosterior,
    init_task_posterior,
    play_linear,
    sample_task_posterior,
)
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
    theta = sample_task_instance(true_prior, derive_stream(seed, 0, 1, 1))
    table = reward_table(true_prior, theta, case["n"], derive_stream(seed, 0, 1, 2))

    def make_agent():
        return Agent(
            case["kind"],
            meta_prior if case["kind"] == "metats" else true_prior,
            forced_last_k=case["forced"],
        )

    return make_agent, theta, table


def _play(case):
    make_agent, theta, table = _setup(case)
    agent = make_agent()
    stream = derive_stream(case["seed"], 0, 1, 99)
    agent.begin_task(stream, case["n"])
    log, regret = run_task(agent, theta, case["n"], stream, rewards=table)
    return agent, log, regret, theta, table


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
    agent, log, regret, theta, table = _play(case)
    n = case["n"]
    assert len(log) == n and regret.shape == (n,)
    np.testing.assert_array_equal(log.rewards, table[np.arange(n), log.arms])
    post = agent.task_posterior
    prior = init_task_posterior(agent.task_prior)
    pulls = np.bincount(log.arms, minlength=log.num_arms).astype(float)
    if isinstance(post, BetaCounts):
        failures = [1.0 - r for r in log.rewards]
        assert post.alpha == _fold(prior.alpha, log.arms, log.rewards)
        assert post.beta == _fold(prior.beta, log.arms, failures)
        shapes = np.asarray(post.alpha) + np.asarray(post.beta)
        np.testing.assert_allclose(
            shapes, np.asarray(prior.alpha) + np.asarray(prior.beta) + pulls
        )
    elif isinstance(post, GaussianArms):
        assert post.pulls == pulls.tolist()
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
    best = theta.max()
    np.testing.assert_array_equal(regret, best - theta[log.arms])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases)
def test_forced_last_k_ends_with_every_arm_in_order(case):
    case = dict(case, forced=True, n=max(case["n"], case["K"]))
    _, log, _, _, _ = _play(case)
    assert np.array_equal(log.arms[-case["K"]:], range(case["K"]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases)
def test_step_api_matches_whole_task_play(case):
    make_agent, theta, table = _setup(case)
    n = case["n"]
    whole = make_agent()
    stream = derive_stream(case["seed"], 0, 1, 99)
    whole.begin_task(stream, n)
    run_task(whole, theta, n, stream, rewards=table)

    step = make_agent()
    stream = derive_stream(case["seed"], 0, 1, 99)
    step.begin_task(stream, n)
    for t in range(n):
        arm = step.select_action(stream)
        step.observe(arm, float(table[t, arm]))

    assert np.array_equal(step.log.arms, whole.log.arms)
    assert np.array_equal(step.log.rewards, whole.log.rewards)
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases, st.integers(0, 29))
def test_whole_task_play_after_step_rounds_logs_every_round(case, split):
    make_agent, theta, table = _setup(case)
    n = case["n"]
    split = min(split, n - 1)
    whole = make_agent()
    stream = derive_stream(case["seed"], 0, 1, 99)
    whole.begin_task(stream, n)
    run_task(whole, theta, n, stream, rewards=table)

    mixed = make_agent()
    stream = derive_stream(case["seed"], 0, 1, 99)
    mixed.begin_task(stream, n)
    for t in range(split):
        arm = mixed.select_action(stream)
        mixed.observe(arm, float(table[t, arm]))
    _, regret = run_task(mixed, theta, n, stream, rewards=table)

    assert regret.shape == (n - split,) and mixed.rounds_played == n
    assert np.array_equal(mixed.log.arms, whole.log.arms)
    assert np.array_equal(mixed.log.rewards, whole.log.rewards)


def test_play_tasks_needs_a_common_round_and_horizon_in_every_family():
    prior = GaussianDiagPrior(mu=np.zeros(2), sigma_0=1.0, sigma=SIGMA)
    agents = [Agent("oracle", prior) for _ in range(2)]
    streams = [derive_stream(1, r, 1, 99) for r in range(2)]
    tables = [np.zeros((4, 2)), np.zeros((5, 2))]
    for agent, stream, table in zip(agents, streams, tables):
        agent.begin_task(stream, len(table))
    with pytest.raises(ValueError, match="must share the round and horizon"):
        play_tasks(agents, streams, tables)


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
        sigma=SIGMA, master_seed=case["seed"],
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
        agent = Agent(kind, prior, forced_last_k=case["forced"][r])
        theta = sample_task_instance(true_prior, derive_stream(seed, r, 1, 1))
        stream = derive_stream(seed, r, 1, 99)
        agent.begin_task(stream, case["n"])
        agents.append(agent)
        streams.append(stream)
        tables.append(reward_table(true_prior, theta, case["n"], derive_stream(seed, r, 1, 2)))
    return agents, streams, tables


@settings(max_examples=60, deadline=None, derandomize=True)
@given(linear_stacks)
def test_stacked_linear_play_equals_one_pair_at_a_time(case):
    stacked, streams, tables = _linear_pairs(case)
    arms = play_tasks(stacked, streams, tables)
    assert arms.shape == (case["R"], case["n"]) and arms.dtype.kind == "i"
    alone, streams, tables = _linear_pairs(case)
    for r, agent in enumerate(alone):
        assert np.array_equal(play_tasks([agent], [streams[r]], [tables[r]])[0], arms[r])
        a, b = stacked[r], agent
        assert np.array_equal(a.log.arms, b.log.arms)
        assert np.array_equal(a.log.arms, arms[r])
        assert np.array_equal(a.log.rewards, b.log.rewards)
        np.testing.assert_array_equal(a.task_posterior.precision, b.task_posterior.precision)
        np.testing.assert_array_equal(a.task_posterior.info, b.task_posterior.info)


def test_stacked_linear_play_needs_a_common_round():
    case = {"R": 2, "K": 3, "d": 2, "n": 5, "seed": 3, "kinds": ["oracle"] * 2, "forced": [False] * 2}
    agents, streams, tables = _linear_pairs(case)
    arm = agents[0].select_action(streams[0])
    agents[0].observe(arm, float(tables[0][0, arm]))
    with pytest.raises(ValueError, match="share the round"):
        play_tasks(agents, streams, tables)


# Distinct reward noise widths, none of them 1, so every pair's absorb
# divides by its own sigma^2.
LOCKSTEP_SIGMAS = (0.2, 0.45, 0.7, 1.6, 2.5, 4.0)

lockstep_cases = st.fixed_dictionaries(
    {
        "R": st.integers(1, 6),
        "K": st.integers(2, 12),
        "d": st.integers(1, 8),
        "n": st.integers(1, 30),
        "seed": st.integers(0, 2**32 - 1),
        "sigmas": st.permutations(LOCKSTEP_SIGMAS),
        "forced": st.lists(st.booleans(), min_size=6, max_size=6),
    }
)


def _noise_gens(case) -> list:
    """One Thompson noise generator per pair; a second call gives twins."""
    return [np.random.default_rng([case["seed"], r]) for r in range(case["R"])]


def _lockstep_inputs(case):
    """R linear posteriors with SPD precisions, their noise generators,
    rewards and free rounds."""
    r, k, d, n = case["R"], case["K"], case["d"], case["n"]
    gen = np.random.default_rng(case["seed"])
    posts, free = [], []
    for i in range(r):
        a = gen.standard_normal((d, d))
        posts.append(
            LinearGaussianPosterior(
                precision=a @ a.T + 0.5 * np.eye(d),
                info=gen.standard_normal(d),
                sigma=case["sigmas"][i],
                features=gen.standard_normal((k, d)),
            )
        )
        free.append(n - k if case["forced"][i] else n)
    return posts, _noise_gens(case), 3.0 * gen.standard_normal((r, n, k)), free


def _replay(post, twin, table, free):
    """One pair alone, round by round through np.linalg, its noise drawn
    from a twin generator: arms, precision, info."""
    noise = twin.normal(0.0, 1.0, size=(max(free, 0), post.info.size))
    precision, info = post.precision.copy(), post.info.copy()
    s2 = post.sigma**2
    arms = []
    for t, row in enumerate(table):
        if t < free:
            lower = np.linalg.cholesky(precision)
            mean = np.linalg.solve(lower.T, np.linalg.solve(lower, info[:, None]))
            theta = mean + np.linalg.solve(lower.T, noise[t][:, None])
            arm = int(np.argmax(post.features @ theta[:, 0]))
        else:
            arm = t - free
        x = post.features[arm]
        precision = precision + np.outer(x, x) / s2
        info = info + x * (row[arm] / s2)
        arms.append(arm)
    return arms, precision, info


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lockstep_cases)
def test_lockstep_linear_play_is_each_pair_replayed_alone(case):
    posts, gens, rewards, free = _lockstep_inputs(case)
    start = [(p.precision.copy(), p.info.copy()) for p in posts]
    arms = play_linear(posts, gens, rewards, free)
    for r, (post, twin) in enumerate(zip(posts, _noise_gens(case))):
        alone = LinearGaussianPosterior(*start[r], post.sigma, post.features)
        want_arms, precision, info = _replay(alone, twin, rewards[r], free[r])
        assert arms[r].tolist() == want_arms
        assert post.precision.tobytes() == precision.tobytes()
        assert post.info.tobytes() == info.tobytes()


@pytest.mark.parametrize("forced", [[True] * 3, [True, False, True], [False] * 3])
def test_lockstep_factors_and_solves_only_in_drawing_rounds(monkeypatch, forced):
    # Counting calls rather than timing them: one stacked Cholesky and two
    # solve calls (L^-1 info, then L^-T against it and the noise at once) per
    # round in which any pair draws, none once every pair pulls its forced arms.
    case = {"R": 3, "K": 4, "d": 3, "n": 10, "seed": 5, "kinds": ["oracle", "metats", "agnostic"]}
    agents, streams, tables = _linear_pairs(dict(case, forced=forced + [False] * 3))
    calls = {"cholesky": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(posteriors, "_cholesky", counted("cholesky", posteriors._cholesky))
    monkeypatch.setattr(posteriors, "_solve", counted("solve", posteriors._solve))
    play_tasks(agents, streams, tables)
    drawing_rounds = 10 - 4 if all(forced) else 10  # n - K, or n
    assert calls == {"cholesky": drawing_rounds, "solve": 2 * drawing_rounds}


def test_lockstep_terms_stay_within_the_counted_cells():
    # K d^2 = 200 * 32^2 is far above a pair's reward and noise cells,
    # n (K + d) = 4 * 232, so play_linear builds each round's R terms instead
    # of holding all R K of them (3 * 200 * 32^2 * 8 B, about 4.9 MB).
    case = {"R": 3, "K": 200, "d": 32, "n": 4, "seed": 1}
    posts, gens, rewards, free = _lockstep_inputs(
        dict(case, sigmas=LOCKSTEP_SIGMAS, forced=[False] * 6)
    )
    tracemalloc.start()
    try:
        play_linear(posts, gens, rewards, free)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 200 * 32**2 * 8 / 4


FAMILY_PRIORS = {
    "bernoulli": lambda: BetaProductPrior(alpha=[1.0, 2.0, 3.0], beta=[3.0, 2.0, 1.0]),
    "gaussian": lambda: GaussianDiagPrior(mu=[0.1, -0.2, 0.3], sigma_0=0.5, sigma=SIGMA),
    "linear": lambda: LinearGaussianPrior(
        [0.1, -0.2], 0.25 * np.eye(2), [[0.5, 0.0], [0.0, 0.5], [0.3, -0.3]], SIGMA
    ),
}


def _family_pairs(family, n):
    """A forced and an unforced oracle pair of the family (K = 3, d = 2) at
    the start of one task of horizon n: agents, streams and reward table."""
    prior = FAMILY_PRIORS[family]()
    theta = sample_task_instance(prior, derive_stream(4, 0, 1, 1))
    table = reward_table(prior, theta, n, derive_stream(4, 0, 1, 2))
    agents, streams = [], []
    for i, forced in enumerate((True, False)):
        agents.append(Agent("oracle", prior, forced_last_k=forced))
        streams.append(derive_stream(4, 0, 1, 16 + i))
        agents[-1].begin_task(streams[-1], n)
    return agents, streams, table


@pytest.mark.parametrize("family", ["bernoulli", "gaussian", "linear"])
@pytest.mark.parametrize("shape", [(5, 4), (3, 3)])
def test_play_tasks_refuses_a_table_that_is_not_horizon_by_k(family, shape):
    # An extra column used to be ignored (Bernoulli, Gaussian) or to die in
    # a numpy broadcast (linear), and a short table to die in a numpy
    # broadcast. Every table is checked before any stream moves.
    agents, streams, table = _family_pairs(family, 5)
    states = [str(stream.bit_generator.state) for stream in streams]
    message = f"agent 1's reward table must be horizon x K = (5, 3), not {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        play_tasks(agents, streams, [table, np.zeros(shape)])
    assert [str(stream.bit_generator.state) for stream in streams] == states
    assert [agent.rounds_played for agent in agents] == [0, 0]


class _CountingGen:
    """A Generator whose every call is recorded as (method, shape of the result)."""

    def __init__(self, gen):
        self.gen, self.calls = gen, []

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, np.shape(out)))
            return out

        return counted


def _round_draws(family, rounds):
    """The generator calls of that many drawn rounds of a K = 3, d = 2 pair."""
    return {
        "bernoulli": [("beta", ())] * (3 * rounds),
        "gaussian": [("standard_normal", (rounds, 3))],
        "linear": [("normal", (rounds, 2))],
    }[family]


@pytest.mark.parametrize("family", ["bernoulli", "gaussian", "linear"])
@pytest.mark.parametrize("n", [2, 3, 7])
def test_play_draws_only_the_noise_of_the_drawn_rounds(family, n):
    # No digest can see extra noise drawn after a pair's last drawn round,
    # because every stream is re-keyed before the next task; so the calls
    # are counted. At n <= K = 3 every round of the forced pair is forced.
    agents, streams, table = _family_pairs(family, n)
    gens = [_CountingGen(stream) for stream in streams]
    play_tasks(agents, gens, [table, table])
    forced, free = gens
    assert forced.calls == _round_draws(family, max(n - 3, 0))
    assert free.calls == _round_draws(family, n)
    # The step API draws one round per sample: K normals in one call, or K
    # Beta draws; a forced round through select_action draws nothing.
    post = init_task_posterior(agents[0].task_prior)
    gen = _CountingGen(derive_stream(4, 0, 1, 18))
    sample_task_posterior(post, gen)
    one = {"linear": [("normal", (1, 2))], "gaussian": [("standard_normal", (3,))]}
    assert gen.calls == one.get(family, _round_draws(family, 1))
    agent = Agent("oracle", agents[0].task_prior, forced_last_k=True)
    agent.begin_task(gen, n)
    gen.calls.clear()
    for t in range(n):
        arm = agent.select_action(gen)
        agent.observe(arm, float(table[t, arm]))
    assert gen.calls == one.get(family, _round_draws(family, 1)) * max(n - 3, 0)
