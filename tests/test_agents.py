"""Policy state machines: MetaTS, OracleTS, and the agnostic baseline."""

import re

import numpy as np
import pytest

from metats.agents import Agent, _default_name, end_tasks, play_tasks
from metats.envs import (
    BetaProductPrior,
    CategoricalWeights,
    GaussianDiagPrior,
    GaussianDiagState,
    LinearGaussianPrior,
    LinearState,
    sample_instance_prior,
)
from metats.harness import ExperimentConfig, _materialize_agents, build_meta_prior
from metats.posteriors import (
    update_meta_posterior_categorical,
    update_meta_posterior_gaussian,
    update_meta_posterior_linear,
)
from metats.rng import derive_stream

P1 = BetaProductPrior(alpha=[6.0, 2.0], beta=[2.0, 6.0])
P2 = BetaProductPrior(alpha=[2.0, 6.0], beta=[6.0, 2.0])
CAT_META = CategoricalWeights(weights=[0.5, 0.5], priors=(P1, P2))
GAUSS_META = GaussianDiagState(mu=np.zeros(2), var=np.full(2, 0.25), sigma_0=0.1, sigma=1.0)


def oracle_agent(prior=None, **kw):
    return Agent(kind="oracle", prior=prior or P1, **kw)


def metats_start(family, scale, **config):
    """The MetaTS agent the harness builds for one run at misspecification scale."""
    agents = ({"kind": "metats", "misspecification_scale": scale},)
    config = ExperimentConfig(family=family, agents=agents, **config)
    meta_prior = build_meta_prior(config, derive_stream(0, 0, 0, 0))
    return _materialize_agents(config, meta_prior, None)[0]


def drive_task(agent, horizon, stream, reward_fn):
    """One full task; returns the action sequence."""
    actions = []
    agent.begin_task(stream, horizon)
    for t in range(horizon):
        arm = agent.select_action(stream)
        agent.observe(arm, reward_fn(t, arm))
        actions.append(arm)
    agent.end_task()
    return actions


class TestAgentSpec:
    """An agent is built from its kind and prior, with an optional name."""

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown agent kind"):
            Agent(kind="ucb", prior=P1)

    def test_exactly_one_prior(self):
        # One prior argument serves every kind, and it is required.
        with pytest.raises(TypeError, match="prior"):
            Agent(kind="metats")
        with pytest.raises(TypeError, match="meta_prior"):
            Agent(kind="metats", prior=CAT_META, meta_prior=CAT_META)

    def test_scale_validation(self):
        # The scale is a config key; the config checks it per agent entry.
        with pytest.raises(ValueError, match="misspecification_scale must be > 0"):
            ExperimentConfig(agents=({"kind": "metats", "misspecification_scale": 0.0},))
        with pytest.raises(ValueError, match="applies to MetaTS only"):
            ExperimentConfig(agents=({"kind": "oracle", "misspecification_scale": 3.0},))

    def test_default_names(self):
        assert oracle_agent().name == "OracleTS"
        assert Agent(kind="agnostic", prior=P1).name == "TS"
        assert Agent(kind="metats", prior=CAT_META).name == "MetaTS"
        assert _default_name("metats", 3.0) == "MetaTSx3"
        assert _default_name("metats", 1 / 3) == "MetaTS/3"
        assert metats_start("gaussian", 3.0).name == "MetaTSx3"

    def test_explicit_name_kept(self):
        assert oracle_agent(name="ideal").name == "ideal"


class TestStateMachine:
    def test_select_outside_task(self):
        agent = oracle_agent()
        with pytest.raises(RuntimeError, match="outside a task"):
            agent.select_action(derive_stream(0, 0, 0, 0))

    def test_double_select(self):
        agent = oracle_agent()
        stream = derive_stream(0, 0, 0, 0)
        agent.begin_task(stream, horizon=5)
        agent.select_action(stream)
        with pytest.raises(RuntimeError, match="observe the previous"):
            agent.select_action(stream)

    def test_observe_mismatched_arm(self):
        agent = oracle_agent()
        stream = derive_stream(0, 0, 1, 0)
        agent.begin_task(stream, horizon=5)
        arm = agent.select_action(stream)
        with pytest.raises(RuntimeError, match="does not match"):
            agent.observe(1 - arm, 1.0)

    def test_premature_end_task(self):
        agent = oracle_agent()
        stream = derive_stream(0, 0, 2, 0)
        agent.begin_task(stream, horizon=5)
        arm = agent.select_action(stream)
        agent.observe(arm, 1.0)
        with pytest.raises(RuntimeError, match="end_task after 1/5"):
            agent.end_task()

    def test_begin_during_task(self):
        agent = oracle_agent()
        stream = derive_stream(0, 0, 3, 0)
        agent.begin_task(stream, horizon=5)
        with pytest.raises(RuntimeError, match="before the previous task ended"):
            agent.begin_task(stream, horizon=5)

    def test_horizon_exhausted(self):
        agent = oracle_agent()
        stream = derive_stream(0, 0, 4, 0)
        agent.begin_task(stream, horizon=2)
        for _ in range(2):
            arm = agent.select_action(stream)
            agent.observe(arm, 1.0)
        assert agent.rounds_played == 2
        with pytest.raises(RuntimeError, match="horizon exhausted"):
            agent.select_action(stream)
        agent.end_task()  # eligible exactly at rounds_played == horizon
        assert agent.tasks_completed == 1

    def test_end_outside_task(self):
        agent = oracle_agent()
        with pytest.raises(RuntimeError, match="outside a task"):
            agent.end_task()

    def test_bad_horizon(self):
        agent = oracle_agent()
        with pytest.raises(ValueError, match=">= 1"):
            agent.begin_task(derive_stream(0, 0, 5, 0), horizon=0)

    @pytest.mark.parametrize("horizon", [2.7, True, 3.0, "3", np.float64(2.0)])
    def test_horizon_must_be_an_integer(self, horizon):
        # A fraction would be cut to its floor and a bool read as 1 or 0.
        agent = oracle_agent()
        message = f"^horizon must be an integer >= 1, got {re.escape(repr(horizon))}$"
        with pytest.raises(ValueError, match=message):
            agent.begin_task(derive_stream(0, 0, 5, 0), horizon)
        assert agent.task_prior is None
        agent.begin_task(derive_stream(0, 0, 5, 0), np.int64(3))
        assert agent.horizon == 3 and type(agent.horizon) is int


class TestActionSelection:
    def test_point_mass_always_best_arm(self):
        # Effectively deterministic posterior at (0.2, 0.9): arm index 1 always.
        prior = GaussianDiagPrior(mu=[0.2, 0.9], sigma_0=1e-9, sigma=1.0)
        agent = Agent(kind="agnostic", prior=prior)
        stream = derive_stream(1, 0, 0, 0)
        agent.begin_task(stream, horizon=100)
        for _ in range(100):
            arm = agent.select_action(stream)
            assert arm == 1
            agent.observe(arm, 0.9)

    def test_exact_tie_breaks_to_lowest_index(self):
        # Identical feature rows give bit-equal samples for both arms.
        prior = LinearGaussianPrior(
            theta_0=[0.3], Sigma=[[0.5]], features=[[1.0], [1.0]], sigma=1.0
        )
        agent = Agent(kind="agnostic", prior=prior)
        stream = derive_stream(1, 0, 1, 0)
        agent.begin_task(stream, horizon=50)
        for _ in range(50):
            arm = agent.select_action(stream)
            assert arm == 0
            agent.observe(arm, 0.1)

    def test_symmetric_posterior_frequency(self):
        # Uninformative Beta(1,1) on both arms at the first round of each
        # task: each arm should win about half of 10^5 selections.
        prior = BetaProductPrior(alpha=[1.0, 1.0], beta=[1.0, 1.0])
        agent = Agent(kind="agnostic", prior=prior)
        stream = derive_stream(2, 0, 0, 0)
        wins = 0
        trials = 100_000
        for _ in range(trials):
            agent.begin_task(stream, horizon=1)
            arm = agent.select_action(stream)
            wins += arm
            agent.observe(arm, 0.0)
            agent.end_task()
        assert abs(wins / trials - 0.5) < 0.01

    def test_forced_last_k_schedule(self):
        # Horizon 200, K=2: the TS rounds are 1..198, then round 199 pulls the
        # first arm and round 200 the second.
        prior = GaussianDiagPrior(mu=[0.9, 0.1], sigma_0=1e-9, sigma=1.0)
        agent = Agent(kind="agnostic", prior=prior, forced_last_k=True)
        stream = derive_stream(3, 0, 0, 0)
        actions = []
        agent.begin_task(stream, horizon=200)
        for t in range(200):
            arm = agent.select_action(stream)
            agent.observe(arm, 0.0)
            actions.append(arm)
        agent.end_task()
        assert actions[198] == 0
        assert actions[199] == 1
        # The unforced rounds all go to the point-mass best arm.
        assert set(actions[:198]) == {0}

    def test_forced_mode_changes_at_most_k_actions(self):
        # With identical streams and rewards, forced and unforced agents agree
        # on every round before the last K.
        prior = BetaProductPrior(alpha=[2.0, 2.0], beta=[2.0, 2.0])
        horizon, k = 30, 2
        actions = {}
        for forced in (False, True):
            agent = Agent(kind="agnostic", prior=prior, forced_last_k=forced)
            acts = []
            agent.begin_task(derive_stream(4, 0, 0, 9), horizon)
            for t in range(horizon):
                arm = agent.select_action(derive_stream(4, 0, 1, 100 + t))
                agent.observe(arm, float(t % 2))
                acts.append(arm)
            agent.end_task()
            actions[forced] = acts
        assert actions[False][: horizon - k] == actions[True][: horizon - k]
        diffs = sum(a != b for a, b in zip(actions[False], actions[True]))
        assert diffs <= k


class TestPriorWiring:
    def test_oracle_prior_constant_across_tasks(self):
        agent = oracle_agent()
        for task in range(3):
            drive_task(
                agent, 4, derive_stream(5, 0, task, 0), lambda t, arm: float(t % 2)
            )
            assert agent.task_prior is P1

    def test_agnostic_prior_constant_across_tasks(self):
        prior = GaussianDiagPrior(mu=[0.0, 0.0], sigma_0=np.sqrt(0.26), sigma=1.0)
        agent = Agent(kind="agnostic", prior=prior)
        for task in range(3):
            drive_task(
                agent, 4, derive_stream(6, 0, task, 0), lambda t, arm: 0.1 * t
            )
            assert agent.task_prior is prior
        # No meta state at all for baselines.
        assert agent.meta is None

    def test_metats_samples_prior_from_meta(self):
        meta = CategoricalWeights(weights=[1.0, 0.0], priors=(P1, P2))
        agent = Agent(kind="metats", prior=meta)
        for task in range(3):
            agent.begin_task(derive_stream(7, 0, task, 0), horizon=2)
            assert agent.task_prior is P1
            for _ in range(2):
                arm = agent.select_action(derive_stream(7, 0, task, 1))
                agent.observe(arm, 1.0)
            agent.end_task()

    def test_misspecification_scale_gaussian(self):
        agent = metats_start("gaussian", 3.0)
        np.testing.assert_allclose(agent.meta.var, (0.5 * 3.0) ** 2, rtol=1e-15)
        agent_narrow = metats_start("gaussian", 1 / 3)
        np.testing.assert_allclose(
            agent_narrow.meta.var, (0.5 / 3.0) ** 2, rtol=1e-12
        )

    def test_misspecification_scale_linear(self):
        agent = metats_start("linear", 2.0, K=3, sigma_q=0.5)
        np.testing.assert_allclose(agent.meta.Lambda, np.eye(2), rtol=1e-15)

    def test_misspecification_scale_categorical_rejected(self):
        with pytest.raises(ValueError, match="the bernoulli family has none"):
            metats_start("bernoulli", 3.0)

    def test_reward_noise_reaches_task_posterior(self):
        agent = metats_start("gaussian", 1.0, sigma=2.0)
        agent.begin_task(derive_stream(8, 0, 0, 0), horizon=1)
        assert agent.task_posterior.sigma == 2.0
        assert agent.meta.sigma == 2.0

    @pytest.mark.parametrize("kind", ["metats", "oracle", "agnostic"])
    def test_task_posterior_assumes_the_prior_noise(self, kind):
        # The noise comes with the prior: a meta-state's sigma reaches the
        # task posterior of the prior MetaTS samples, and a fixed prior's
        # sigma that of OracleTS and TS. Every Gaussian and linear case.
        gauss = GaussianDiagState(mu=np.zeros(2), var=np.full(2, 0.25), sigma_0=0.1, sigma=2.0)
        linear = LinearState(
            mu=np.zeros(2), Lambda=np.eye(2), Sigma=np.eye(2), sigma=2.0, features=np.eye(2)
        )
        for meta in (gauss, linear):
            if kind != "metats":
                meta = sample_instance_prior(meta, derive_stream(1, 0, 0))
            agent = Agent(kind, meta)
            agent.begin_task(derive_stream(8, 0, 0, 0), horizon=1)
            assert agent.task_posterior.sigma == 2.0


class TestMetaLearning:
    def test_gaussian_meta_variance_decreases_for_pulled_arms(self):
        agent = Agent(kind="metats", prior=GAUSS_META)
        var_before = agent.meta.var.copy()
        gen = np.random.default_rng(11)
        agent.begin_task(derive_stream(9, 0, 0, 0), horizon=6)
        for _ in range(6):
            arm = agent.select_action(derive_stream(9, 0, 0, 1))
            agent.observe(arm, float(gen.normal()))
        pulled = np.bincount(agent.log.arms, minlength=agent.num_arms) > 0
        agent.end_task()
        assert np.all(agent.meta.var[pulled] < var_before[pulled])
        unpulled = ~pulled
        assert np.all(agent.meta.var[unpulled] == var_before[unpulled])

    def test_oracle_end_task_changes_only_counters(self):
        agent = oracle_agent()
        drive_task(agent, 3, derive_stream(10, 0, 0, 0), lambda t, arm: 1.0)
        assert agent.tasks_completed == 1
        assert agent.meta is None
        assert agent.task_prior is P1

    def test_categorical_weight_mean_is_nondecreasing_under_true_prior(self):
        # Data generated from P1: the posterior weight of P1 is a
        # supermartingale under the model, so its Monte Carlo mean should be
        # non-decreasing in the task index up to sampling error.
        reps, tasks, horizon = 200, 5, 30
        traces = np.zeros((reps, tasks + 1))
        for rep in range(reps):
            gen = np.random.default_rng(1000 + rep)
            agent = Agent(kind="metats", prior=CAT_META)
            traces[rep, 0] = agent.meta.weights[0]
            for s in range(tasks):
                theta = np.array([gen.beta(6.0, 2.0), gen.beta(2.0, 6.0)])
                agent.begin_task(derive_stream(2000 + rep, 0, s, 0), horizon)
                for t in range(horizon):
                    arm = agent.select_action(derive_stream(2000 + rep, 0, s, 1))
                    reward = float(gen.random() < theta[arm])
                    agent.observe(arm, reward)
                agent.end_task()
                traces[rep, s + 1] = agent.meta.weights[0]
        diffs = np.diff(traces, axis=1)
        mean_diffs = diffs.mean(axis=0)
        stderr_diffs = diffs.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(mean_diffs >= -2.0 * stderr_diffs)
        # And the weight genuinely concentrates on the truth.
        assert traces[:, -1].mean() > 0.8

    def test_degenerate_meta_matches_oracle_actions(self):
        # A meta-prior concentrated on the true instance prior makes MetaTS
        # and OracleTS take identical actions under identical streams.
        meta = CategoricalWeights(weights=[1.0, 0.0], priors=(P1, P2))
        metats = Agent(kind="metats", prior=meta)
        oracle = oracle_agent(P1)
        gen = np.random.default_rng(17)
        horizon, tasks = 25, 3
        for s in range(tasks):
            theta = np.array([gen.beta(6.0, 2.0), gen.beta(2.0, 6.0)])
            table = (gen.random(size=(horizon, 2)) < theta).astype(float)
            seqs = {}
            for label, agent in (("metats", metats), ("oracle", oracle)):
                agent.begin_task(derive_stream(18, 0, s, 3), horizon)
                acts = []
                for t in range(horizon):
                    arm = agent.select_action(derive_stream(18, 0, s, 50 + t))
                    agent.observe(arm, table[t, arm])
                    acts.append(arm)
                agent.end_task()
                seqs[label] = acts
            assert seqs["metats"] == seqs["oracle"]
        # The degenerate weight vector is invariant under the update.
        np.testing.assert_array_equal(metats.meta.weights, [1.0, 0.0])


class TestEndTasks:
    """end_tasks over many agents equals ending each task alone."""

    @staticmethod
    def played(seed):
        """Agents of every kind and family, each at the end of a 12-round task."""
        lin = LinearState(
            mu=np.zeros(2), Lambda=4.0 * np.eye(2), Sigma=0.01 * np.eye(2), sigma=1.0,
            features=np.array([[1.0, 0.0], [0.3, 0.8]]),
        )
        skewed = CategoricalWeights(weights=[0.9, 0.1], priors=(P1, P2))
        wide = GaussianDiagState(mu=[0.1, -0.2], var=[4.0, 4.0], sigma_0=0.1, sigma=1.0)
        agents = [
            Agent("metats", CAT_META), Agent("metats", GAUSS_META), Agent("oracle", P1),
            Agent("metats", lin), Agent("metats", skewed), Agent("metats", wide),
            Agent("agnostic", P2), Agent("metats", CAT_META),
        ]
        gen = np.random.default_rng(seed)
        streams = [derive_stream(seed, 0, 0, i) for i in range(len(agents))]
        tables = []
        for agent, stream in zip(agents, streams):
            agent.begin_task(stream, 12)
            if isinstance(agent.task_prior, BetaProductPrior):
                tables.append((gen.random((12, 2)) < 0.5).astype(float))
            else:
                tables.append(gen.normal(size=(12, 2)))
        play_tasks(agents, streams, tables)
        return agents

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_one_agent_at_a_time(self, seed):
        together, alone = self.played(seed), self.played(seed)
        before = [(agent.meta, agent.log) for agent in alone]
        end_tasks(together)
        for agent in alone:
            agent.end_task()
        update = {
            CategoricalWeights: update_meta_posterior_categorical,
            GaussianDiagState: update_meta_posterior_gaussian,
            LinearState: update_meta_posterior_linear,
        }
        for a, b, (meta, log) in zip(together, alone, before):
            assert (a.tasks_completed, a._in_task) == (b.tasks_completed, b._in_task) == (1, False)
            if a.kind != "metats":
                assert a.meta is b.meta is None
                continue
            want = update[type(meta)](meta, log)
            for state in (a.meta, b.meta):
                for name in ("weights", "mu", "var", "Lambda"):
                    if hasattr(want, name):
                        assert getattr(state, name).tobytes() == getattr(want, name).tobytes()

    def test_checks_every_agent_before_any_update(self):
        agents = self.played(0)
        metas = [agent.meta for agent in agents]
        late = Agent("metats", CAT_META)
        late.begin_task(derive_stream(0, 0, 0, 99), 5)
        with pytest.raises(RuntimeError, match="end_task after 0/5"):
            end_tasks(agents + [late])
        assert all(agent.meta is meta for agent, meta in zip(agents, metas))
        assert all(agent._in_task and agent.tasks_completed == 0 for agent in agents)
        with pytest.raises(RuntimeError, match="end_task outside a task"):
            end_tasks([Agent("oracle", P1)])
