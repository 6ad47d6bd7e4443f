"""Experiment engine: config validation, common random numbers, reports."""

import json
import os
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metats import __version__, harness
from metats.agents import Agent, play_tasks
from metats.envs import (
    BetaProductPrior,
    CategoricalWeights,
    GaussianDiagPrior,
    GaussianDiagState,
    LinearState,
    reward_table,
    sample_instance_prior,
    sample_task_instance,
)
from metats.harness import (
    DEFAULT_BERNOULLI_PRIOR_TABLE,
    DEFAULT_BERNOULLI_WEIGHTS,
    ExperimentConfig,
    RegretReport,
    agnostic_prior_for,
    build_meta_prior,
    emit_report,
    regret_slope,
    run_experiment,
    run_task,
)
from metats.rng import derive_stream, name_substream

SMALL = dict(m=3, n=15, runs=2)
# Eleven weights that Python's sum puts within 1e-9 of 1 and numpy's
# pairwise sum, the one categorical states use, does not.
ELEVEN_WEIGHTS = [
    0.11060546255805882, 0.15589299600275422, 0.01226266979389847, 0.022913499402897473,
    0.14786723381704564, 0.09176484111365023, 0.07376533935806588, 0.040797593432236275,
    0.09479838956802387, 0.17358585944382207, 0.07574611650954695,
]
# Log-uniform over 340 decades, plus every float (zero, subnormal, inf, nan).
WIDTHS = st.floats(-170.0, 170.0).map(lambda e: 10.0**e) | st.floats()
# Beta shapes over the whole normal range, where log_gamma's own limits lie.
SHAPES = st.floats(-307.0, 307.0).map(lambda e: 10.0**e) | st.floats()


class TestExperimentConfig:
    def test_defaults_match_benchmark(self):
        config = ExperimentConfig()
        assert config.family == "gaussian"
        assert (config.K, config.m, config.n, config.runs) == (2, 20, 200, 100)
        assert (config.sigma, config.sigma_0, config.sigma_q) == (1.0, 0.1, 0.5)
        assert config.agent_names == ("OracleTS", "MetaTS", "TS")

    def test_numeric_coercion(self):
        config = ExperimentConfig(K="4", n=50.0, sigma="2.0", **{})
        assert config.K == 4 and isinstance(config.K, int)
        assert config.sigma == 2.0 and isinstance(config.sigma, float)

    @pytest.mark.parametrize(
        "kw, msg",
        [
            (dict(family="poisson"), "family"),
            (dict(K=1), "K must be >= 2"),
            (dict(m=0), "m, n, runs"),
            (dict(n=0), "m, n, runs"),
            (dict(runs=0), "m, n, runs"),
            (dict(master_seed=-1), "master_seed"),
            (dict(sigma=0.0), "must be > 0"),
            (dict(sigma_0=-0.1), "must be > 0"),
            (dict(sigma_q=0.0), "must be > 0"),
            (dict(d=0), "d must be >= 1"),
            (dict(sigma=float("inf")), "^sigma must be > 0 and finite"),
            (dict(sigma_q=float("nan")), "^sigma_q must be > 0 and finite"),
            (dict(sigma_q=1e-200), "^sigma_q must be .* square"),
            (dict(sigma_q=1e-160), "^sigma_q must be .* square"),
            (dict(sigma_0=1e-200), "^sigma_0 must be .* square"),
            (dict(sigma=1e200), "^sigma must be .* square"),
            (dict(sigma=1e150, sigma_0=1e-150), r"sigma\*\*2 / sigma_0\*\*2"),
            (dict(sigma=1e-150, sigma_0=1e150), r"sigma\*\*2 / sigma_0\*\*2"),
            (dict(sigma_0=1.3407807929942596e154), r"sigma\*\*2 / sigma_0\*\*2"),
            (dict(sigma_0=5e153, sigma_q=1.3e154), r"sigma\*\*2 / \(sigma_q\*\*2"),
            (dict(agents=({"kind": "metats", "misspecification_scale": 1e300},)),
             r"^misspecification_scale .* \(sigma_q \* scale\)\*\*2"),
            (dict(agents=({"kind": "metats", "misspecification_scale": 1e-160},)),
             r"^misspecification_scale .* \(sigma_q \* scale\)\*\*2"),
            (dict(family="linear", agents=({"kind": "metats", "misspecification_scale": 1e-300},)),
             r"^misspecification_scale .* 1 / \(sigma_q \* scale\)\*\*2"),
            (dict(family="linear", agents=({"kind": "metats", "misspecification_scale": 1e160},)),
             r"^misspecification_scale .* 1 / \(sigma_q \* scale\)\*\*2"),
            (dict(family="linear", sigma_q=1e-150,
                  agents=({"kind": "metats", "misspecification_scale": 1e-10},)),
             r"^misspecification_scale .* 1 / \(sigma_q \* scale\)\*\*2"),
            (dict(family="bernoulli", agents=({"kind": "metats", "misspecification_scale": 2.0},)),
             r"^misspecification_scale needs a meta-prior width"),
            # Checked in arithmetic before anything is allocated.
            (dict(runs=10**7), r"^runs \* m \* agents must be <= 10000000"),
            (dict(runs=10**5, m=10**5, agents=({"kind": "oracle"},)), r"^runs \* m \* agents"),
            # Integer keys take ints, integral floats and numeric strings only.
            (dict(K=2.9), r"^K must be an integer, got 2.9$"),
            (dict(n=True), r"^n must be an integer, got True$"),
            (dict(runs=float("inf")), r"^runs must be an integer, got inf$"),
            (dict(K="abc"), r"^K must be an integer, got 'abc'$"),
            (dict(master_seed=None), r"^master_seed must be an integer, got None$"),
            (dict(sigma=True), r"^sigma must be a number, got True$"),
            (dict(sigma_0="wide"), r"^sigma_0 must be a number, got 'wide'$"),
            # A task's reward and noise cells, bounded before anything is allocated.
            (dict(n=10**9, m=1, runs=1), r"^n \* agents \* \(K \+ noise\) must be <= 10000000; "
             r"got 1000000000 \* 3 \* \(2 \+ 2\) = 12000000000$"),
            (dict(K=10**7, n=1, agents=({"kind": "oracle"},)), r"^n \* agents \* \(K \+ noise\)"),
            (dict(family="linear", d=10**6, n=5), r"^n \* agents \* \(K \+ noise\)"),
            (dict(output_dir=5), r"^output_dir must be a string, got 5$"),
        ],
    )
    def test_scalar_validation(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            ExperimentConfig(**kw)

    def test_agents_validation(self):
        with pytest.raises(ValueError, match="at least one agent"):
            ExperimentConfig(agents=())
        with pytest.raises(ValueError, match="must be an object"):
            ExperimentConfig(agents=("oracle",))
        with pytest.raises(ValueError, match="unknown agent key"):
            ExperimentConfig(agents=({"kind": "oracle", "seed": 3},))
        with pytest.raises(ValueError, match="agent kind"):
            ExperimentConfig(agents=({"kind": "ucb"},))
        with pytest.raises(ValueError, match="duplicate agent name"):
            ExperimentConfig(agents=({"kind": "oracle"}, {"kind": "oracle"}))
        with pytest.raises(ValueError, match="MetaTS only"):
            ExperimentConfig(
                agents=({"kind": "oracle", "misspecification_scale": 3.0},)
            )
        with pytest.raises(ValueError, match="^forced_last_k must be true or false, got 'false'$"):
            ExperimentConfig(agents=({"kind": "oracle", "forced_last_k": "false"},))
        with pytest.raises(ValueError, match="^forced_last_k must be true or false, got 1$"):
            ExperimentConfig(agents=({"kind": "oracle", "forced_last_k": 1},))
        with pytest.raises(ValueError, match="^misspecification_scale must be a number, got True$"):
            ExperimentConfig(agents=({"kind": "metats", "misspecification_scale": True},))

    @pytest.mark.parametrize("name", [5, "", "a,b", 'x"y', "a\nb", "a\rb", ["MetaTS"]])
    def test_agent_name_must_be_a_csv_field(self, name):
        # A name is written bare into rows.csv and hashed into its stream key.
        with pytest.raises(ValueError, match=f"^agent name must be .*, got {re.escape(repr(name))}$"):
            ExperimentConfig(agents=({"kind": "oracle", "name": name},))

    def test_task_cell_bound_is_inclusive(self):
        # n * agents * (K + noise) = 9,999,996: accepted, and nothing is allocated.
        config = ExperimentConfig(n=833_333, m=1, runs=1)
        assert harness._runs_per_chunk(config) == 1
        with pytest.raises(ValueError, match=r"^n \* agents \* \(K \+ noise\)"):
            ExperimentConfig(n=833_334, m=1, runs=1)

    @pytest.mark.parametrize(
        "family, noise", [("bernoulli", 0), ("gaussian", 5), ("linear", 3)]
    )
    def test_task_cells_count_the_familys_own_noise(self, family, noise):
        # One run holds n * agents * K rewards plus the Thompson noise the
        # family draws per round: none for Beta draws, one normal per arm
        # (Gaussian) or per feature (linear).
        kw = dict(family=family, K=5, d=3, m=1, runs=1, n=10)
        if family == "bernoulli":
            kw["prior_table"] = [[[2, 2]] * 5]
        config = ExperimentConfig(**kw)
        assert config.noise_cells == noise
        assert config.task_cells == 10 * 3 * (5 + noise)
        agents = len(config.agents)
        n_max = harness.MAX_TASK_CELLS // (agents * (5 + noise))
        ExperimentConfig(**{**kw, "n": n_max})
        message = (
            f"^n \\* agents \\* \\(K \\+ noise\\) must be <= 10000000; got {n_max + 1} "
            f"\\* {agents} \\* \\(5 \\+ {noise}\\) = {(n_max + 1) * agents * (5 + noise)}$"
        )
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{**kw, "n": n_max + 1})

    def test_duplicate_detection_uses_default_names(self):
        # Two metats entries at the same scale collide unless renamed.
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentConfig(agents=({"kind": "metats"}, {"kind": "metats"}))
        config = ExperimentConfig(
            agents=({"kind": "metats"}, {"kind": "metats", "name": "MetaTS-b"})
        )
        assert config.agent_names == ("MetaTS", "MetaTS-b")

    def test_prior_table_rejected_outside_bernoulli(self):
        with pytest.raises(ValueError, match="bernoulli family only"):
            ExperimentConfig(prior_table=DEFAULT_BERNOULLI_PRIOR_TABLE)
        with pytest.raises(ValueError, match="bernoulli family only"):
            ExperimentConfig(prior_weights=(0.5, 0.5))

    def test_bernoulli_defaults(self):
        config = ExperimentConfig(family="bernoulli")
        assert config.prior_table == DEFAULT_BERNOULLI_PRIOR_TABLE
        assert config.prior_weights == DEFAULT_BERNOULLI_WEIGHTS

    def test_bernoulli_k3_requires_table(self):
        with pytest.raises(ValueError, match="required for bernoulli with K != 2"):
            ExperimentConfig(family="bernoulli", K=3)
        table = (((2.0, 2.0), (3.0, 1.0), (1.0, 3.0)),)
        config = ExperimentConfig(family="bernoulli", K=3, prior_table=table)
        assert config.prior_weights == (1.0,)

    def test_bernoulli_table_validation(self):
        with pytest.raises(ValueError, match="one \\(alpha, beta\\) per arm"):
            ExperimentConfig(family="bernoulli", prior_table=(((1.0, 1.0),),))
        for shape in (0.0, -1.0, float("nan"), float("inf"), 1e-320, 1e-305, 1e308):
            with pytest.raises(ValueError, match="^prior_table shapes must be > 0"):
                ExperimentConfig(
                    family="bernoulli", prior_table=(((shape, 1.0), (1.0, 1.0)),)
                )
        with pytest.raises(ValueError, match=r"alpha \+ beta \+ n <= 1e\+300"):
            ExperimentConfig(
                family="bernoulli", prior_table=(((6e299, 5e299), (1.0, 1.0)),)
            )
        with pytest.raises(ValueError, match="length must match"):
            ExperimentConfig(
                family="bernoulli",
                prior_table=DEFAULT_BERNOULLI_PRIOR_TABLE,
                prior_weights=(1.0,),
            )
        for weights in ((0.7, 0.7), (float("nan"), 0.5)):
            with pytest.raises(ValueError, match="sum to 1"):
                ExperimentConfig(
                    family="bernoulli",
                    prior_table=DEFAULT_BERNOULLI_PRIOR_TABLE,
                    prior_weights=weights,
                )

    def test_prior_weights_pass_the_categorical_states_rule(self):
        # The config once summed the weights with Python's sum and accepted
        # these; every run then died building the meta-prior.
        table = [[[2, 2], [2, 2]]] * len(ELEVEN_WEIGHTS)
        message = "^prior_weights must be nonnegative and sum to 1 within 1e-9$"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(family="bernoulli", prior_table=table, prior_weights=ELEVEN_WEIGHTS)
        priors = [BetaProductPrior(alpha=[2.0, 2.0], beta=[2.0, 2.0])] * len(ELEVEN_WEIGHTS)
        with pytest.raises(ValueError, match="^weights must be nonnegative and sum to 1 within 1e-9$"):
            CategoricalWeights(weights=ELEVEN_WEIGHTS, priors=priors)

    @pytest.mark.parametrize(
        "kw, msg",
        [
            (dict(prior_weights=(True, False)), "prior_weights entry must be a number, got True"),
            (dict(prior_weights=0.5), "prior_weights must be a list of numbers, got 0.5"),
            (dict(prior_table=(((True, 1.0), (1.0, 1.0)),)),
             "prior_table shape must be a number, got True"),
            (dict(prior_table=((("a", 1.0), (1.0, 1.0)),)),
             "prior_table shape must be a number, got 'a'"),
            (dict(prior_table=(((1.0, 1.0, 1.0), (1.0, 1.0)),)),
             r"prior_table pair must be an \(alpha, beta\) pair, got \(1.0, 1.0, 1.0\)"),
            (dict(prior_table=5), "prior_table must be a list of candidates, got 5"),
            (dict(prior_table=(5,)),
             r"prior_table candidate must be a list of \(alpha, beta\) pairs, got 5"),
        ],
    )
    def test_bernoulli_table_entries_name_the_key(self, kw, msg):
        # Shapes and weights take numbers only, and shapes come in pairs.
        with pytest.raises(ValueError, match=f"^{msg}$"):
            ExperimentConfig(family="bernoulli", **kw)

    def test_echo_excludes_output_dir_and_round_trips(self):
        config = ExperimentConfig(family="bernoulli", output_dir="/tmp/x", **SMALL)
        echoed = config.echo()
        assert "output_dir" not in echoed
        # Echo is pure JSON data and reconstructs the identical config.
        rebuilt = ExperimentConfig(**json.loads(json.dumps(echoed)))
        assert rebuilt.echo() == echoed

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.tuples(*[WIDTHS] * 3),
        st.just(1.0) | WIDTHS,
        st.tuples(*[SHAPES] * 4),
        st.sampled_from(["gaussian", "linear", "bernoulli"]),
    )
    def test_accepted_widths_run_to_finite_regret(self, widths, scale, shapes, family):
        # Soundness of the input domain: whatever validation accepts (widths,
        # MetaTS's misspecification_scale, Bernoulli prior_table shapes, the
        # linear posteriors' conditioning), every agent (with the
        # task-posterior variance checked only at zero pulls) runs without a
        # numerical failure and reports finite outputs.
        sigma, sigma_0, sigma_q = widths
        table = None
        if family == "bernoulli":
            # Widths do not enter the Bernoulli model; the shapes do.
            sigma, sigma_0, sigma_q, scale = 1.0, 0.1, 0.5, 1.0
            a1, b1, a2, b2 = shapes
            table = (((a1, b1), (1.0, 1.0)), ((a2, b2), (2.0, 0.5)))
        try:
            config = ExperimentConfig(
                family=family, sigma=sigma, sigma_0=sigma_0, sigma_q=sigma_q,
                prior_table=table, m=2, n=3, runs=1,
                agents=(
                    {"kind": "oracle"},
                    {"kind": "metats", "misspecification_scale": scale},
                    {"kind": "agnostic"},
                ),
            )
        except ValueError:
            return
        report = run_experiment(config)
        assert np.all(np.isfinite(report.cum_regret))
        for trace in report.true_prior_weight.values():
            assert np.all(np.isfinite(trace))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.floats(-12.0, 12.0).map(lambda e: 10.0**e),
        st.just(1.0) | st.floats(-12.0, 12.0).map(lambda e: 10.0**e),
        st.integers(1, 6),
        st.integers(1, 30),
    )
    def test_accepted_linear_priors_run_to_finite_regret(self, sigma_q, scale, d, n):
        # Linear sigma_q and misspecification_scale up to the accepted edge,
        # where the meta-prior is far wider than sigma_0 and the precision
        # matrices far from the identity's scale: accepted configs run, and
        # rejected ones name the key.
        try:
            config = ExperimentConfig(
                family="linear", K=4, d=d, n=n, m=3, runs=1, sigma_q=sigma_q,
                agents=(
                    {"kind": "oracle"},
                    {"kind": "metats", "misspecification_scale": scale},
                    {"kind": "agnostic"},
                ),
            )
        except ValueError as err:
            assert str(err).startswith(("sigma_q ", "misspecification_scale "))
            return
        assert np.all(np.isfinite(run_experiment(config).cum_regret))


class TestPriorConstruction:
    def test_bernoulli_meta_prior(self):
        config = ExperimentConfig(family="bernoulli")
        meta = build_meta_prior(config, derive_stream(0, 0, 0, 0))
        assert isinstance(meta, CategoricalWeights)
        np.testing.assert_array_equal(meta.weights, [0.5, 0.5])
        np.testing.assert_array_equal(meta.priors[0].alpha, [6.0, 2.0])
        np.testing.assert_array_equal(meta.priors[1].beta, [6.0, 2.0])

    def test_gaussian_meta_prior(self):
        config = ExperimentConfig()
        meta = build_meta_prior(config, derive_stream(0, 0, 0, 0))
        assert isinstance(meta, GaussianDiagState)
        np.testing.assert_array_equal(meta.mu, [0.0, 0.0])
        np.testing.assert_array_equal(meta.var, [0.25, 0.25])
        assert (meta.sigma_0, meta.sigma) == (0.1, 1.0)

    def test_linear_meta_prior_draws_features(self):
        config = ExperimentConfig(family="linear", K=10, d=2)
        meta_a = build_meta_prior(config, derive_stream(5, 3, 0, 0))
        meta_b = build_meta_prior(config, derive_stream(5, 3, 0, 0))
        meta_c = build_meta_prior(config, derive_stream(5, 4, 0, 0))
        assert isinstance(meta_a, LinearState)
        assert meta_a.features.shape == (10, 2)
        assert np.all(np.abs(meta_a.features) <= 0.5)
        np.testing.assert_array_equal(meta_a.features, meta_b.features)
        assert not np.array_equal(meta_a.features, meta_c.features)
        np.testing.assert_array_equal(meta_a.mu, [0.0, 0.0])
        np.testing.assert_allclose(meta_a.Lambda, np.eye(2) / 0.25, rtol=1e-15)
        np.testing.assert_allclose(meta_a.Sigma, 0.01 * np.eye(2), rtol=1e-15)

    def test_agnostic_priors(self):
        bern = ExperimentConfig(family="bernoulli")
        prior = agnostic_prior_for(bern, build_meta_prior(bern, derive_stream(0, 0, 0, 0)))
        np.testing.assert_array_equal(prior.alpha, [1.0, 1.0])
        np.testing.assert_array_equal(prior.beta, [1.0, 1.0])

        gauss = ExperimentConfig()
        prior = agnostic_prior_for(gauss, build_meta_prior(gauss, derive_stream(0, 0, 0, 0)))
        np.testing.assert_array_equal(prior.mu, [0.0, 0.0])
        np.testing.assert_allclose(prior.sigma_0**2, 0.26, rtol=1e-15)

        lin = ExperimentConfig(family="linear", K=4, d=2)
        meta = build_meta_prior(lin, derive_stream(0, 0, 0, 0))
        prior = agnostic_prior_for(lin, meta)
        np.testing.assert_allclose(prior.Sigma, 0.26 * np.eye(2), rtol=1e-15)
        assert prior.features is meta.features


def _state_bits(state) -> tuple:
    return tuple(np.asarray(getattr(state, f.name)).tobytes() for f in fields(state))


class TestMetaTSStartStates:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["gaussian", "linear"]),
        sigma_q=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
        scale=st.just(1.0) | st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    )
    def test_start_states_are_the_scaled_meta_prior(self, family, sigma_q, scale):
        # The start state of a MetaTS at scale s has variance (sigma_q s)^2
        # (Gaussian) or precision I / sigma_q^2 / s^2 (linear), bit for bit.
        # The scale-1 agent starts from the run's meta-prior object itself;
        # after a task it holds a new state and that object is unchanged.
        config = ExperimentConfig(
            family=family,
            K=3,
            d=2,
            m=2,
            n=5,
            runs=1,
            sigma_q=sigma_q,
            agents=(
                {"kind": "metats", "name": "start"},
                {"kind": "metats", "misspecification_scale": scale, "name": "scaled"},
                {"kind": "oracle"},
            ),
        )
        meta_prior = build_meta_prior(config, derive_stream(0, 0, 0, 0))
        true_prior = sample_instance_prior(meta_prior, derive_stream(0, 0, 0, 1))
        agents = harness._materialize_agents(config, meta_prior, true_prior)
        assert agents[0].meta is meta_prior
        for agent, s in zip(agents, (1.0, scale)):
            if family == "gaussian":
                got, expected = agent.meta.var, np.full(config.K, (sigma_q * s) ** 2)
            else:
                got, expected = agent.meta.Lambda, np.eye(config.d) / sigma_q**2 / s**2
            assert got.tobytes() == expected.tobytes()
        before = _state_bits(meta_prior)
        theta = sample_task_instance(true_prior, derive_stream(0, 0, 1, 1))
        table = reward_table(true_prior, theta, config.n, derive_stream(0, 0, 1, 2))
        streams = [derive_stream(0, 0, 1, 16 + i) for i in range(len(agents))]
        for agent, stream in zip(agents, streams):
            agent.begin_task(stream, config.n)
        play_tasks(agents, streams, [table] * len(agents))
        for agent in agents:
            agent.end_task()
        assert agents[0].meta is not meta_prior
        assert _state_bits(meta_prior) == before


def point_mass_agent(mu):
    prior = GaussianDiagPrior(mu=np.asarray(mu, dtype=float), sigma_0=1e-9, sigma=1.0)
    return Agent("agnostic", prior)


class TestRunTask:
    def test_best_arm_agent_has_zero_regret(self):
        agent = point_mass_agent([0.0, 1.0])
        stream = derive_stream(0, 0, 1, 0)
        agent.begin_task(stream, 10)
        _, regret = run_task(agent, np.array([0.0, 1.0]), 10, stream, rewards=np.zeros((10, 2)))
        agent.end_task()
        np.testing.assert_array_equal(regret, np.zeros(10))

    def test_worst_arm_agent_pays_gap_every_round(self):
        # The gap is computed from the true means, not the realized rewards:
        # the reward table is all zeros yet regret is still 0.7 per round.
        agent = point_mass_agent([1.0, -1.0])
        stream = derive_stream(0, 0, 2, 0)
        agent.begin_task(stream, 8)
        log, regret = run_task(agent, np.array([0.3, 1.0]), 8, stream, rewards=np.zeros((8, 2)))
        agent.end_task()
        np.testing.assert_allclose(regret, np.full(8, 0.7), rtol=1e-15)
        np.testing.assert_array_equal(log.pull_counts, [8.0, 0.0])


experiments = st.fixed_dictionaries(
    {
        "family": st.sampled_from(["gaussian", "bernoulli", "linear"]),
        "K": st.integers(2, 5),
        "d": st.integers(1, 3),
        "m": st.integers(1, 4),
        "n": st.integers(1, 40),
        "runs": st.integers(1, 4),
        "kinds": st.lists(
            st.sampled_from(["oracle", "metats", "agnostic"]), min_size=1, max_size=3, unique=True
        ),
        "forced": st.booleans(),
        "seed": st.integers(0, 2**16),
    }
)


def _experiment_config(case) -> ExperimentConfig:
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
        d=case["d"],
        m=case["m"],
        n=case["n"],
        runs=case["runs"],
        prior_table=table,
        agents=tuple({"kind": kind, "forced_last_k": case["forced"]} for kind in case["kinds"]),
        master_seed=case["seed"],
    )


def cum_regret_oracle(config: ExperimentConfig) -> np.ndarray:
    """run_experiment's cum_regret replayed one (run, agent) pair at a time.

    Every stream is a fresh derive_stream of its (run, task, substream)
    identity, and every task is played alone through run_task.
    """
    seed = config.master_seed
    per_task = np.zeros((len(config.agents), config.runs, config.m))
    for run in range(config.runs):
        run_stream = derive_stream(seed, run, 0, harness.SUB_RUN)
        meta_prior = build_meta_prior(config, run_stream)
        true_prior = sample_instance_prior(meta_prior, run_stream)
        agents = harness._materialize_agents(config, meta_prior, true_prior)
        for s in range(1, config.m + 1):
            theta = sample_task_instance(
                true_prior, derive_stream(seed, run, s, harness.SUB_INSTANCE)
            )
            table = reward_table(
                true_prior, theta, config.n, derive_stream(seed, run, s, harness.SUB_REWARDS)
            )
            for a, agent in enumerate(agents):
                stream = derive_stream(seed, run, s, name_substream(agent.name))
                agent.begin_task(stream, config.n)
                _, regret = run_task(agent, theta, config.n, stream, rewards=table)
                agent.end_task()
                per_task[a, run, s - 1] = float(regret.sum())
    return np.cumsum(per_task, axis=2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(experiments)
def test_cum_regret_equals_a_pair_at_a_time_replay(case):
    config = _experiment_config(case)
    report = run_experiment(config)
    assert report.cum_regret.tobytes() == cum_regret_oracle(config).tobytes()


class TestRunExperiment:
    def test_repeat_runs_bit_identical(self):
        config = ExperimentConfig(master_seed=7, **SMALL)
        rep_a = run_experiment(config)
        rep_b = run_experiment(config)
        assert rep_a.cum_regret.shape == (3, 2, 3)
        np.testing.assert_array_equal(rep_a.cum_regret, rep_b.cum_regret)

    def test_seed_changes_results(self):
        rep_a = run_experiment(ExperimentConfig(master_seed=7, **SMALL))
        rep_b = run_experiment(ExperimentConfig(master_seed=8, **SMALL))
        assert not np.array_equal(rep_a.cum_regret, rep_b.cum_regret)

    def test_cumulative_regret_monotone(self):
        rep = run_experiment(ExperimentConfig(master_seed=7, **SMALL))
        assert np.all(rep.cum_regret[:, :, 0] >= 0.0)
        assert np.all(np.diff(rep.cum_regret, axis=2) >= 0.0)

    def test_adding_agents_does_not_perturb_others(self):
        # Agent streams are keyed by name, so the shared agents' numbers are
        # bit-identical whether or not the misspecified variants run.
        base = ExperimentConfig(master_seed=11, **SMALL)
        wide = ExperimentConfig(
            master_seed=11,
            agents=(
                {"kind": "oracle"},
                {"kind": "metats"},
                {"kind": "metats", "misspecification_scale": 3.0},
                {"kind": "agnostic"},
            ),
            **SMALL,
        )
        rep_base = run_experiment(base)
        rep_wide = run_experiment(wide)
        for name in ("OracleTS", "MetaTS", "TS"):
            np.testing.assert_array_equal(
                rep_base.cum_regret[rep_base.agent_index(name)],
                rep_wide.cum_regret[rep_wide.agent_index(name)],
            )

    def test_threads_do_not_change_results(self):
        config = ExperimentConfig(master_seed=13, m=2, n=10, runs=4)
        serial = run_experiment(config, threads=1)
        parallel = run_experiment(config, threads=2)
        np.testing.assert_array_equal(serial.cum_regret, parallel.cum_regret)

    @pytest.mark.parametrize("threads", [0, -3, harness.MAX_THREADS + 1])
    def test_threads_out_of_range_rejected_before_any_run(self, threads, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(harness, "_simulate_runs", no_simulation)
        with pytest.raises(ValueError, match=rf"^threads must be in \[1, 64\], got {threads}$"):
            run_experiment(ExperimentConfig(**SMALL), threads=threads)

    def test_linear_threads_give_byte_identical_reports(self, tmp_path):
        # One process stacks all 17 runs into one chunk; two processes get
        # chunks of 3 runs (2 for the last), so the stacked kernel sees other
        # batches.
        config = ExperimentConfig(family="linear", K=5, d=3, m=2, n=15, runs=17, master_seed=13)
        files = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            paths = emit_report(run_experiment(config, threads=threads), str(out))
            files[threads] = {name: (out / name).read_bytes() for name in map(os.path.basename, paths)}
        assert files[1] == files[2]

    def test_key_blocks_and_vectorized_keys_do_not_change_reports(self, monkeypatch):
        # Keys derived for all tasks at once, one task per call, or taken
        # from numpy's SeedSequence stream by stream give the same report; a
        # master seed above 2**32 takes two key words.
        def fresh_streams(seed, runs, tasks, subs):
            return np.array(
                [[[derive_stream(seed, r, t, s).bit_generator.state["state"]["key"]
                   for s in subs] for t in tasks] for r in runs]
            )

        for kw in (dict(family="bernoulli", m=4, n=5, runs=3), dict(m=3, n=6, runs=2)):
            config = ExperimentConfig(master_seed=2**40 + 3, **kw)
            whole = run_experiment(config)
            monkeypatch.setattr(harness, "KEY_BLOCK", 1)
            one_task = run_experiment(config)
            monkeypatch.setattr(harness, "stream_keys", fresh_streams)
            fresh = run_experiment(config)
            monkeypatch.undo()
            for report in (one_task, fresh):
                np.testing.assert_array_equal(report.cum_regret, whole.cum_regret)
                assert report.to_json_dict() == whole.to_json_dict()

    def test_linear_metats_unchanged_without_the_other_agents(self):
        kw = dict(family="linear", K=5, d=3, m=3, n=20, runs=3, master_seed=17)
        full = run_experiment(ExperimentConfig(**kw))
        alone = run_experiment(ExperimentConfig(agents=({"kind": "metats"},), **kw))
        np.testing.assert_array_equal(
            full.cum_regret[full.agent_index("MetaTS")], alone.cum_regret[0]
        )

    def test_progress_callback(self):
        # Finished (run, task) cells: after every task when serial (both runs
        # share one chunk), after every one-run chunk with worker processes.
        config = ExperimentConfig(master_seed=7, **SMALL)
        for threads, expected in ((1, [(2, 6), (4, 6), (6, 6)]), (2, [(3, 6), (6, 6)])):
            calls = []
            run_experiment(config, threads=threads, progress=lambda *cell: calls.append(cell))
            assert calls == expected

    def test_bernoulli_weight_traces(self):
        config = ExperimentConfig(family="bernoulli", master_seed=7, **SMALL)
        rep = run_experiment(config)
        trace = rep.true_prior_weight["MetaTS"]
        assert trace.shape == (2, 4)  # (runs, m + 1)
        np.testing.assert_array_equal(trace[:, 0], [0.5, 0.5])
        assert np.all((trace >= 0.0) & (trace <= 1.0))
        # Gaussian runs carry no weight traces.
        rep_g = run_experiment(ExperimentConfig(master_seed=7, **SMALL))
        assert rep_g.true_prior_weight == {}


class TestRegretReport:
    def make_report(self):
        gen = np.random.default_rng(3)
        cum = np.cumsum(gen.uniform(0.0, 2.0, size=(2, 5, 4)), axis=2)
        agents = ({"kind": "oracle", "name": "A"}, {"kind": "oracle", "name": "B"})
        return RegretReport(ExperimentConfig(agents=agents, master_seed=9), cum)

    def test_mean_and_stderr_against_numpy(self):
        rep = self.make_report()
        np.testing.assert_allclose(rep.mean(), rep.cum_regret.mean(axis=1))
        expected = rep.cum_regret.std(axis=1, ddof=1) / np.sqrt(5)
        np.testing.assert_allclose(rep.stderr(), expected)
        assert rep.final_mean("B") == rep.mean()[1, -1]
        assert rep.final_stderr("A") == rep.stderr()[0, -1]

    def test_single_run_stderr_is_zero(self):
        config = ExperimentConfig(agents=({"kind": "oracle", "name": "A"},), master_seed=0)
        rep = RegretReport(config, np.ones((1, 1, 3)))
        np.testing.assert_array_equal(rep.stderr(), np.zeros((1, 3)))

    def test_unknown_agent(self):
        rep = self.make_report()
        with pytest.raises(KeyError, match="no agent named"):
            rep.agent_index("C")

    def test_json_round_trip_exact(self):
        # report.json is read back with json.load; there is no reader of its own.
        rep = self.make_report()
        rep.true_prior_weight = {"A": np.array([[0.5, 0.625, 1.0]])}
        back = json.loads(json.dumps(rep.to_json_dict()))
        assert tuple(back["agents"]) == rep.agent_names == ("A", "B")
        assert back["master_seed"] == rep.master_seed == 9
        assert back["version"] == __version__
        assert back["config"] == rep.config.echo()
        cum = np.array([back["cum_regret"][name] for name in back["agents"]])
        np.testing.assert_array_equal(cum, rep.cum_regret)
        np.testing.assert_array_equal(
            back["true_prior_weight"]["A"], rep.true_prior_weight["A"]
        )

    def test_agents_and_seed_are_the_configs(self):
        rep = self.make_report()
        assert rep.agent_names == rep.config.agent_names
        assert rep.master_seed == rep.config.master_seed
        assert [f.name for f in fields(RegretReport)] == [
            "config", "cum_regret", "true_prior_weight", "prior_error"
        ]


class TestRegretSlope:
    def linear_report(self, per_task):
        cum = np.cumsum(np.full((1, 3, 6), per_task), axis=2)
        config = ExperimentConfig(agents=({"kind": "oracle", "name": "A"},), master_seed=0)
        return RegretReport(config, cum)

    def test_constant_per_task_regret_gives_that_slope(self):
        rep = self.linear_report(1.75)
        np.testing.assert_allclose(regret_slope(rep, "A", (1, 6)), 1.75, rtol=1e-12)
        np.testing.assert_allclose(regret_slope(rep, "A", (4, 6)), 1.75, rtol=1e-12)

    def test_zero_regret_gives_zero_slope(self):
        rep = self.linear_report(0.0)
        assert regret_slope(rep, "A", (2, 5)) == 0.0

    def test_window_validation(self):
        rep = self.linear_report(1.0)
        with pytest.raises(ValueError, match="outside"):
            regret_slope(rep, "A", (0, 4))
        with pytest.raises(ValueError, match="outside"):
            regret_slope(rep, "A", (3, 7))
        with pytest.raises(ValueError, match="at least 2 tasks"):
            regret_slope(rep, "A", (4, 4))


class TestEmitReport:
    def small_report(self):
        config = ExperimentConfig(family="bernoulli", master_seed=7, **SMALL)
        return run_experiment(config)

    def test_writes_all_formats(self, tmp_path):
        rep = self.small_report()
        written = emit_report(rep, str(tmp_path), fmt="both")
        assert [os.path.basename(p) for p in written] == [
            "rows.csv",
            "summary.csv",
            "report.json",
        ]
        rows = (tmp_path / "rows.csv").read_text().splitlines()
        assert rows[0] == "agent,run,task,cum_regret"
        assert len(rows) == 1 + 3 * 2 * 3  # header + agents*runs*tasks
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "agent,task,mean,stderr"
        assert len(summary) == 1 + 3 * 3

    def test_format_selection(self, tmp_path):
        rep = self.small_report()
        only_csv = emit_report(rep, str(tmp_path / "c"), fmt="csv")
        assert [os.path.basename(p) for p in only_csv] == ["rows.csv", "summary.csv"]
        only_json = emit_report(rep, str(tmp_path / "j"), fmt="json")
        assert [os.path.basename(p) for p in only_json] == ["report.json"]
        with pytest.raises(ValueError, match="format must be"):
            emit_report(rep, str(tmp_path), fmt="xml")

    def test_reemission_byte_identical(self, tmp_path):
        rep = self.small_report()
        emit_report(rep, str(tmp_path / "a"))
        emit_report(rep, str(tmp_path / "b"))
        for name in ("rows.csv", "summary.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_csv_floats_round_trip(self, tmp_path):
        rep = self.small_report()
        emit_report(rep, str(tmp_path), fmt="csv")
        lines = (tmp_path / "rows.csv").read_text().splitlines()[1:]
        for line in lines:
            name, run, task, value = line.split(",")
            i = rep.agent_index(name)
            stored = rep.cum_regret[i, int(run), int(task) - 1]
            assert float(value) == stored

    def test_json_mirror_parses_and_matches(self, tmp_path):
        rep = self.small_report()
        emit_report(rep, str(tmp_path), fmt="json")
        raw = (tmp_path / "report.json").read_text()
        assert raw.endswith("\n")
        assert json.loads(raw) == json.loads(json.dumps(rep.to_json_dict()))


class TestBaselineFlatness:
    def test_fixed_prior_agents_have_flat_per_task_regret(self, gaussian_report):
        # OracleTS and TS never learn across tasks, so their expected
        # per-task regret is constant in s: every sliding window of m/4
        # tasks must have a mean within 4 stderr of the global per-task
        # mean. Windows, not single tasks: per-task regret is heavy-tailed
        # and a width-1 sample mean at R=100 is not yet Gaussian.
        rep = gaussian_report
        per_task = np.diff(rep.cum_regret, axis=2, prepend=0.0)
        width = rep.num_tasks // 4
        for name in ("OracleTS", "TS"):
            i = rep.agent_index(name)
            global_mean = per_task[i].mean()
            for start in range(rep.num_tasks - width + 1):
                window = per_task[i][:, start : start + width].mean(axis=1)
                stderr = window.std(ddof=1) / np.sqrt(rep.runs)
                assert abs(window.mean() - global_mean) <= 4.0 * stderr

    def test_oracle_beats_uniform_random_play(self, bernoulli_report):
        # Uniform play on two arms pays the gap half the time, so its
        # expected per-task regret is n * E|theta_1 - theta_2| / 2; the
        # expectation is estimated by direct Monte Carlo on the mirrored
        # Beta(6,2)/Beta(2,6) prior.
        rep = bernoulli_report
        i = rep.agent_index("OracleTS")
        per_task = float(rep.final_mean("OracleTS")) / rep.num_tasks
        gen = np.random.default_rng(101)
        gaps = np.abs(gen.beta(6, 2, 500_000) - gen.beta(2, 6, 500_000))
        uniform_per_task = 200 * float(gaps.mean()) / 2.0
        assert np.isfinite(per_task)
        assert per_task < uniform_per_task
