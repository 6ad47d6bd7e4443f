"""Closed-form bound evaluators and their Monte Carlo certifications.

Frozen decimals are recomputed independently inside the tests (explicit
arithmetic with math functions) rather than trusted from the implementation.
"""

import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metats import bounds, harness
from metats.agents import Agent
from metats.bounds import (
    BoundParams,
    CertResult,
    Theorem1Bound,
    bounds_report,
    certify_config,
    certify_lemma1,
    certify_lemma3,
    check_technical_lemmas,
    lemma1_bound,
    lemma2_bound,
    lemma3_config,
    lemma3_radius,
    root_gap,
    theorem1_bound,
)
from metats.envs import reward_table, sample_instance_prior, sample_task_instance
from metats.harness import (
    SUB_INSTANCE,
    SUB_REWARDS,
    SUB_RUN,
    ExperimentConfig,
    build_meta_prior,
    run_experiment,
    run_task,
)
from metats.rng import derive_stream, name_substream

SEC5 = BoundParams()  # K=2, n=200, m=20, sigma=1, sigma_0=0.1, sigma_q=0.5, delta=0.05


def lemma3_frequency(config, R, delta):
    """certify_lemma3 over a plain run of lemma3_config."""
    return certify_lemma3(run_experiment(lemma3_config(config, R=R)), delta=delta)


def lemma3_frequency_oracle(config, R, delta):
    """The Lemma 3 violation frequency replayed one replication at a time.

    Every stream is a fresh derive_stream of its (run, task, substream)
    identity, and a replication stops at its first task outside the radius.
    """
    p = BoundParams(
        K=config.K,
        n=config.n,
        m=config.m,
        sigma=config.sigma,
        sigma_0=config.sigma_0,
        sigma_q=config.sigma_q,
        delta=delta,
    )
    seed = config.master_seed
    violations = 0
    for rep in range(R):
        run_stream = derive_stream(seed, rep, 0, SUB_RUN)
        meta_prior = build_meta_prior(config, run_stream)
        true_prior = sample_instance_prior(meta_prior, run_stream)
        agent = Agent("metats", meta_prior, forced_last_k=True)
        for s in range(1, config.m + 1):
            stream = derive_stream(seed, rep, s, name_substream(agent.name))
            agent.begin_task(stream, config.n)
            gap = float(np.max(np.abs(agent.task_prior.mu - true_prior.mu)))
            if gap > bounds.lemma3_radius(p, s):
                violations += 1
                break
            theta = sample_task_instance(true_prior, derive_stream(seed, rep, s, SUB_INSTANCE))
            table = reward_table(
                true_prior, theta, config.n, derive_stream(seed, rep, s, SUB_REWARDS)
            )
            run_task(agent, theta, config.n, stream, rewards=table)
            agent.end_task()
    return violations / float(R)


def per_case_lemmas(trials, seed):
    """check_technical_lemmas with fresh index arrays for every case."""
    gen = derive_stream(seed, 0, 0, 0)
    cases = [(1, 0.0), (100, 0.0), (10, 1.0)]
    ns = gen.integers(1, 10_000 + 1, size=trials)
    avals = gen.uniform(0.0, 1_000.0, size=trials)
    avals[gen.random(size=trials) < 0.125] = 0.0
    cases.extend(zip(ns.tolist(), avals.tolist()))
    failures, worst_sqrt, worst_log = 0, -math.inf, -math.inf
    for n, a in cases:
        i = np.arange(1, n + 1, dtype=float)
        sqrt_sum = float(np.sum(1.0 / np.sqrt(i + a)))
        sqrt_bound = 2.0 * (math.sqrt(n + a) - math.sqrt(a))
        failures += sqrt_sum > sqrt_bound or sqrt_bound > 2.0 * math.sqrt(n) + 1e-12
        worst_sqrt = max(worst_sqrt, sqrt_sum - sqrt_bound)
        if a > 0.0:
            log_sum = float(np.sum(1.0 / (i + a)))
            failures += log_sum > math.log1p(n / a)
            worst_log = max(worst_log, log_sum - math.log1p(n / a))
    return {
        "passed": failures == 0,
        "trials": len(cases),
        "failures": failures,
        "worst_sqrt_slack": worst_sqrt,
        "worst_log_slack": worst_log,
    }


class TestBoundParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(K=0),
            dict(n=0),
            dict(m=0),
            dict(sigma=0.0),
            dict(sigma_0=-1.0),
            dict(sigma_q=0.0),
            dict(delta=0.0),
            dict(delta=1.0),
            dict(sigma=math.inf),
            dict(sigma_0=math.nan),
            dict(sigma_q=1e-200),
            dict(sigma_0=1e200),
            dict(sigma=1e150, sigma_0=1e-150),
            # Scalars of the wrong type (messages: test_cli.py).
            dict(K=2.5),
            dict(m=True),
            dict(m=math.inf),
            dict(K="abc"),
            dict(delta="nan"),
            dict(sigma=True),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            BoundParams(**kw)

    def test_numeric_coercion(self):
        p = BoundParams(K="3", n=50.0, sigma="2", delta="0.1")
        assert (p.K, p.n, p.sigma, p.delta) == (3, 50, 2.0, 0.1)
        assert isinstance(p.n, int) and isinstance(p.sigma, float)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SEC5.n = 100

    def test_replaced(self):
        p = dataclasses.replace(SEC5, n=400, delta=0.1)
        assert (p.n, p.delta) == (400, 0.1)
        assert (p.K, p.sigma_0) == (SEC5.K, SEC5.sigma_0)
        assert SEC5.n == 200
        # replace reruns __post_init__, so the copy is validated too.
        with pytest.raises(ValueError, match="delta must be in"):
            dataclasses.replace(SEC5, delta=2.0)
        with pytest.raises(ValueError, match="sigma_0 must be > 0"):
            dataclasses.replace(SEC5, sigma_0=0.0)


    @pytest.mark.parametrize(
        "kw, named",
        [
            (dict(n=10**160), "n=1e+160"),
            (dict(m=10**308), "m=1e+308"),
            (dict(K=10**300), "K=1e+300"),
            (dict(delta=1e-320), "delta=9.99989e-321"),
            # Only the keys off their default whose reset alone makes every
            # bound finite; when no single reset does, every key off its
            # default, in field order.
            (dict(n=10**160, sigma=2.0, m=40), "n=1e+160"),
            (dict(sigma=1e154, sigma_0=1e154), "sigma=1e+154, sigma_0=1e+154"),
            (dict(n=10**160, m=10**308), "n=1e+160, m=1e+308"),
        ],
    )
    def test_overflowing_bounds_name_the_keys(self, kw, named):
        message = f"^every bound must be a finite float, but they overflow at {re.escape(named)}$"
        with pytest.raises(ValueError, match=message):
            BoundParams(**kw)


# Integers up to 1e300, spread over every decade.
BIG_INTS = st.one_of(
    st.integers(1, 10**300),
    st.builds(lambda a, e: a * 10**e, st.integers(1, 9), st.integers(0, 299)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    K=BIG_INTS,
    n=BIG_INTS,
    m=BIG_INTS,
    # Down to the smallest subnormal.
    delta=st.one_of(
        st.floats(5e-324, 1.0, exclude_max=True),
        st.builds(lambda a, e: a * 10.0**e, st.integers(1, 9), st.integers(-323, -1)),
    ),
)
def test_params_are_refused_by_key_or_emit_finite_json(K, n, m, delta):
    try:
        p = BoundParams(K=K, n=n, m=m, delta=delta)
    except ValueError as exc:
        assert re.search(r"overflow at (K|n|m|delta)=", str(exc)), str(exc)
        return
    json.dumps(bounds_report(p), allow_nan=False)


class TestRootGap:
    def test_benchmark_prior_value(self):
        # sigma^2 sigma_0^-2 K = 200, so the gap is sqrt(400) - sqrt(200).
        expected = math.sqrt(400.0) - math.sqrt(200.0)
        np.testing.assert_allclose(root_gap(200, 2, 1.0, 0.1), expected, rtol=1e-12)
        assert abs(root_gap(200, 2, 1.0, 0.1) - 5.858) < 0.01

    def test_benchmark_marginal_value(self):
        width = math.sqrt(0.5**2 + 0.1**2)
        kappa = 2.0 / 0.26
        expected = math.sqrt(200.0 + kappa) - math.sqrt(kappa)
        np.testing.assert_allclose(
            root_gap(200, 2, 1.0, width), expected, rtol=1e-12
        )
        assert abs(root_gap(200, 2, 1.0, width) - 11.638) < 0.01

    def test_strictly_decreasing_in_prior_concentration(self):
        # Smaller sigma_0 means larger kappa = sigma^2 sigma_0^-2 K and a
        # strictly smaller gap.
        widths = [1.0, 0.5, 0.2, 0.1, 0.05, 0.01]
        gaps = [root_gap(200, 2, 1.0, w) for w in widths]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_diffuse_prior_approaches_sqrt_n(self):
        assert abs(root_gap(200, 2, 1.0, 1e8) - math.sqrt(200.0)) < 1e-6


class TestLemma1:
    def test_concentrated_prior_leaves_only_c_delta(self):
        p = dataclasses.replace(SEC5, sigma_0=1e-9)
        log_term = math.log(1.0 / p.delta)
        c_delta = (
            2.0 * math.sqrt(2.0 * p.sigma_0**2 * log_term) * p.K
            + math.sqrt(2.0 * p.sigma_0**2 / math.pi) * p.K * p.n * p.delta
        )
        assert root_gap(p.n, p.K, p.sigma, p.sigma_0) < 1e-7
        assert lemma1_bound(p) < 1e-5
        assert lemma1_bound(p) >= c_delta

    def test_value_composition(self):
        # The bound is c(delta) plus the exploration constant times the gap,
        # assembled here from scratch.
        p = dataclasses.replace(SEC5, delta=1.0 / 200.0)
        log_term = math.log(200.0)
        c_delta = (
            2.0 * math.sqrt(2.0 * 0.01 * log_term) * 2
            + math.sqrt(2.0 * 0.01 / math.pi) * 2 * 200 * (1.0 / 200.0)
        )
        explore = 4.0 * math.sqrt(2.0 * 1.0 * 2 * log_term)
        expected = c_delta + explore * (math.sqrt(400.0) - math.sqrt(200.0))
        np.testing.assert_allclose(lemma1_bound(p), expected, rtol=1e-12)

    def test_positive_and_finite(self):
        cases = (dataclasses.replace(SEC5, K=8, n=50), dataclasses.replace(SEC5, sigma=3.0))
        for p in (SEC5,) + cases:
            value = lemma1_bound(p)
            assert math.isfinite(value) and value > 0.0

    def test_width_argument_is_the_replaced_params(self):
        width = math.sqrt(SEC5.sigma_q**2 + SEC5.sigma_0**2)
        assert lemma1_bound(SEC5, width) == lemma1_bound(dataclasses.replace(SEC5, sigma_0=width))


class TestLemma2:
    def test_identical_priors_vanish(self):
        p = dataclasses.replace(SEC5, delta=1e-12)
        assert lemma2_bound(p, mu_star_maxnorm=0.6, epsilon=0.0) < 1e-6

    def test_affine_in_epsilon(self):
        v0 = lemma2_bound(SEC5, 0.5, 0.0)
        v1 = lemma2_bound(SEC5, 0.5, 1e-3)
        v2 = lemma2_bound(SEC5, 0.5, 2e-3)
        np.testing.assert_allclose(v2 - v1, v1 - v0, rtol=1e-9)

    def test_epsilon_term_quadratic_in_n(self):
        eps = 1e-3
        small = lemma2_bound(SEC5, 0.5, eps) - lemma2_bound(SEC5, 0.5, 0.0)
        p2 = dataclasses.replace(SEC5, n=400)
        large = lemma2_bound(p2, 0.5, eps) - lemma2_bound(p2, 0.5, 0.0)
        np.testing.assert_allclose(large, 4.0 * small, rtol=1e-9)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            lemma2_bound(SEC5, 0.5, -1e-9)


class TestLemma3:
    def test_first_task_closed_form(self):
        # At s=1 the sampled prior has the meta-prior width itself:
        # radius = 2 sqrt(2 sigma_q^2 log(4K/delta)); log(160) ~ 5.0752.
        expected = 2.0 * math.sqrt(2.0 * 0.25 * math.log(160.0))
        np.testing.assert_allclose(lemma3_radius(SEC5, 1), expected, rtol=1e-12)
        assert abs(lemma3_radius(SEC5, 1) - 3.186) < 1e-3

    def test_strictly_decreasing_in_s(self):
        radii = [lemma3_radius(SEC5, s) for s in range(1, 60)]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_sqrt_s_rate(self):
        # radius(s) * sqrt(s) is uniformly bounded by the s -> inf limit
        # 2 sqrt(2 (sigma_0^2 + sigma^2) log(4K/delta)).
        limit = 2.0 * math.sqrt(2.0 * (0.01 + 1.0) * math.log(160.0))
        values = [
            lemma3_radius(SEC5, s) * math.sqrt(s) for s in (1, 2, 5, 10, 1000, 10**6)
        ]
        assert all(v <= limit + 1e-9 for v in values)

    def test_bad_task_index(self):
        with pytest.raises(ValueError, match=">= 1"):
            lemma3_radius(SEC5, 0)


class TestTheorem1:
    def test_displayed_constants(self):
        t = theorem1_bound(SEC5)
        np.testing.assert_allclose(
            t.c1, 4.0 * math.sqrt(2.0 * math.log(200.0)), rtol=1e-12
        )
        np.testing.assert_allclose(
            t.c2,
            2.0
            * (
                math.sqrt(2.0 * 0.25 * math.log(4.0 / 0.05))
                + math.sqrt(2.0 * 0.01 * math.log(200.0))
            ),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            t.c3,
            8.0 * math.sqrt(1.01 * math.log(160.0) / (math.pi * 0.01)),
            rtol=1e-12,
        )
        assert abs(t.c1 - 13.021) < 1e-3
        assert abs(t.c2 - 3.611) < 1e-3
        assert abs(t.c3 - 102.2) < 0.05

    def test_first_term_linear_in_m(self):
        t1 = theorem1_bound(SEC5)
        t2 = theorem1_bound(dataclasses.replace(SEC5, m=40))
        np.testing.assert_allclose(t2.first_term, 2.0 * t1.first_term, rtol=1e-12)

    def test_second_term_sqrt_m(self):
        t1 = theorem1_bound(SEC5)
        t4 = theorem1_bound(dataclasses.replace(SEC5, m=80))
        np.testing.assert_allclose(t4.second_term, 2.0 * t1.second_term, rtol=1e-12)

    def test_term_accounting(self):
        t = theorem1_bound(SEC5)
        assert t.leading_terms == t.first_term + t.second_term
        assert t.full == t.leading_terms + t.residue
        assert t.first_term > 0 and t.second_term > 0 and t.residue > 0
        d = t.to_json_dict()
        assert d["full"] == t.full
        assert set(d) == {
            "c1",
            "c2",
            "c3",
            "first_term",
            "second_term",
            "residue",
            "leading_terms",
            "full",
        }

    def test_residue_affine_in_m(self):
        r = [theorem1_bound(dataclasses.replace(SEC5, m=m)).residue for m in (10, 20, 30)]
        np.testing.assert_allclose(r[2] - r[1], r[1] - r[0], rtol=1e-12)


class TestTechnicalLemmas:
    def test_frozen_partial_sums(self):
        # Independent recomputation of the three pinned cases.
        s100 = float(np.sum(1.0 / np.sqrt(np.arange(1.0, 101.0))))
        assert abs(s100 - 18.59) < 0.005
        assert s100 <= 2.0 * math.sqrt(100.0)
        # Harmonic tail: sum_{i=1}^{10} 1/(i+1) = H_11 - 1 = 2.019877...
        s10 = float(np.sum(1.0 / (np.arange(1.0, 11.0) + 1.0)))
        assert abs(s10 - 2.0199) < 1e-4
        assert s10 <= math.log(11.0)
        assert abs(math.log(11.0) - 2.398) < 1e-3
        assert 1.0 <= 2.0  # n=1, a=0 case of the sqrt inequality

    def test_randomized_sweep_passes(self):
        result = check_technical_lemmas(trials=500, seed=3)
        assert result["passed"] is True
        assert result["failures"] == 0
        assert result["trials"] == 503  # 3 deterministic + 500 random
        assert result["worst_sqrt_slack"] <= 0.0
        assert result["worst_log_slack"] <= 0.0

    def test_deterministic_across_calls(self):
        a = check_technical_lemmas(trials=200, seed=5)
        b = check_technical_lemmas(trials=200, seed=5)
        assert a == b

    def test_negative_trials_named(self):
        with pytest.raises(ValueError, match="^trials must be >= 0, got -1$"):
            check_technical_lemmas(trials=-1)

    @pytest.mark.parametrize("trials, seed", [(0, 0), (50, 1), (500, 3), (2000, 7)])
    def test_matches_per_case_formula(self, trials, seed):
        # The buffered evaluation must return the very dict of fresh arrays
        # per case: same cases, same slacks to the last bit, same failures.
        assert check_technical_lemmas(trials=trials, seed=seed) == per_case_lemmas(trials, seed)


class TestCertifications:
    def test_lemma1_certificate_small(self):
        config = ExperimentConfig(master_seed=23)
        result = certify_lemma1(config, R=50)
        assert isinstance(result, CertResult)
        assert math.isfinite(result.empirical) and result.empirical >= 0.0
        # The closed-form bound is two orders of magnitude above the
        # simulated oracle regret, so this holds without the stderr slack.
        assert result.empirical < result.bound
        assert result.passed
        d = result.to_json_dict()
        assert d["passed"] is True

    def test_lemma1_degenerate_horizon(self):
        result = certify_lemma1(ExperimentConfig(n=1, master_seed=23), R=200)
        assert result.passed
        # Only the K n delta part of c(delta) survives at delta ~ 1, n=1.
        c_delta_tail = math.sqrt(2.0 * 0.01 / math.pi) * 2.0
        assert result.bound < c_delta_tail * 1.01
        assert result.bound > c_delta_tail * 0.5

    def test_lemma1_monotone_in_prior_width(self):
        narrow = certify_lemma1(ExperimentConfig(master_seed=23), R=60)
        wide = certify_lemma1(
            ExperimentConfig(sigma_0=0.5, master_seed=23), R=60
        )
        assert wide.bound > narrow.bound
        assert wide.empirical > narrow.empirical

    def test_lemma1_rejects_other_families(self):
        with pytest.raises(ValueError, match="gaussian"):
            certify_lemma1(ExperimentConfig(family="bernoulli"), R=10)

    def test_lemma3_frequency_within_guarantee(self):
        config = ExperimentConfig(m=2, n=20, master_seed=23)
        freq = lemma3_frequency(config, R=80, delta=0.3)
        assert 0.0 <= freq <= 1.0
        assert freq <= 2 * 0.3

    def test_lemma3_vacuous_delta(self):
        # m * delta >= 1 imposes nothing; the frequency is still a frequency.
        config = ExperimentConfig(m=2, n=20, master_seed=23)
        freq = lemma3_frequency(config, R=40, delta=0.9)
        assert 0.0 <= freq <= 1.0

    def test_lemma3_key_blocks_do_not_change_the_frequency(self, monkeypatch):
        # Keys derived for every run at once or a few at a time give the same
        # streams. A radius shrunk to 0.3x puts about half the runs outside it
        # at some task, which depends on every draw before it.
        radius = bounds.lemma3_radius
        monkeypatch.setattr(bounds, "lemma3_radius", lambda p, s: 0.3 * radius(p, s))
        config = ExperimentConfig(m=3, n=10, master_seed=23)
        whole = lemma3_frequency(config, R=30, delta=0.1)
        assert whole == 17 / 30
        monkeypatch.setattr(harness, "KEY_BLOCK", 20)
        assert lemma3_frequency(config, R=30, delta=0.1) == whole

    def test_lemma3_degenerate_meta_prior(self):
        config = ExperimentConfig(sigma_q=1e-6, m=2, n=20, master_seed=23)
        assert lemma3_frequency(config, R=80, delta=0.1) == 0.0

    def test_lemma3_input_validation(self):
        with pytest.raises(ValueError, match="gaussian"):
            lemma3_config(ExperimentConfig(family="bernoulli"), R=10)
        with pytest.raises(ValueError, match=r"n must be >= K .*; got n=1, K=2"):
            lemma3_config(ExperimentConfig(n=1, K=2), R=10)
        small = dict(runs=1, m=1, n=2)
        with pytest.raises(ValueError, match="gaussian"):
            certify_lemma3(run_experiment(ExperimentConfig(family="bernoulli", **small)))
        forced = ({"kind": "metats", "forced_last_k": True},)
        short = ExperimentConfig(n=1, K=2, runs=1, m=1, agents=forced)
        with pytest.raises(ValueError, match=r"n must be >= K .*; got n=1, K=2"):
            certify_lemma3(run_experiment(short))
        run = run_experiment(lemma3_config(ExperimentConfig(m=2, n=5), R=2))
        with pytest.raises(ValueError, match="no prior_error"):
            certify_lemma3(dataclasses.replace(run, prior_error={}))

    @pytest.mark.parametrize(
        "agents",
        [
            ({"kind": "oracle"}, {"kind": "metats"}),
            ({"kind": "metats", "forced_last_k": True}, {"kind": "metats", "name": "twin"}),
            ({"kind": "metats", "forced_last_k": True, "misspecification_scale": 2.0},),
        ],
    )
    def test_lemma3_needs_one_forced_correct_metats_agent(self, agents):
        report = run_experiment(ExperimentConfig(runs=1, m=1, n=2, agents=agents))
        with pytest.raises(ValueError, match="exactly one MetaTS agent"):
            certify_lemma3(report)

    def test_lemma3_config_is_a_plain_metats_run(self):
        config = ExperimentConfig(m=4, n=30, runs=3, master_seed=9)
        cert = lemma3_config(config, R=7)
        assert cert.runs == 7
        assert cert.agent_names == ("MetaTS",)
        assert cert.agents[0]["forced_last_k"] is True
        assert dataclasses.replace(cert, runs=3, agents=config.agents) == config


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    Kn=st.integers(2, 4).flatmap(lambda K: st.tuples(st.just(K), st.integers(K, 30))),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    R=st.integers(1, 40),
    scale=st.sampled_from([0.3, 0.5, 1.0]),
)
def test_lemma3_reduction_equals_the_replication_loop(Kn, m, seed, R, scale):
    # Playing on past a task outside the radius cannot change the count: the
    # check at task s reads only draws keyed up to task s.
    config = ExperimentConfig(K=Kn[0], n=Kn[1], m=m, master_seed=seed)
    radius = bounds.lemma3_radius
    with mock.patch.object(bounds, "lemma3_radius", lambda p, s: scale * radius(p, s)):
        assert lemma3_frequency(config, R, 0.1) == lemma3_frequency_oracle(config, R, 0.1)


class TestPriorError:
    AGENTS = (
        {"kind": "oracle"},
        {"kind": "metats"},
        {"kind": "metats", "misspecification_scale": 3.0},
        {"kind": "agnostic"},
    )

    def test_only_gaussian_metats_agents_record_it(self):
        config = ExperimentConfig(K=3, m=3, n=10, runs=4, agents=self.AGENTS)
        report = run_experiment(config)
        assert set(report.prior_error) == {"MetaTS", "MetaTSx3"}
        for errors in report.prior_error.values():
            assert errors.shape == (4, 3)
            assert np.all(errors > 0.0)
        assert "prior_error" not in report.to_json_dict()
        for family in ("bernoulli", "linear"):
            agents = self.AGENTS[:2] if family == "bernoulli" else self.AGENTS
            plain = ExperimentConfig(family=family, m=2, n=5, runs=2, agents=agents)
            assert run_experiment(plain).prior_error == {}

    def test_thread_count_does_not_change_it(self):
        config = ExperimentConfig(K=3, m=3, n=10, runs=4, agents=self.AGENTS)
        serial = run_experiment(config, threads=1).prior_error
        pooled = run_experiment(config, threads=2).prior_error
        assert serial.keys() == pooled.keys()
        for name in serial:
            np.testing.assert_array_equal(serial[name], pooled[name])


class TestBoundsReport:
    def test_certify_config_holds_one_agents_task_cells(self):
        # This config once held three agents while the CLI checked one agent's
        # cells, so an n between the two passed the CLI and then exited 2.
        config = certify_config(BoundParams(n=2_500_000))
        assert (config.family, len(config.agents)) == ("gaussian", 1)
        assert config.task_cells == 2_500_000 * (2 + 2) == harness.MAX_TASK_CELLS
        with pytest.raises(ValueError, match=r"^n \* agents \* \(K \+ noise\)"):
            certify_config(BoundParams(n=2_500_001))

    def test_plain_report(self):
        report = bounds_report(SEC5)
        assert abs(report["root_gap_prior"] - 5.858) < 0.01
        assert abs(report["root_gap_marginal"] - 11.638) < 0.01
        assert report["lemma1_bound_marginal"] > report["lemma1_bound"]
        assert report["lemma3_radius_final"] < report["lemma3_radius_task1"]
        assert report["theorem1"]["full"] == report["full_bound"]
        assert report["empirical"] is None
        assert report["violation_frequency"] is None
        assert "technical_lemmas" not in report
        assert report["params"]["n"] == 200

    def test_certified_report(self):
        p = BoundParams(n=20, m=2)
        report = bounds_report(
            p, certify=True, runs=20, lemma3_delta=0.3, trials=50, master_seed=23
        )
        assert report["empirical"]["passed"] is True
        assert 0.0 <= report["violation_frequency"] <= 1.0
        assert report["technical_lemmas"]["passed"] is True

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"lemma3_delta": 2.0}, r"^lemma3_delta must be in \(0, 1\), got 2.0$"),
            ({"lemma3_delta": math.nan}, r"^lemma3_delta must be in \(0, 1\), got nan$"),
            ({"trials": -1}, r"^trials must be >= 0, got -1$"),
            # The Lemma 1 run (600000 cells) fits; the Lemma 3 run (1.2e7) does not.
            ({"runs": 600_000}, r"^runs \* m \* agents must be <= 10000000"),
        ],
    )
    def test_certified_report_refuses_bad_arguments_before_simulating(
        self, monkeypatch, kwargs, message
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(harness, "_simulate_runs", no_simulation)
        with pytest.raises(ValueError, match=message):
            bounds_report(SEC5, certify=True, **kwargs)

    def test_certified_report_runs_both_simulations_through_run_experiment(self, monkeypatch):
        # Benchmarks time bounds.run_experiment and bounds.certify_lemma3
        # separately and add the two up, so the Lemma 3 run must happen in
        # bounds_report, not inside certify_lemma3.
        configs, inside = [], []
        run, certify = bounds.run_experiment, bounds.certify_lemma3

        def counted_run(config, *args, **kwargs):
            configs.append(config)
            return run(config, *args, **kwargs)

        def counted_certify(*args, **kwargs):
            before = len(configs)
            try:
                return certify(*args, **kwargs)
            finally:
                inside.append(len(configs) - before)

        monkeypatch.setattr(bounds, "run_experiment", counted_run)
        monkeypatch.setattr(harness, "run_experiment", counted_run)
        monkeypatch.setattr(bounds, "certify_lemma3", counted_certify)
        p = BoundParams(n=20, m=2)
        bounds_report(p, certify=True, runs=3, trials=10, master_seed=23)
        assert len(configs) == 2
        assert inside == [0]
        rounds = sum(c.runs * c.m * c.n * len(c.agents) for c in configs)
        assert rounds == 3 * 20 + 3 * 2 * 20
        assert bounds.run_task is harness.run_task
