"""Closed-form regret bound evaluators and Monte Carlo certifications.

The evaluators compute the prior-dependent per-task bound, the prior-mismatch
sensitivity bound, the meta-posterior concentration radius, and the m-task
bound assembled from them. Certifications check the inequalities empirically
on plain run_experiment runs: lemma 1 on the regret of OracleTS, lemma 3 on
the sampled-prior errors a run of lemma3_config records.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from .harness import (
    DEFAULT_MASTER_SEED, GAUSSIAN, ExperimentConfig, RegretReport, _as_float, _as_int,
    check_widths, run_experiment,
)
# perfbench/worker.py wraps bounds.run_task before any run, so the name stays.
from .harness import run_task  # noqa: F401
from .rng import derive_stream

__all__ = [
    "MODEL_KEYS",
    "BoundParams",
    "Theorem1Bound",
    "CertResult",
    "root_gap",
    "lemma1_bound",
    "lemma2_bound",
    "lemma3_radius",
    "theorem1_bound",
    "certify_config",
    "certify_lemma1",
    "lemma3_config",
    "certify_lemma3",
    "check_technical_lemmas",
    "bounds_report",
]


# The keys BoundParams shares with ExperimentConfig; it adds delta.
MODEL_KEYS = ("K", "n", "m", "sigma", "sigma_0", "sigma_q")


def _model(source) -> dict:
    """The MODEL_KEYS values of a BoundParams or an ExperimentConfig."""
    return {key: getattr(source, key) for key in MODEL_KEYS}


@dataclass(frozen=True)
class BoundParams:
    """Problem parameters the bounds are evaluated at; defaults are the
    two-armed Gaussian benchmark (n=200, sigma=1, sigma_0=0.1, sigma_q=0.5).
    Params at which a number bounds_report emits is not a finite float are
    refused, naming the off-default keys whose lone reset fixes that (or all)."""

    K: int = 2
    n: int = 200
    m: int = 20
    sigma: float = 1.0
    sigma_0: float = 0.1
    sigma_q: float = 0.5
    delta: float = 0.05

    def __post_init__(self):
        for key in ("K", "n", "m"):
            object.__setattr__(self, key, _as_int(key, getattr(self, key)))
        for key in ("sigma", "sigma_0", "sigma_q", "delta"):
            object.__setattr__(self, key, _as_float(key, getattr(self, key)))
        if self.K < 1 or self.n < 1 or self.m < 1:
            raise ValueError("K, n, m must be >= 1")
        check_widths(self.sigma, self.sigma_0, self.sigma_q)
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must be in (0, 1)")
        values, defaults = asdict(self), {f.name: f.default for f in fields(self)}
        if not _emits_finite(values):
            off = [key for key in defaults if values[key] != defaults[key]]
            named = [key for key in off if _emits_finite({**values, key: defaults[key]})] or off
            raise ValueError(
                "every bound must be a finite float, but they overflow at "
                + ", ".join(f"{key}={values[key]:g}" for key in named)
            )


def root_gap(n: int, K: int, sigma: float, sigma_0: float) -> float:
    """sqrt(n + sigma^2 sigma_0^-2 K) - sqrt(sigma^2 sigma_0^-2 K).

    The prior-concentration factor of the per-task bound: it vanishes as the
    prior narrows and approaches sqrt(n) for a diffuse prior.
    """
    kappa = sigma**2 / sigma_0**2 * K
    return math.sqrt(n + kappa) - math.sqrt(kappa)


def lemma1_bound(p: BoundParams, sigma_0: float | None = None) -> float:
    """Per-task Bayes regret of TS that samples from the true instance prior,
    of width sigma_0 (default p.sigma_0)."""
    sigma_0 = p.sigma_0 if sigma_0 is None else sigma_0
    log_term = math.log(1.0 / p.delta)
    c_delta = 2.0 * math.sqrt(2.0 * sigma_0**2 * log_term) * p.K
    c_delta += math.sqrt(2.0 * sigma_0**2 / math.pi) * p.K * p.n * p.delta
    explore = 4.0 * math.sqrt(2.0 * p.sigma**2 * p.K * log_term)
    return c_delta + explore * root_gap(p.n, p.K, p.sigma, sigma_0)


def lemma2_bound(p: BoundParams, mu_star_maxnorm: float, epsilon: float) -> float:
    """Extra per-task regret of TS whose prior means are off by at most epsilon
    in the max norm, relative to the true prior."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    first = (
        4.0
        * (math.sqrt(p.sigma_0**2 / (2.0 * math.pi)) + mu_star_maxnorm)
        * p.K
        * p.n
        * p.delta
    )
    second = (
        2.0
        * (mu_star_maxnorm + math.sqrt(2.0 * p.sigma_0**2 * math.log(1.0 / p.delta)))
        * math.sqrt(2.0 / (math.pi * p.sigma_0**2))
        * p.K
        * p.n**2
        * epsilon
    )
    return first + second


def lemma3_radius(p: BoundParams, s: int) -> float:
    """Max-norm radius around the true prior means that the prior sampled at
    task s stays within, jointly over all tasks w.p. at least 1 - m delta."""
    if s < 1:
        raise ValueError("task index s must be >= 1")
    width = p.sigma_0**2 + p.sigma**2
    var_s = width / (width / p.sigma_q**2 + s - 1.0)
    return 2.0 * math.sqrt(2.0 * var_s * math.log(4.0 * p.K / p.delta))


@dataclass(frozen=True)
class Theorem1Bound:
    """The m-task bound split into its displayed pieces.

    first_term is linear in m (per-task cost of TS with a known prior),
    second_term is the O(sqrt(m)) cost of prior estimation, and residue is
    the explicit task-1 and forced-pull remainder the statement absorbs into
    its additive O~(Km + n) term.
    """

    c1: float
    c2: float
    c3: float
    first_term: float
    second_term: float
    residue: float

    @property
    def leading_terms(self) -> float:
        return self.first_term + self.second_term

    @property
    def full(self) -> float:
        return self.leading_terms + self.residue

    def to_json_dict(self) -> dict:
        return {**asdict(self), "leading_terms": self.leading_terms, "full": self.full}


def theorem1_bound(p: BoundParams) -> Theorem1Bound:
    """Bayes regret of the meta-learning policy over m tasks of horizon n."""
    log_n = math.log(p.n)
    log_2k = math.log(2.0 * p.K / p.delta)
    log_4k = math.log(4.0 * p.K / p.delta)
    c1 = 4.0 * math.sqrt(2.0 * p.sigma**2 * log_n)
    c2 = 2.0 * (
        math.sqrt(2.0 * p.sigma_q**2 * log_2k) + math.sqrt(2.0 * p.sigma_0**2 * log_n)
    )
    c3 = 8.0 * math.sqrt((p.sigma_0**2 + p.sigma**2) * log_4k / (math.pi * p.sigma_0**2))
    gap = root_gap(p.n, p.K, p.sigma, p.sigma_0)
    first = c1 * math.sqrt(p.K) * gap * p.m
    second = c2 * c3 * p.K * p.n**2 * math.sqrt(p.m)
    residue = (
        4.0
        * math.sqrt((p.sigma_q**2 + p.sigma_0**2) * log_2k)
        * (p.n + p.K * p.m)
    )
    return Theorem1Bound(
        c1=c1, c2=c2, c3=c3, first_term=first, second_term=second, residue=residue
    )


@dataclass(frozen=True)
class CertResult:
    """Empirical quantity vs. a closed-form bound, with Monte Carlo stderr."""

    empirical: float
    bound: float
    stderr: float

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.stderr

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def certify_config(p: BoundParams, master_seed: int = DEFAULT_MASTER_SEED) -> ExperimentConfig:
    """The Gaussian config both certifications run at p, each with its own agent."""
    return ExperimentConfig(
        family=GAUSSIAN, runs=1, agents=({"kind": "oracle"},), master_seed=master_seed, **_model(p)
    )


def certify_lemma1(config: ExperimentConfig, R: int = 1000) -> CertResult:
    """Single-task regret of TS with the correct prior vs. its bound at
    delta = 1/n. Runs R independent single-task Gaussian experiments."""
    if config.family != GAUSSIAN:
        raise ValueError("lemma 1 certification needs the gaussian family")
    report = run_experiment(replace(config, m=1, runs=int(R), agents=({"kind": "oracle"},)))
    name = report.agent_names[0]
    # delta = 1/n, clamped below 1 so the n=1 degenerate horizon stays valid
    # (log(1/delta) -> 0 there, leaving only the n*delta part of c(delta)).
    p = BoundParams(**_model(report.config), delta=min(1.0 / config.n, 1.0 - 1e-9))
    return CertResult(
        empirical=report.final_mean(name), bound=lemma1_bound(p), stderr=report.final_stderr(name)
    )


def _check_lemma3(family: str, K: int, n: int) -> None:
    if family != GAUSSIAN:
        raise ValueError("lemma 3 certification needs the gaussian family")
    if n < K:
        raise ValueError(f"n must be >= K for forced terminal pulls; got n={n}, K={K}")


def lemma3_config(config: ExperimentConfig, R: int = 1000) -> ExperimentConfig:
    """The run certify_lemma3 reduces: R runs of the config played by MetaTS
    alone, with forced terminal pulls (every arm seen at least once per task,
    the hypothesis of the radius formula)."""
    _check_lemma3(config.family, config.K, config.n)
    return replace(config, runs=int(R), agents=({"kind": "metats", "forced_last_k": True},))


def certify_lemma3(report: RegretReport, delta: float = 0.1) -> float:
    """Fraction of runs where some task's sampled prior mean leaves the
    concentration radius around the true prior mean.

    report is a run of lemma3_config; each of its runs draws one true prior,
    and its prior_error holds the distance of the prior MetaTS sampled at
    the start of every task. The guarantee is frequency <= m * delta.
    """
    c = report.config
    _check_lemma3(c.family, c.K, c.n)
    metats = [a for a in c.agents if a["kind"] == "metats"]
    if [(a["forced_last_k"], a["misspecification_scale"]) for a in metats] != [(True, 1.0)]:
        raise ValueError(
            "lemma 3 certification needs exactly one MetaTS agent, with "
            "forced_last_k and misspecification_scale 1"
        )
    p = BoundParams(**_model(c), delta=delta)
    radii = np.array([lemma3_radius(p, s) for s in range(1, p.m + 1)])
    errors = report.prior_error.get(metats[0]["name"])
    if errors is None:
        raise ValueError("the report carries no prior_error")
    return int(np.any(errors > radii, axis=1).sum()) / float(report.runs)


def check_technical_lemmas(trials: int = 10_000, seed: int = 0) -> dict:
    """Verify the two partial-sum inequalities the proofs integrate against.

    For random (n <= 1e4, a in [0, 1e3]): sum 1/sqrt(i+a) <= 2(sqrt(n+a) -
    sqrt(a)) <= 2 sqrt(n), and for a > 0: sum 1/(i+a) <= log(1 + n/a).
    Sums are computed directly, not by the integral approximation under test.
    """
    stream = derive_stream(seed, 0, 0, 0)
    failures = 0
    worst_sqrt = -math.inf
    worst_log = -math.inf
    cases = [(1, 0.0), (100, 0.0), (10, 1.0)]
    ns = stream.integers(1, 10_000 + 1, size=trials)
    avals = stream.uniform(0.0, 1_000.0, size=trials)
    zero_a = stream.random(size=trials) < 0.125
    avals[zero_a] = 0.0
    cases.extend(zip(ns.tolist(), avals.tolist()))

    # One index table, its a = 0 terms and two scratch buffers; each sum is
    # the same elementwise ops and contiguous pairwise sum as on fresh arrays
    # (i + 0.0 is i). np.add.reduce is what ndarray.sum calls.
    max_n = max(n for n, _ in cases)
    index = np.arange(1, max_n + 1, dtype=float)
    inv_sqrt_index = 1.0 / np.sqrt(index)
    shifted, terms = np.empty(max_n), np.empty(max_n)
    total = np.add.reduce
    for n, a in cases:
        if a > 0.0:
            t = np.add(index[:n], a, out=shifted[:n])
            sqrt_sum = float(total(np.divide(1.0, np.sqrt(t, out=terms[:n]), out=terms[:n])))
        else:
            sqrt_sum = float(total(inv_sqrt_index[:n]))
        sqrt_bound = 2.0 * (math.sqrt(n + a) - math.sqrt(a))
        if sqrt_sum > sqrt_bound or sqrt_bound > 2.0 * math.sqrt(n) + 1e-12:
            failures += 1
        worst_sqrt = max(worst_sqrt, sqrt_sum - sqrt_bound)
        if a > 0.0:
            log_sum = float(total(np.divide(1.0, t, out=terms[:n])))
            log_bound = math.log1p(n / a)
            if log_sum > log_bound:
                failures += 1
            worst_log = max(worst_log, log_sum - log_bound)

    return {
        "passed": failures == 0,
        "trials": len(cases),
        "failures": failures,
        "worst_sqrt_slack": worst_sqrt,
        "worst_log_slack": worst_log,
    }


def _emits_finite(values: dict) -> bool:
    """Whether _evaluate gives only finite floats at these BoundParams field
    values, read as given: validated params with some keys reset to defaults."""
    try:
        json.dumps(_evaluate(SimpleNamespace(**values)), allow_nan=False)
    except (ArithmeticError, ValueError):
        return False
    return True


def _evaluate(p) -> dict:
    """Every closed-form number bounds_report emits at p (any object with its fields)."""
    t1 = theorem1_bound(p)
    marginal_width = math.sqrt(p.sigma_q**2 + p.sigma_0**2)
    return {
        "root_gap_prior": root_gap(p.n, p.K, p.sigma, p.sigma_0),
        "root_gap_marginal": root_gap(p.n, p.K, p.sigma, marginal_width),
        "lemma1_bound": lemma1_bound(p),
        "lemma1_bound_marginal": lemma1_bound(p, marginal_width),
        "lemma3_radius_task1": lemma3_radius(p, 1),
        "lemma3_radius_final": lemma3_radius(p, p.m),
        "theorem1": t1.to_json_dict(),
        "leading_terms": t1.leading_terms,
        "full_bound": t1.full,
    }


def bounds_report(
    p: BoundParams,
    certify: bool = False,
    runs: int = 1000,
    lemma3_delta: float = 0.1,
    trials: int = 10_000,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> dict:
    """JSON-shaped summary of every evaluator at the given params.

    With certify=True the Monte Carlo certifications are appended; they cost
    on the order of runs * m * n simulated rounds.
    """
    report = {"params": asdict(p), **_evaluate(p), "empirical": None, "violation_frequency": None}
    if certify:
        config = certify_config(p, master_seed)
        lemma1 = certify_lemma1(config, R=runs)
        report["empirical"] = lemma1.to_json_dict()
        lemma3 = run_experiment(lemma3_config(config, R=runs))
        report["violation_frequency"] = certify_lemma3(lemma3, delta=lemma3_delta)
        report["technical_lemmas"] = check_technical_lemmas(trials=trials)
    return report
