"""Monte Carlo experiment engine and machine-readable regret reports.

One experiment is R independent runs. Each run draws one instance prior from
the meta-prior, then m task instances from it, and plays every configured
agent against the same instances and the same pre-drawn reward tables (common
random numbers). Runs are keyed by index, so serial and parallel execution
produce bit-identical reports. A chunk of runs plays each task in one
play_tasks call, whose (pairs, rounds) arms array gives every pair's task
regret in one gather. A config value of the wrong type (a bool, a fraction
for an integer key, a non-numeric string) is a ValueError naming its key.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .agents import AGNOSTIC, KINDS, METATS, ORACLE, Agent, _default_name, end_tasks, play_tasks
from .envs import (
    BetaProductPrior,
    CategoricalWeights,
    GaussianDiagPrior,
    GaussianDiagState,
    LinearGaussianPrior,
    LinearState,
    _draw_rewards,
    _normal_finite,
    _normal_square,
    _prior_weight_ok,
    check_weights,
    sample_instance_prior,
    sample_task_instance,
)
from .posteriors import _builds_absorb_terms
from .rng import name_substream, rekey, stream_keys

__all__ = [
    "ExperimentConfig",
    "RegretReport",
    "DEFAULT_BERNOULLI_PRIOR_TABLE",
    "DEFAULT_BERNOULLI_WEIGHTS",
    "build_meta_prior",
    "check_widths",
    "agnostic_prior_for",
    "run_task",
    "run_experiment",
    "regret_slope",
    "emit_report",
]

BERNOULLI = "bernoulli"
GAUSSIAN = "gaussian"
LINEAR = "linear"
FAMILIES = (BERNOULLI, GAUSSIAN, LINEAR)

# Substream ids reserved by the harness; agent substreams are name-hashed
# and start at 16 (see rng.name_substream).
SUB_RUN = 0
SUB_INSTANCE = 1
SUB_REWARDS = 2

# Bound on the cells (task_cells) one chunk of runs holds per task; the runs
# of a chunk are simulated together (see _simulate_runs).
CHUNK_CELLS = 1 << 20

# Cells of 8 bytes charged per run for its state whatever n is (generators, priors,
# agents): 10.1, 6.8 and 6.2 KB for one Bernoulli, Gaussian or linear agent (tracemalloc).
RUN_CELLS = 1280

DEFAULT_MASTER_SEED = 23  # of every run and certification that names none

# Bound on the stream keys (16 bytes each) one stream_keys call derives.
KEY_BLOCK = 1 << 16

# Two mirrored, well-separated candidate priors over two Bernoulli arms.
DEFAULT_BERNOULLI_PRIOR_TABLE = (((6.0, 2.0), (2.0, 6.0)), ((2.0, 6.0), (6.0, 2.0)))
DEFAULT_BERNOULLI_WEIGHTS = (0.5, 0.5)

_AGENT_KEYS = {"kind", "forced_last_k", "misspecification_scale", "name"}

# prior_table shapes for which the Beta-Binomial log-evidence stays finite:
# log_gamma overflows above about 2.5e305, and the evidence adds several
# such terms. Small shapes are safe (log_gamma(5e-324) is 744.4); the floor
# is a config bound, not a numerical one.
MIN_BETA_SHAPE = 1e-300
MAX_BETA_SHAPE_SUM = 1e300

# Largest condition number (estimated) of a linear posterior's precision
# matrix; float Cholesky breaks down near 1e16.
MAX_LINEAR_CONDITION = 1e10

# Largest runs * m * agents: the regret array and the report hold one value
# per (agent, run, task).
MAX_REGRET_CELLS = 10**7

# Most worker processes run_experiment starts: each is a numpy interpreter
# of about 38 MB, and a pool forks all of them at its first task.
MAX_THREADS = 64

# Largest ExperimentConfig.task_cells, the cells one run holds per task. Peak
# memory grew by up to 37 bytes per cell (tracemalloc: one Bernoulli agent at
# K = 2, its log and row lists uncounted), so a task at the bound nears 370 MB.
MAX_TASK_CELLS = 10**7


def _as_float(key: str, value, what: str = "a number") -> float:
    """A float key's value: a number or a numeric string, never a bool."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{key} must be {what}, got {value!r}")


def _as_list(key: str, value, what: str, length: int | None = None) -> tuple:
    """A list key's value: a list, tuple or array (never a string or a
    scalar), of the given length if one is given, as a tuple."""
    if isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) > 0:
        if length is None or len(value) == length:
            return tuple(value)
    raise ValueError(f"{key} must be {what}, got {value!r}")


def _as_int(key: str, value) -> int:
    """An integer key's value: an int, an integral float or a numeric string."""
    if isinstance(value, str) and value.strip().lstrip("-").isdecimal():
        value = int(value)  # exact, also beyond 2**53
    number = _as_float(key, value, "an integer")
    if not number.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value) if isinstance(value, (int, np.integer)) else int(number)


def check_widths(sigma, sigma_0, sigma_q) -> None:
    """Reject reward-noise and prior widths the conjugate updates cannot use.

    Each width must be positive and finite with a normal (not subnormal)
    finite square, so reciprocals of squares stay finite. For both prior
    widths the agents use, sigma_0 and the prior-agnostic marginal
    sqrt(sigma_q^2 + sigma_0^2), the prior's weight in pulls sigma^2 / w^2
    must be a normal finite float and the task-posterior variance at zero
    pulls finite; that variance only falls as pulls accrue. The predicates
    are the ones the priors and states in envs apply; the messages name the
    config keys.
    """
    for key, value in (("sigma", sigma), ("sigma_0", sigma_0), ("sigma_q", sigma_q)):
        if not _normal_square(value):
            raise ValueError(
                f"{key} must be > 0 and finite, with a normal finite square; got {value!r}"
            )
    marginal = math.sqrt(sigma_q * sigma_q + sigma_0 * sigma_0)
    for name, width in (("sigma_0**2", sigma_0), ("(sigma_q**2 + sigma_0**2)", marginal)):
        if not _prior_weight_ok(sigma, width):
            raise ValueError(
                f"sigma**2 / {name} must be a normal finite float with a finite "
                f"prior variance; got sigma={sigma!r}, sigma_0={sigma_0!r}, sigma_q={sigma_q!r}"
            )


@dataclass
class ExperimentConfig:
    """Fully validated experiment description; field names match the JSON keys."""

    family: str = GAUSSIAN
    K: int = 2
    d: int = 2
    m: int = 20
    n: int = 200
    runs: int = 100
    sigma: float = 1.0
    sigma_0: float = 0.1
    sigma_q: float = 0.5
    prior_table: tuple | None = None
    prior_weights: tuple | None = None
    agents: tuple = (
        {"kind": "oracle"},
        {"kind": "metats"},
        {"kind": "agnostic"},
    )
    master_seed: int = DEFAULT_MASTER_SEED
    output_dir: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not (self.output_dir is None or isinstance(self.output_dir, str)):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        for key in ("K", "d", "m", "n", "runs", "master_seed"):
            setattr(self, key, _as_int(key, getattr(self, key)))
        for key in ("sigma", "sigma_0", "sigma_q"):
            setattr(self, key, _as_float(key, getattr(self, key)))
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.m < 1 or self.n < 1 or self.runs < 1:
            raise ValueError("m, n, runs must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        check_widths(self.sigma, self.sigma_0, self.sigma_q)
        self._validate_bernoulli_table()
        self.agents = self._validate_agents(self.agents)
        if self.family == LINEAR:
            self._check_linear_conditioning()
        cells = self.runs * self.m * len(self.agents)
        if cells > MAX_REGRET_CELLS:
            raise ValueError(
                f"runs * m * agents must be <= {MAX_REGRET_CELLS}; got "
                f"{self.runs} * {self.m} * {len(self.agents)} = {cells}"
            )
        if self.task_cells > MAX_TASK_CELLS:
            held = self.task_cells // len(self.agents) - self.n * (self.K + self.noise_cells)
            linear = " + agents * (features + posterior + absorb terms)" if held else ""
            raise ValueError(
                f"n * agents * (K + noise){linear} must be <= {MAX_TASK_CELLS}; got {self.n} * "
                f"{len(self.agents)} * ({self.K} + {self.noise_cells})"
                f"{f' + {len(self.agents)} * {held}' if held else ''} = {self.task_cells}"
            )

    def _validate_bernoulli_table(self) -> None:
        if self.family != BERNOULLI:
            if self.prior_table is not None or self.prior_weights is not None:
                raise ValueError("prior_table/prior_weights apply to the bernoulli family only")
            return
        if self.prior_table is None:
            if self.K != 2:
                raise ValueError("prior_table is required for bernoulli with K != 2")
            self.prior_table = DEFAULT_BERNOULLI_PRIOR_TABLE
            if self.prior_weights is None:
                self.prior_weights = DEFAULT_BERNOULLI_WEIGHTS
        table = []
        for candidate in _as_list("prior_table", self.prior_table, "a list of candidates"):
            pairs = _as_list("prior_table candidate", candidate, "a list of (alpha, beta) pairs")
            if len(pairs) != self.K:
                raise ValueError("each prior_table candidate needs one (alpha, beta) per arm")
            table.append(tuple(map(self._beta_shapes, pairs)))
        if not table:
            raise ValueError("prior_table must list at least one candidate prior")
        if self.prior_weights is None:
            self.prior_weights = tuple(1.0 / len(table) for _ in table)
        weights = tuple(
            _as_float("prior_weights entry", w)
            for w in _as_list("prior_weights", self.prior_weights, "a list of numbers")
        )
        if len(weights) != len(table):
            raise ValueError("prior_weights length must match prior_table")
        check_weights(np.array(weights), "prior_weights")
        self.prior_table = tuple(table)
        self.prior_weights = weights

    def _beta_shapes(self, pair) -> tuple:
        """One prior_table (alpha, beta) pair as floats, within the range where
        the Beta-Binomial log-evidence stays finite."""
        a, b = (
            _as_float("prior_table shape", x)
            for x in _as_list("prior_table pair", pair, "an (alpha, beta) pair", 2)
        )
        if not (
            MIN_BETA_SHAPE <= a and MIN_BETA_SHAPE <= b
            and a + b + self.n <= MAX_BETA_SHAPE_SUM
        ):
            raise ValueError(
                f"prior_table shapes must be > 0 and finite, at least "
                f"{MIN_BETA_SHAPE:g}, with alpha + beta + n <= "
                f"{MAX_BETA_SHAPE_SUM:g}; got ({a!r}, {b!r})"
            )
        return a, b

    def _validate_agents(self, entries) -> tuple:
        if not entries:
            raise ValueError("agents must list at least one agent")
        resolved = []
        names = set()
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError("each agents entry must be an object")
            unknown = set(entry) - _AGENT_KEYS
            if unknown:
                raise ValueError(f"unknown agent key(s): {sorted(unknown)}")
            kind = entry.get("kind")
            if kind not in KINDS:
                raise ValueError(f"agent kind must be one of {KINDS}, got {kind!r}")
            scale = _as_float("misspecification_scale", entry.get("misspecification_scale", 1.0))
            forced = entry.get("forced_last_k", False)
            if not isinstance(forced, bool):
                raise ValueError(f"forced_last_k must be true or false, got {forced!r}")
            if not scale > 0.0:
                raise ValueError("misspecification_scale must be > 0")
            if kind != METATS and scale != 1.0:
                raise ValueError("misspecification_scale applies to MetaTS only")
            if scale != 1.0:
                self._check_misspecification(scale)
            name = entry.get("name")
            if name is None:
                name = _default_name(kind, scale)
            elif not (isinstance(name, str) and name) or any(c in name for c in ',"\r\n'):
                # The name is a rows.csv field and keys the agent's stream.
                raise ValueError(
                    "agent name must be a non-empty string with no comma, quote or "
                    f"line break, got {name!r}"
                )
            if name in names:
                raise ValueError(f"duplicate agent name {name!r}")
            names.add(name)
            resolved.append(
                {
                    "kind": kind,
                    "forced_last_k": forced,
                    "misspecification_scale": scale,
                    "name": name,
                }
            )
        return tuple(resolved)

    def _check_misspecification(self, scale: float) -> None:
        """The believed meta-prior width sigma_q * scale must leave the meta
        variance (Gaussian) or precision (linear) a normal finite float."""
        if self.family == BERNOULLI:
            raise ValueError(
                "misspecification_scale needs a meta-prior width; the bernoulli family has none"
            )
        if self.family == GAUSSIAN:
            name = "(sigma_q * scale)**2"
            ok = _normal_square(self.sigma_q * scale)
        else:
            name = "1 / (sigma_q * scale)**2"
            q2 = self.sigma_q * self.sigma_q
            ok = _normal_square(scale) and _normal_finite(1.0 / q2 / (scale * scale))
        if not ok:
            raise ValueError(
                f"misspecification_scale must keep {name} a normal finite float; "
                f"got scale={scale!r}, sigma_q={self.sigma_q!r}"
            )

    def _check_linear_conditioning(self) -> None:
        """A linear posterior is a precision matrix: a prior of width w plus
        data of precision at most n d / (4 sigma^2) per task (features lie in
        [-0.5, 0.5]^d) has a condition number up to about w^2 times that. w is
        sigma_0 for task posteriors, sqrt(sigma_q^2 + sigma_0^2) for the
        agnostic one, and sigma_q * scale over m tasks for a meta-posterior."""
        data = self.n * self.d / (4.0 * self.sigma * self.sigma)
        checks = [("sigma_0", self.sigma_0 * self.sigma_0)]
        for entry in self.agents:
            scale = entry["misspecification_scale"]
            if entry["kind"] == AGNOSTIC:
                checks.append(("sigma_q", self.sigma_q**2 + self.sigma_0**2))
            elif entry["kind"] == METATS:
                key = "sigma_q" if scale == 1.0 else "misspecification_scale"
                checks.append((key, (self.sigma_q * scale) * (self.sigma_q * scale) * self.m))
        for key, width2 in checks:
            if not width2 * data <= MAX_LINEAR_CONDITION:
                raise ValueError(
                    f"{key} gives a linear posterior a condition number of about "
                    f"{width2 * data:.3g} (width**2 * n * d / (4 * sigma**2)), "
                    f"above {MAX_LINEAR_CONDITION:g}"
                )

    @property
    def agent_names(self) -> tuple:
        return tuple(entry["name"] for entry in self.agents)

    @property
    def noise_cells(self) -> int:
        """The Thompson noise one agent draws per round: one normal per
        feature (linear) or per arm (Gaussian); Beta draws hold none."""
        return {BERNOULLI: 0, GAUSSIAN: self.K, LINEAR: self.d}[self.family]

    @property
    def task_cells(self) -> int:
        """Every cell one run's pairs hold in a task, refused above MAX_TASK_CELLS
        before anything is allocated: a pair's n rows of rewards and noise and,
        linear, play_linear's features (K d), posterior (d^2 + d) and absorb
        terms (K d^2, where it builds them)."""
        cells = self.n * (self.K + self.noise_cells)
        if self.family == LINEAR:
            K, d = self.K, self.d
            cells += K * d + d * d + d + (K * d * d if _builds_absorb_terms(K, d, self.n) else 0)
        return len(self.agents) * cells

    def echo(self) -> dict:
        """Config as a JSON-able dict, excluding delivery knobs (output_dir)."""
        out = {}
        for f in fields(self):
            if f.name == "output_dir":
                continue
            value = getattr(self, f.name)
            out[f.name] = _to_jsonable(value)
        return out


def _to_jsonable(value):
    if isinstance(value, tuple):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    return value


def build_meta_prior(config: ExperimentConfig, stream):
    """The run-level meta-prior, as the meta-state at zero tasks; for the
    linear family this draws the run's features."""
    if config.family == BERNOULLI:
        priors = tuple(
            BetaProductPrior(
                alpha=np.array([a for a, _ in candidate]),
                beta=np.array([b for _, b in candidate]),
            )
            for candidate in config.prior_table
        )
        return CategoricalWeights(weights=np.array(config.prior_weights), priors=priors)
    if config.family == GAUSSIAN:
        return GaussianDiagState(
            mu=np.zeros(config.K),
            var=np.full(config.K, config.sigma_q**2),
            sigma_0=config.sigma_0,
            sigma=config.sigma,
        )
    features = stream.uniform(-0.5, 0.5, size=(config.K, config.d))
    return LinearState(
        mu=np.zeros(config.d),
        Lambda=np.eye(config.d) / config.sigma_q**2,
        Sigma=config.sigma_0**2 * np.eye(config.d),
        sigma=config.sigma,
        features=features,
    )


def agnostic_prior_for(config: ExperimentConfig, meta_prior):
    """The fixed prior of the baseline that never learns across tasks.

    Bernoulli: uninformative Beta(1,1) per arm. Gaussian/linear: the marginal
    of instance parameters under the meta-prior, N(0, (sigma_q^2 + sigma_0^2) I).
    """
    if config.family == BERNOULLI:
        return BetaProductPrior(alpha=np.ones(config.K), beta=np.ones(config.K))
    if config.family == GAUSSIAN:
        width = float(np.sqrt(config.sigma_q**2 + config.sigma_0**2))
        return GaussianDiagPrior(np.zeros(config.K), width, config.sigma)
    marginal = (config.sigma_q**2 + config.sigma_0**2) * np.eye(config.d)
    return LinearGaussianPrior(np.zeros(config.d), marginal, meta_prior.features, config.sigma)


def _metats_start(config: ExperimentConfig, meta_prior, scale: float):
    """MetaTS's meta-state at zero tasks: the meta-prior, believed sigma_q * scale wide.

    At scale 1 it is the meta-prior itself; meta updates are pure, so every
    MetaTS agent of the run can start from that one object.
    """
    if scale == 1.0:
        return meta_prior
    if config.family == GAUSSIAN:
        return replace(meta_prior, var=np.full(config.K, (config.sigma_q * scale) ** 2))
    return replace(meta_prior, Lambda=np.eye(config.d) / config.sigma_q**2 / scale**2)


def _materialize_agents(config: ExperimentConfig, meta_prior, true_prior):
    agents = []
    for entry in config.agents:
        kind = entry["kind"]
        if kind == METATS:
            prior = _metats_start(config, meta_prior, entry["misspecification_scale"])
        elif kind == ORACLE:
            prior = true_prior
        else:
            prior = agnostic_prior_for(config, meta_prior)
        agents.append(Agent(kind, prior, entry["forced_last_k"], entry["name"]))
    return agents


def run_task(
    agent: Agent,
    theta: np.ndarray,
    horizon: int,
    action_stream,
    rewards: np.ndarray,
):
    """Play one whole task in one call; returns (task log, per-round pseudo-regret).

    Rewards come from the pre-drawn horizon x K table (common random
    numbers). The agent draws the Thompson noise of every round from
    action_stream at once (after begin_task, which may itself draw from that
    stream), so the arms equal those of round-by-round play. Regret uses the
    true means theta, not the realized rewards. begin_task/end_task are the
    caller's responsibility.
    """
    if horizon != agent.horizon:
        raise ValueError(f"horizon {horizon} != the agent's task horizon {agent.horizon}")
    arms = play_tasks([agent], [action_stream], [rewards])[0]
    return agent.log, theta.max() - theta[arms]


def _runs_per_chunk(config: ExperimentConfig) -> int:
    """Runs simulated together, so that a chunk holds at most CHUNK_CELLS cells
    per task (task_cells plus RUN_CELLS a run) whatever n, K, d and agents are."""
    return max(1, min(config.runs, CHUNK_CELLS // (config.task_cells + RUN_CELLS)))


def _simulate_runs(config: ExperimentConfig, runs: range, progress=None) -> tuple:
    """Independent runs, simulated together task by task.

    Every agent of a run faces the same environment draws. For each task all
    (run, agent) pairs of the chunk play in one play_tasks call, so linear
    pairs share one stacked kernel, and end it in one end_tasks call, which
    stacks the meta-updates; streams are keyed by (run, task, agent), so every
    pair's numbers equal those of simulating its run alone. Every key, task 0's
    run stream included, comes from one stream_keys call per KEY_BLOCK keys;
    each other stream of a run is one generator, re-keyed before every task.
    After each task, progress (if given) gets the finished (run, task) cells of
    the whole experiment, counting every run before the chunk as finished.

    Returns the chunk's per-task pseudo-regret, shape (agents, runs, m), and
    two dicts of per-run arrays keyed by MetaTS agent name: the Bernoulli
    weight traces (runs, m + 1) and the Gaussian sampled-prior errors
    (runs, m) (see RegretReport).
    """
    seed = config.master_seed
    subs = [SUB_RUN, SUB_INSTANCE, SUB_REWARDS] + [name_substream(n) for n in config.agent_names]
    num_agents = len(config.agents)
    regret = np.zeros((num_agents, len(runs), config.m))
    learners = [entry["name"] for entry in config.agents if entry["kind"] == METATS]
    traces, errors = {}, {}
    if config.family == BERNOULLI:
        traces = {name: np.zeros((len(runs), config.m + 1)) for name in learners}
    if config.family == GAUSSIAN:
        errors = {name: np.zeros((len(runs), config.m)) for name in learners}
    block = max(1, KEY_BLOCK // (len(runs) * len(subs)))
    keys = stream_keys(seed, runs, range(min(block, config.m + 1)), subs)
    chunk = []
    for r in range(len(runs)):
        run_stream, *slots = (np.random.Generator(np.random.Philox(key=k)) for k in keys[r, 0])
        meta_prior = build_meta_prior(config, run_stream)
        true_prior = sample_instance_prior(meta_prior, run_stream)
        agents = _materialize_agents(config, meta_prior, true_prior)
        j_star = None
        if traces:
            j_star = next(i for i, p in enumerate(meta_prior.priors) if p is true_prior)
            for name in traces:
                traces[name][r, 0] = meta_prior.weights[j_star]
        chunk.append((true_prior, agents, j_star, slots))

    for s in range(1, config.m + 1):
        if s % block == 0:
            keys = stream_keys(seed, runs, range(s, min(s + block, config.m + 1)), subs)
        means, pairs, streams, tables = [], [], [], []
        for r, (true_prior, agents, _, slots) in enumerate(chunk):
            for slot, key in zip(slots, keys[r, s % block, 1:]):
                rekey(slot, key)
            theta = sample_task_instance(true_prior, slots[0])
            table = _draw_rewards(true_prior, theta, config.n, slots[1])
            means.append(theta)
            for agent, stream in zip(agents, slots[2:]):
                agent.begin_task(stream, config.n)
                if agent.name in errors:
                    gap = np.abs(agent.task_prior.mu - true_prior.mu)
                    errors[agent.name][r, s - 1] = float(np.max(gap))
                pairs.append(agent)
                streams.append(stream)
                tables.append(table)
        arms = play_tasks(pairs, streams, tables)
        # Row sums of a C-contiguous array equal np.sum of each row bit for bit.
        theta = np.repeat(np.stack(means), num_agents, axis=0)
        row_starts = np.arange(0, theta.size, theta.shape[1])[:, None]
        gaps = theta.max(axis=1)[:, None] - theta.take(arms + row_starts)
        regret[:, :, s - 1] = gaps.sum(axis=1).reshape(len(runs), num_agents).T
        end_tasks(pairs)
        for r, (_, agents, j_star, _) in enumerate(chunk):
            for agent in agents:
                if agent.name in traces:
                    traces[agent.name][r, s] = agent.meta.weights[j_star]
        if progress is not None:
            progress(runs.start * config.m + s * len(runs), config.runs * config.m)
    return regret, traces, errors


@dataclass(eq=False)
class RegretReport:
    """Per-(agent, run, task) cumulative pseudo-regret of the config that ran,
    plus aggregation.

    prior_error maps each Gaussian MetaTS agent to a (runs, tasks) array: the
    max-norm distance of the prior mean it sampled at the start of a task
    from the true prior mean. It is not emitted.
    """

    config: ExperimentConfig
    cum_regret: np.ndarray  # shape (agents, runs, tasks)
    true_prior_weight: dict = field(default_factory=dict)
    prior_error: dict = field(default_factory=dict)

    @property
    def agent_names(self) -> tuple:
        return self.config.agent_names

    @property
    def master_seed(self) -> int:
        return self.config.master_seed

    @property
    def num_tasks(self) -> int:
        return self.cum_regret.shape[2]

    @property
    def runs(self) -> int:
        return self.cum_regret.shape[1]

    def agent_index(self, agent: str) -> int:
        try:
            return self.agent_names.index(agent)
        except ValueError:
            raise KeyError(f"no agent named {agent!r}") from None

    def mean(self) -> np.ndarray:
        return self.cum_regret.mean(axis=1)

    def stderr(self) -> np.ndarray:
        if self.runs < 2:
            return np.zeros((len(self.agent_names), self.num_tasks))
        return self.cum_regret.std(axis=1, ddof=1) / np.sqrt(self.runs)

    def final_mean(self, agent: str) -> float:
        return float(self.mean()[self.agent_index(agent), -1])

    def final_stderr(self, agent: str) -> float:
        return float(self.stderr()[self.agent_index(agent), -1])

    def to_json_dict(self) -> dict:
        names = self.agent_names
        mean, stderr = self.mean(), self.stderr()
        out = {
            "version": __version__,
            "master_seed": self.master_seed,
            "config": self.config.echo(),
            "agents": list(names),
            "runs": self.runs,
            "num_tasks": self.num_tasks,
            "cum_regret": {name: self.cum_regret[i].tolist() for i, name in enumerate(names)},
            "summary": {
                name: {"mean": mean[i].tolist(), "stderr": stderr[i].tolist()}
                for i, name in enumerate(names)
            },
        }
        if self.true_prior_weight:
            out["true_prior_weight"] = {
                name: trace.tolist() for name, trace in self.true_prior_weight.items()
            }
        return out


def run_experiment(
    config: ExperimentConfig, threads: int = 1, progress=None
) -> RegretReport:
    """Run the full R x m x n benchmark described by the config.

    Runs are simulated in contiguous chunks (see _simulate_runs); threads > 1
    farms the chunks out to worker processes. Results are keyed by run
    index, so the report is identical for any thread count. progress(done,
    total) counts finished (run, task) cells: after every task when serial,
    after every chunk with worker processes. threads must lie in [1,
    MAX_THREADS].
    """
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be in [1, {MAX_THREADS}], got {threads!r}")
    num_agents = len(config.agents)
    per_task = np.zeros((num_agents, config.runs, config.m))
    traces, errors = {}, {}

    def _store(runs, result):
        chunk_regret, *named = result
        rows = slice(runs.start, runs.stop)
        per_task[:, rows] = chunk_regret
        for store, chunk_values in zip((traces, errors), named):
            for name, values in chunk_values.items():
                store.setdefault(name, np.zeros((config.runs, values.shape[1])))[rows] = values

    size = _runs_per_chunk(config)
    if threads > 1:
        # About four chunks per worker process, for load balance.
        size = min(size, -(-config.runs // (4 * threads)))
    chunks = [
        range(lo, min(lo + size, config.runs)) for lo in range(0, config.runs, size)
    ]
    if threads == 1 or len(chunks) == 1:
        for runs in chunks:
            _store(runs, _simulate_runs(config, runs, progress))
    else:
        # Imported here: a serial run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            for runs, result in zip(chunks, pool.map(partial(_simulate_runs, config), chunks)):
                _store(runs, result)
                if progress is not None:
                    progress(runs.stop * config.m, config.runs * config.m)

    return RegretReport(config, np.cumsum(per_task, axis=2), traces, errors)


def regret_slope(report: RegretReport, agent: str, window: tuple) -> float:
    """Least-squares slope of mean cumulative regret over a 1-based task window."""
    start, end = int(window[0]), int(window[1])
    if not (1 <= start <= end <= report.num_tasks):
        raise ValueError(f"window {window} outside [1, {report.num_tasks}]")
    if end - start < 1:
        raise ValueError("window must span at least 2 tasks")
    y = report.mean()[report.agent_index(agent), start - 1 : end]
    x = np.arange(start, end + 1, dtype=float)
    return float(np.polyfit(x, y, 1)[0])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_report(report: RegretReport, out_dir: str, fmt: str = "both") -> list:
    """Write rows/summary CSVs and/or the JSON mirror; returns written paths.

    All floats are written with 17 significant digits so emitted files are
    byte-reproducible and round-trip exactly.
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"format must be csv, json or both, got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt in ("csv", "both"):
        rows_path = os.path.join(out_dir, "rows.csv")
        with open(rows_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("agent,run,task,cum_regret\n")
            for i, name in enumerate(report.agent_names):
                for r in range(report.runs):
                    for s in range(report.num_tasks):
                        fh.write(f"{name},{r},{s + 1},{_fmt(report.cum_regret[i, r, s])}\n")
        written.append(rows_path)
        summary_path = os.path.join(out_dir, "summary.csv")
        mean = report.mean()
        stderr = report.stderr()
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("agent,task,mean,stderr\n")
            for i, name in enumerate(report.agent_names):
                for s in range(report.num_tasks):
                    fh.write(f"{name},{s + 1},{_fmt(mean[i, s])},{_fmt(stderr[i, s])}\n")
        written.append(summary_path)
    if fmt in ("json", "both"):
        json_path = os.path.join(out_dir, "report.json")
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        written.append(json_path)
    return written
