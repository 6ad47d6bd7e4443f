"""Thompson sampling policies: meta-learning, oracle, and prior-agnostic.

All three run the same within-task TS loop over a conjugate posterior; they
differ only in where the task prior comes from, which AgentSpec.prior gives.
MetaTS samples it from a meta-posterior that starts at its meta-prior (the
meta-state at zero tasks) and is updated after every completed task; OracleTS
uses the true instance prior; the agnostic baseline uses a fixed marginal or
uninformative prior and never learns across tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posteriors import (
    CategoricalWeights,
    GaussianDiagState,
    LinearGaussianPosterior,
    TaskLog,
    init_task_posterior,
    play_linear,
    sample_meta_posterior,
    update_meta_posterior_categorical,
    update_meta_posterior_gaussian,
    update_meta_posterior_linear,
)
from .rng import RngStream

__all__ = ["METATS", "ORACLE", "AGNOSTIC", "KINDS", "AgentSpec", "Agent", "play_tasks"]

METATS = "metats"
ORACLE = "oracle"
AGNOSTIC = "agnostic"
KINDS = (METATS, ORACLE, AGNOSTIC)


def _default_name(kind: str, scale: float) -> str:
    if kind == ORACLE:
        return "OracleTS"
    if kind == AGNOSTIC:
        return "TS"
    if scale == 1.0:
        return "MetaTS"
    if scale > 1.0:
        return f"MetaTSx{scale:g}"
    return f"MetaTS/{1.0 / scale:g}"


@dataclass
class AgentSpec:
    """Static description of one policy.

    prior is MetaTS's meta-state at zero tasks (its meta-prior), or the fixed
    instance prior of OracleTS (the true one) and of TS (the agnostic one).
    """

    kind: str
    prior: object
    forced_last_k: bool = False
    name: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown agent kind {self.kind!r}")
        if self.name is None:
            self.name = _default_name(self.kind, 1.0)


def _argmax(draw: list) -> int:
    """Index of the largest sample; the first maximum wins, as in np.argmax."""
    return draw.index(max(draw))


class Agent:
    """One policy instance: a single-threaded state machine for one run.

    Lifecycle per task: begin_task, then the task's rounds, then end_task.
    The rounds are played either all at once with play_tasks against a
    pre-drawn reward table, through the posterior's play, or one at a time
    with select_action followed by observe of that same arm; both draw the
    same Thompson noise from the stream and apply the same posterior math,
    so they pick the same arms. With forced_last_k the last K rounds pull
    arms 0..K-1 in order without a draw. MetaTS updates its meta-posterior
    in end_task, never mid-task.
    """

    def __init__(self, spec: AgentSpec, reward_noise: float = 1.0):
        self.spec = spec
        self.name = spec.name
        self.reward_noise = float(reward_noise)
        self.meta = spec.prior if spec.kind == METATS else None
        self.task_prior = None
        self.task_posterior = None
        self.log = None
        self.horizon = 0
        self.rounds_played = 0
        self.tasks_completed = 0
        self._in_task = False
        self._pending_arm = None

    @property
    def num_arms(self) -> int:
        if self.task_prior is None:
            raise RuntimeError("no active task")
        return self.task_prior.num_arms

    @property
    def _free_rounds(self) -> int:
        """Rounds before the forced pulls; negative when the horizon is below K."""
        if self.spec.forced_last_k:
            return self.horizon - self.num_arms
        return self.horizon

    def begin_task(self, stream: RngStream, horizon: int) -> None:
        if self._in_task:
            raise RuntimeError("begin_task called before the previous task ended")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.spec.kind == METATS:
            self.task_prior = sample_meta_posterior(self.meta, stream)
        else:
            self.task_prior = self.spec.prior
        self.task_posterior = init_task_posterior(self.task_prior, sigma=self.reward_noise)
        self.log = TaskLog(num_arms=self.task_prior.num_arms)
        self.horizon = int(horizon)
        self.rounds_played = 0
        self._pending_arm = None
        self._in_task = True

    def _check_can_select(self) -> None:
        if not self._in_task:
            raise RuntimeError("no round can be played outside a task")
        if self._pending_arm is not None:
            raise RuntimeError("observe the previous action before selecting again")
        if self.rounds_played >= self.horizon:
            raise RuntimeError("horizon exhausted; call end_task")

    def select_action(self, stream: RngStream) -> int:
        self._check_can_select()
        free = self._free_rounds
        if self.rounds_played >= free:
            arm = self.rounds_played - free
        else:
            post = self.task_posterior
            arm = _argmax(post.thompson(post.noise(stream.gen, 1)[0]))
        self._pending_arm = arm
        return arm

    def observe(self, arm: int, reward: float) -> None:
        if self._pending_arm is None or arm != self._pending_arm:
            raise RuntimeError(
                f"observe({arm}) does not match the selected action {self._pending_arm}"
            )
        self.task_posterior.absorb(arm, reward)
        self.log.append(arm, reward)
        self.rounds_played += 1
        self._pending_arm = None

    def _play_rounds(self, stream: RngStream, rewards: np.ndarray) -> list:
        """The rest of a Bernoulli or Gaussian task: one play call, then the forced pulls."""
        post = self.task_posterior
        start = self.rounds_played
        free = self._free_rounds
        table = rewards.tolist()
        drawn = max(free - start, 0)
        arms = post.play(stream.gen, table[start:start + drawn])
        for t in range(start + drawn, self.horizon):
            arm = t - free
            post.absorb(arm, table[t][arm])
            arms.append(arm)
        return arms

    def _record(self, arms: list, rewards: np.ndarray) -> None:
        start = self.rounds_played
        self.log.extend(arms, rewards[np.arange(start, self.horizon), arms].tolist())
        self.rounds_played = self.horizon

    def end_task(self) -> None:
        if not self._in_task:
            raise RuntimeError("end_task outside a task")
        if self.rounds_played < self.horizon:
            raise RuntimeError(
                f"end_task after {self.rounds_played}/{self.horizon} rounds"
            )
        if self.spec.kind == METATS:
            if isinstance(self.meta, CategoricalWeights):
                self.meta = update_meta_posterior_categorical(self.meta, self.log)
            elif isinstance(self.meta, GaussianDiagState):
                self.meta = update_meta_posterior_gaussian(self.meta, self.log)
            else:
                self.meta = update_meta_posterior_linear(self.meta, self.log)
        self.tasks_completed += 1
        self._in_task = False


def play_tasks(agents: list, streams: list, tables: list) -> list:
    """Play every remaining round of each agent's current task.

    Agent i plays against its horizon x K reward table tables[i] and draws
    the Thompson noise of all its drawn rounds from streams[i] in one call,
    after begin_task. Returns each agent's arms.

    Linear agents play in lockstep through posteriors.play_linear, with one
    stacked Cholesky and three stacked solves per round for all of them, so
    they must stand at the same round of equal horizons. Bernoulli and
    Gaussian agents play one after another through their posterior's play:
    Beta draws are rejection-sampled, and a Gaussian round there costs
    0.6-1.2 us at K=2 (2-core x86-64 host), what a stacked numpy round costs
    per pair at two dozen pairs. Either way, each agent's arms, log and
    posterior equal those of playing it alone.
    """
    for agent in agents:
        agent._check_can_select()
    arms = [None] * len(agents)
    linear = [
        i for i, agent in enumerate(agents)
        if isinstance(agent.task_posterior, LinearGaussianPosterior)
    ]
    if linear:
        start, horizon = agents[linear[0]].rounds_played, agents[linear[0]].horizon
        if any((agents[i].rounds_played, agents[i].horizon) != (start, horizon) for i in linear):
            raise ValueError("linear agents played together must share the round and horizon")
        free = [agents[i]._free_rounds - start for i in linear]
        noise = [
            agents[i].task_posterior.noise(streams[i].gen, max(f, 0))
            for i, f in zip(linear, free)
        ]
        played = play_linear(
            [agents[i].task_posterior for i in linear],
            noise,
            np.stack([tables[i][start:horizon] for i in linear]),
            free,
        )
        for i, row in zip(linear, played.tolist()):
            arms[i] = row
    for i, agent in enumerate(agents):
        if arms[i] is None:
            arms[i] = agent._play_rounds(streams[i], tables[i])
        agent._record(arms[i], tables[i])
    return arms
