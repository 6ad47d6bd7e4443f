"""Thompson sampling policies: meta-learning, oracle, and prior-agnostic.

All three run the same within-task TS loop over a conjugate posterior; they
differ only in where the task prior comes from, which an agent's kind and
prior give. MetaTS samples it from a meta-posterior that starts at its
meta-prior (the meta-state at zero tasks) and is updated after every
completed task; OracleTS uses the true instance prior; the agnostic baseline
uses a fixed marginal or uninformative prior and never learns across tasks.
"""

from __future__ import annotations

import numpy as np

from .posteriors import (
    LinearGaussianPosterior,
    TaskLog,
    init_task_posterior,
    play_linear,
    sample_meta_posterior,
    sample_task_posterior,
    update_meta_posteriors,
)

__all__ = ["METATS", "ORACLE", "AGNOSTIC", "KINDS", "Agent", "play_tasks", "end_tasks"]

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


class Agent:
    """One policy instance: a single-threaded state machine for one run.

    Lifecycle per task: begin_task, then the task's rounds, then end_task.
    The rounds are played either all at once with play_tasks against a
    pre-drawn reward table, through the task posterior's play driver, or one
    at a time with select_action followed by observe of that same arm; both
    draw the same Thompson noise from the stream and apply the same posterior
    math, so they pick the same arms. With forced_last_k the last K rounds
    pull arms 0..K-1 in order without a draw. MetaTS updates its
    meta-posterior in end_task, never mid-task.

    prior is MetaTS's meta-state at zero tasks (its meta-prior), or the fixed
    instance prior of OracleTS (the true one) and of TS (the agnostic one).
    The reward noise sigma that the task posteriors assume is the task
    prior's, which a meta-state passes to every prior it draws.
    """

    def __init__(
        self,
        kind: str,
        prior,
        forced_last_k: bool = False,
        name: str | None = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown agent kind {kind!r}")
        self.kind = kind
        self.prior = prior
        self.forced_last_k = forced_last_k
        self.name = _default_name(kind, 1.0) if name is None else name
        self.meta = prior if kind == METATS else None
        self.task_prior = None
        self.task_posterior = None
        self._arms = self._rewards = None
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
        if self.forced_last_k:
            return self.horizon - self.num_arms
        return self.horizon

    def begin_task(self, stream: np.random.Generator, horizon: int) -> None:
        if self._in_task:
            raise RuntimeError("begin_task called before the previous task ended")
        if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
        if self.kind == METATS:
            self.task_prior = sample_meta_posterior(self.meta, stream)
        else:
            self.task_prior = self.prior
        self.task_posterior = init_task_posterior(self.task_prior)
        self.horizon = int(horizon)
        self._arms = np.empty(self.horizon, dtype=np.int64)
        self._rewards = np.empty(self.horizon)
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

    def select_action(self, stream: np.random.Generator) -> int:
        self._check_can_select()
        free = self._free_rounds
        if self.rounds_played >= free:
            arm = self.rounds_played - free
        else:
            # np.argmax takes the first maximum, as the play kernels do.
            arm = int(np.argmax(sample_task_posterior(self.task_posterior, stream)))
        self._pending_arm = arm
        return arm

    def observe(self, arm: int, reward: float) -> None:
        if self._pending_arm is None or arm != self._pending_arm:
            raise RuntimeError(
                f"observe({arm}) does not match the selected action {self._pending_arm}"
            )
        self.task_posterior.absorb(arm, reward)
        self._record([arm], [reward])
        self._pending_arm = None

    def _record(self, arms, rewards) -> None:
        """Write the rounds just played, arms and their rewards, into the task's
        buffers; the one place a log grows."""
        played = self.rounds_played + len(arms)
        self._arms[self.rounds_played:played] = arms
        self._rewards[self.rounds_played:played] = rewards
        self.rounds_played = played

    @property
    def log(self) -> TaskLog | None:
        """The current (or last) task's rounds so far, as views of its buffers."""
        if self._arms is None:
            return None
        played = self.rounds_played
        return TaskLog(self.task_prior.num_arms, self._arms[:played], self._rewards[:played])

    def end_task(self) -> None:
        end_tasks([self])


def play_tasks(agents: list, streams: list, tables: list) -> np.ndarray:
    """Play every remaining round of each agent's current task.

    Every agent must stand at the same round of equal horizons, and every
    table is checked before any draw. Agent i plays against its horizon x K
    reward table tables[i] through its task posterior's play driver, which
    draws the Thompson noise of the free rounds from streams[i] (after
    begin_task) and makes the forced pulls after them. Returns the arms as
    one (agents, rounds) int array; each agent copies its row into its own
    log buffers, so the array is the caller's to keep or change.

    Linear agents play in lockstep through posteriors.play_linear, one
    stacked Cholesky and two solve calls for all of them per round in which
    any draws, forced pulls riding along, and the pivots of the drawing ones
    checked once per task: a round of three pairs at K=10, d=2 costs
    about 11 us on a 2-core x86-64 host, against 14 us with a pivot check
    and three solves per round. Bernoulli and Gaussian agents play one after
    another through their posterior's play: Beta draws are rejection-sampled,
    and a Gaussian round there costs about 0.27 us at K=2 (same host; 0.55 us
    through the K-arm loop), what a stacked numpy round costs per pair at
    about 50 pairs (0.38 us at 32, 0.22 us at 64). Either way, each agent's
    arms, log and posterior equal those of playing it alone; end_tasks then
    ends every task in one call, stacking the meta-updates the same way.
    """
    start, horizon = agents[0].rounds_played, agents[0].horizon
    for i, agent in enumerate(agents):
        agent._check_can_select()
        if (agent.rounds_played, agent.horizon) != (start, horizon):
            raise ValueError("agents played together must share the round and horizon")
        want, shape = (horizon, agent.num_arms), np.shape(tables[i])
        if shape != want:
            raise ValueError(f"agent {i}'s reward table must be horizon x K = {want}, not {shape}")
    free = [agent._free_rounds - start for agent in agents]
    rounds = np.arange(start, horizon)
    arms = np.empty((len(agents), horizon - start), dtype=int)
    linear = [isinstance(agent.task_posterior, LinearGaussianPosterior) for agent in agents]
    if any(linear):
        lockstep = [i for i, flag in enumerate(linear) if flag]
        arms[lockstep] = play_linear(
            [agents[i].task_posterior for i in lockstep],
            [streams[i] for i in lockstep],
            [tables[i][start:] for i in lockstep],
            [free[i] for i in lockstep],
        )
    # A run's agents come one after another with one shared table: convert
    # it once, and hold only its lists, since many live lists slow the GC.
    table, rows = None, None
    for i, agent in enumerate(agents):
        if not linear[i]:
            if tables[i] is not table:
                table, rows = tables[i], tables[i][start:].tolist()
            arms[i] = agent.task_posterior.play(streams[i], rows, free[i])
        agent._record(arms[i], tables[i][rounds, arms[i]])
    return arms


def end_tasks(agents: list) -> None:
    """End every agent's task after its last round; all are checked first.

    The MetaTS meta-updates go through posteriors.update_meta_posteriors in
    one call, so the categorical (or Gaussian) states of a chunk update as
    one array computation, with the bits of ending each task alone.
    """
    for agent in agents:
        if not agent._in_task:
            raise RuntimeError("end_task outside a task")
        if agent.rounds_played < agent.horizon:
            raise RuntimeError(f"end_task after {agent.rounds_played}/{agent.horizon} rounds")
    learners = [agent for agent in agents if agent.kind == METATS]
    metas = update_meta_posteriors([a.meta for a in learners], [a.log for a in learners])
    for agent, meta in zip(learners, metas):
        agent.meta = meta
    for agent in agents:
        agent.tasks_completed += 1
        agent._in_task = False
