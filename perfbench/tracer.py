"""Span tracer for the benchmark's traced run.

The traced run times calls into the public functions of each metats module
without editing the package: every wrapped function is rebound in each
module that looks it up by name (``harness`` and ``agents`` import
``derive_stream``, ``sample_task_posterior`` and the rest by name;
``posteriors`` calls ``log_gamma`` by name), and methods are rebound on
their class. Spans stay in memory until ``finish``.

A layer whose functions no longer exist is reported as absent, never as
zero, so a refactor that deletes a wrapped name shows in the report.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Layer name -> the functions whose calls make up the layer, as
# "module:qualified.name". Names follow the metats module that owns them.
LAYERS = {
    "rng.derive_stream": ("metats.rng:derive_stream",),
    "envs.draws": (
        "metats.envs:sample_instance_prior",
        "metats.envs:sample_task_instance",
        "metats.envs:reward_table",
    ),
    "posteriors.task_init": ("metats.posteriors:init_task_posterior",),
    "posteriors.thompson_draw": ("metats.posteriors:sample_task_posterior",),
    "posteriors.task_update": ("metats.posteriors:update_task_posterior",),
    "posteriors.meta_sample": ("metats.posteriors:sample_meta_posterior",),
    "posteriors.meta_update": (
        "metats.posteriors:update_meta_posterior_categorical",
        "metats.posteriors:update_meta_posterior_gaussian",
        "metats.posteriors:update_meta_posterior_linear",
    ),
    "special.log_gamma": ("metats.special:log_gamma",),
    "agents.step": ("metats.agents:Agent.select_action", "metats.agents:Agent.observe"),
    "agents.task": ("metats.agents:Agent.begin_task", "metats.agents:Agent.end_task"),
    "harness.config": (
        "metats.harness:ExperimentConfig.__post_init__",
        "metats.bounds:BoundParams.__post_init__",
    ),
    "harness.loop": ("metats.harness:run_experiment",),
    "harness.emit_report": ("metats.harness:emit_report",),
    "bounds.certify_lemma1": ("metats.bounds:certify_lemma1",),
    "bounds.certify_lemma3": ("metats.bounds:certify_lemma3",),
    "bounds.technical_lemmas": ("metats.bounds:check_technical_lemmas",),
}

# Counted, not timed: their time stays in the self time of the layer that
# calls them (the Thompson draw, the task update, the meta-update).
COUNTERS = {
    "linalg.cholesky": "numpy.linalg:cholesky",
    "linalg.solve": "numpy.linalg:solve",
}

AGENT_ROUND = "metats.agents:Agent.select_action"
META_UPDATE_CATEGORICAL = "metats.posteriors:update_meta_posterior_categorical"


def resolve(target: str):
    """(owner, attribute, object) for "module:qualname", or None if it is gone."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    if obj is None:
        return None
    return owner, attr, obj


def self_times(spans, num_names: int):
    """Per-name (calls, self seconds, inclusive seconds) and root coverage.

    ``spans`` holds (name_id, start, end, parent_index) tuples, parent -1 for
    a root. Self time is a span's duration minus the time its child spans
    cover; calls are synchronous, so children never overlap each other.
    """
    child_cover = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    calls = [0] * num_names
    self_s = [0.0] * num_names
    total_s = [0.0] * num_names
    covered = 0.0
    for i, (name_id, start, end, parent) in enumerate(spans):
        calls[name_id] += 1
        self_s[name_id] += (end - start) - child_cover[i]
        total_s[name_id] += end - start
        if parent < 0:
            covered += end - start
    return calls, self_s, total_s, covered


class Tracer:
    """Records one span per call into a traced layer while installed."""

    def __init__(self, run_id: str, layers=None, counters=None, scope: str = "metats"):
        self.run_id = run_id
        self.layers = dict(LAYERS if layers is None else layers)
        self.counters = dict(COUNTERS if counters is None else counters)
        self.scope = scope
        self.names = list(self.layers)
        self.spans = []
        self.target_calls = {}
        self.live_candidates = 0
        self.evaluated_candidates = 0
        self.absent_targets = []
        self._stack = [-1]
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name_id, layer in enumerate(self.names):
            for target in self.layers[layer]:
                self._rebind(target, lambda fn, t=target, n=name_id: self._timed(fn, t, n))
        for target in self.counters.values():
            self._rebind(target, lambda fn, t=target: self._counted(fn, t))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, target: str, make_wrapper) -> None:
        found = resolve(target)
        if found is None:
            self.absent_targets.append(target)
            return
        owner, attr, original = found
        wrapper = make_wrapper(original)
        self.target_calls[target] = 0
        self._set(owner, attr, original, wrapper)
        if isinstance(owner, type):
            return
        # A function is also looked up in every module that imported it by name.
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not (
                mod_name == self.scope or mod_name.startswith(self.scope + ".")
            ):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _timed(self, fn, target: str, name_id: int):
        spans = self.spans
        stack = self._stack
        calls = self.target_calls
        clock = time.perf_counter
        observe = self._observe_meta_update if target == META_UPDATE_CATEGORICAL else None

        def wrapper(*args, **kwargs):
            calls[target] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counted(self, fn, target: str):
        calls = self.target_calls

        def wrapper(*args, **kwargs):
            calls[target] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_meta_update(self, result) -> None:
        weights = result.weights
        self.live_candidates += int((weights != 0.0).sum())
        self.evaluated_candidates += int(weights.size)

    # -- results -----------------------------------------------------------

    def summary(self, wall_start: float, wall_end: float) -> dict:
        """Per-layer calls and self time over [wall_start, wall_end].

        Named self times plus ``unattributed_s`` add up to the traced wall time.
        """
        calls, self_s, total_s, covered = self_times(self.spans, len(self.names))
        wall = wall_end - wall_start
        absent = set(self.absent_targets)
        layers = {}
        for i, layer in enumerate(self.names):
            if all(t in absent for t in self.layers[layer]):
                layers[layer] = {"status": "absent"}
            else:
                layers[layer] = {
                    "status": "ok",
                    "calls": calls[i],
                    "self_s": self_s[i],
                    "total_s": total_s[i],
                }
        counts = {
            name: self.target_calls.get(target)
            for name, target in self.counters.items()
        }
        return {
            "run_id": self.run_id,
            "wall_s": wall,
            "unattributed_s": wall - covered,
            "layers": layers,
            "counters": counts,
            "agent_rounds": self.target_calls.get(AGENT_ROUND),
            "live_candidates": self.live_candidates,
            "evaluated_candidates": self.evaluated_candidates,
            "absent_targets": sorted(absent),
        }

    def write_spans(self, path: str, origin: float) -> None:
        """One header line, then one [name, start, end, parent] line per span.

        Times are seconds after ``origin``; parent is the line index of the
        parent span among the span lines, -1 for a root.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "names": self.names}) + "\n")
            for name_id, start, end, parent in self.spans:
                fh.write(
                    f'["{self.names[name_id]}",{start - origin:.9f},{end - origin:.9f},{parent}]\n'
                )
