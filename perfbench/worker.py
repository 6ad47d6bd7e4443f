"""One benchmark repetition in a fresh process; run.py starts it.

    python3 worker.py SPEC_JSON WORK_DIR TRACE RUN_ID
    python3 worker.py --warmup

SPEC_JSON is the workload from ``workloads.make_workload``. The repetition
writes the program's outputs under WORK_DIR/out and prints one JSON object:
set-up and wall times, simulation time and agent-rounds, peak RSS, output
digests and any problems found in the outputs. With TRACE=1 it also records
spans (see tracer.py), writes them to WORK_DIR/spans.jsonl and adds the
per-layer summary.
"""

import json
import os
import shutil
import sys
import time


class _Stopwatch:
    """Accumulates the time spent in calls to fn and the agent-rounds they simulate."""

    def __init__(self, fn, rounds):
        self.fn = fn
        self.rounds = rounds
        self.seconds = 0.0
        self.agent_rounds = 0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start
            self.agent_rounds += self.rounds(*args, **kwargs)


def _experiment_rounds(config, *args, **kwargs):
    return config.runs * config.m * config.n * len(config.agents)


def _task_rounds(agent, instance, horizon, *args, **kwargs):
    return horizon


def _load_preset(name: str) -> dict:
    from importlib import resources

    return json.loads((resources.files("metats") / "presets" / f"{name}.json").read_text())


def run_once(spec: dict, work_dir: str, traced: bool, run_id: str) -> dict:
    t0 = time.perf_counter()
    from metats import bounds, harness  # the import is part of set-up time

    data = _load_preset(spec["preset"]) if spec["kind"] == "run" else dict(spec["params"])
    data.update(spec.get("overrides", {}))
    loaded = time.perf_counter()

    import numpy
    import resource

    import workloads

    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    tracer = None
    timed, counted = [], []
    if traced:
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    else:
        # Simulation time: run_experiment wherever it is called, plus the
        # certification's own agent loop (certify_lemma3, whose rounds are
        # counted through the run_task calls it makes).
        experiment = _Stopwatch(harness.run_experiment, _experiment_rounds)
        harness.run_experiment = bounds.run_experiment = experiment
        timed.append(experiment)
        counted.append(experiment)
        if spec["kind"] == "certify":
            lemma3 = _Stopwatch(bounds.certify_lemma3, lambda *args, **kwargs: 0)
            tasks = _Stopwatch(bounds.run_task, _task_rounds)
            bounds.certify_lemma3, bounds.run_task = lemma3, tasks
            timed.append(lemma3)
            counted.append(tasks)

    emitted = []
    wall_start = time.perf_counter()
    if spec["kind"] == "run":
        config = harness.ExperimentConfig(**data)
        setup_end = time.perf_counter()
        report = harness.run_experiment(config, threads=1)
        emitted = harness.emit_report(report, out_dir)
        outputs = list(emitted)
    else:
        params = bounds.BoundParams(**data)
        setup_end = time.perf_counter()
        report = bounds.bounds_report(
            params,
            certify=True,
            runs=spec["runs"],
            lemma3_delta=spec["lemma3_delta"],
            master_seed=spec["seed"],
        )
        path = os.path.join(out_dir, workloads.CERTIFY_FILE)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        outputs = [path]
    wall_end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()

    if spec["kind"] == "run":
        problems = workloads.check_run_outputs(
            out_dir, len(config.agents), config.runs, config.m
        )
    else:
        problems = workloads.check_certify_output(outputs[0], spec["lemma3_delta"])

    result = {
        "run_id": run_id,
        "setup_s": (loaded - t0) + (setup_end - wall_start),
        "wall_s": wall_end - wall_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": {os.path.basename(p): workloads.sha256_file(p) for p in outputs},
        "emit_bytes": sum(os.path.getsize(p) for p in emitted),
        "problems": problems,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if not traced:
        result["simulation_s"] = sum(w.seconds for w in timed)
        result["agent_rounds"] = sum(w.agent_rounds for w in counted)
    if tracer is not None:
        result["trace"] = tracer.summary(wall_start, wall_end)
        tracer.write_spans(os.path.join(work_dir, "spans.jsonl"), wall_start)
    return result


def main(argv) -> int:
    if argv[1:] == ["--warmup"]:
        import metats  # noqa: F401  (fills the bytecode cache before timing)

        return 0
    spec_json, work_dir, trace, run_id = argv[1:]
    result = run_once(json.loads(spec_json), work_dir, trace == "1", run_id)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
