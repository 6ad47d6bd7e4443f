"""Layered benchmark for `metats run` and `check-bounds --certify`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, every metric

Run from the repository root; the package is imported from ./src. Each
repetition runs in a fresh, single-threaded process (worker.py) and repeats
until --seconds have passed. End-to-end metrics are the 90th percentile
(10th for rates) over untraced repetitions; see _contended. With --trace 1,
traced repetitions alternate with untraced ones and the per-layer metrics
are medians over the traced ones. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. A record
with the machine and environment is written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

MIN_REPS = 3
REP_TIMEOUT_S = 45.0
# Stop starting repetitions after this long, so a run ends well within 180 s.
HARD_STOP_S = 100.0

# End-to-end metric -> (unit, which direction is better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "agent_rounds_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_rep(spec: dict, work_dir: str, traced: bool, run_id: str, env: dict, golden) -> tuple:
    """(result dict or None, problems) for one repetition in a fresh process."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        json.dumps(spec),
        work_dir,
        "1" if traced else "0",
        run_id,
    ]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"{run_id}: timed out after {REP_TIMEOUT_S:.0f} s"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, [f"{run_id}: exit code {proc.returncode}: {tail[0]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, [f"{run_id}: no result line"]
    problems = [f"{run_id}: {p}" for p in result["problems"]]
    if golden is not None:
        problems += [f"{run_id}: {p}" for p in workloads.compare_digests(result["digests"], golden)]
    return result, problems


def _repeated_counts(result: dict) -> dict:
    """Values that must repeat exactly across repetitions of one workload and seed."""
    counts = {"digests": result["digests"], "harness.emit_report.bytes": result["emit_bytes"]}
    trace = result.get("trace")
    if trace is not None:
        for layer, stats in trace["layers"].items():
            counts[layer + ".calls"] = stats.get("calls")
        counts.update(trace["counters"])
        counts["agent_rounds"] = trace["agent_rounds"]
        counts["live_candidates"] = trace["live_candidates"]
    return counts


def measure(spec: dict, seconds: float, traced: bool, root: str) -> dict:
    """Run repetitions for `seconds` and aggregate them."""
    work_dir = os.path.join(root, ".perfbench", spec["name"])
    os.makedirs(work_dir, exist_ok=True)
    env = _env(root)
    golden = None
    if spec["seed"] == workloads.DEFAULT_SEED:
        golden = workloads.load_goldens()[spec["name"]]
    plain, traced_results, problems = [], [], []
    attempted = failed = 0
    durations = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(plain) >= MIN_REPS and (not traced or len(traced_results) >= MIN_REPS)
        typical = statistics.median(durations) if durations else 0.0
        if (enough and elapsed + typical > seconds) or elapsed > HARD_STOP_S:
            break
        if failed >= MIN_REPS and not plain and not traced_results:
            break  # nothing has succeeded: the program is broken, not slow
        use_trace = traced and attempted % 2 == 1
        run_id = f"{spec['name']}/seed{spec['seed']}/rep{attempted}"
        rep_start = time.perf_counter()
        result, rep_problems = _run_rep(spec, work_dir, use_trace, run_id, env, golden)
        durations.append(time.perf_counter() - rep_start)
        attempted += 1
        if result is None or rep_problems:
            failed += 1
            problems += rep_problems
            continue
        (traced_results if use_trace else plain).append(result)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "plain": plain,
        "traced": traced_results,
    }


def _contended(values, better: str) -> float:
    """90th percentile of a time (10th of a rate) over the repetitions.

    Repetition times on a shared host are bimodal: a contended state present
    in every run and bursts of uncontended speed whose share varies from run
    to run. The run median flips between the two; this percentile stays on
    the contended state.
    """
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[-1] if better == "lower" else cuts[0]


def end_to_end(plain: list) -> tuple:
    """(metrics, medians, per-repetition samples) over the untraced repetitions."""
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "agent_rounds_per_s": [r["agent_rounds"] / r["simulation_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    metrics = {
        name: {"value": _contended(values, END_TO_END[name][1]), "unit": END_TO_END[name][0]}
        for name, values in samples.items()
    }
    medians = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, medians, samples


def per_layer(traced: list, plain: list) -> dict:
    first = traced[0]["trace"]
    out = {}
    for layer in LAYERS:
        if first["layers"][layer]["status"] == "absent":
            out[layer + ".calls"] = {"value": None, "unit": "count", "status": "absent"}
            out[layer + ".self_s"] = {"value": None, "unit": "s", "status": "absent"}
            continue
        out[layer + ".calls"] = {"value": first["layers"][layer]["calls"], "unit": "count"}
        out[layer + ".self_s"] = {
            "value": statistics.median(r["trace"]["layers"][layer]["self_s"] for r in traced),
            "unit": "s",
        }
    rounds = first["agent_rounds"] or 0
    for name, count in first["counters"].items():
        per_round = None if count is None else (count / rounds if rounds else 0.0)
        out[name + ".per_agent_round"] = {"value": per_round, "unit": "1/round"}
    evaluated = first["evaluated_candidates"]
    out["posteriors.meta_update.live_candidate_ratio"] = {
        "value": first["live_candidates"] / evaluated if evaluated else 0.0,
        "unit": "ratio",
    }
    out["harness.emit_report.bytes"] = {"value": traced[0]["emit_bytes"], "unit": "bytes"}
    out["agents.rounds"] = {"value": rounds, "unit": "count"}
    traced_wall = statistics.median(r["trace"]["wall_s"] for r in traced)
    out["unattributed_s"] = {
        "value": statistics.median(r["trace"]["unattributed_s"] for r in traced),
        "unit": "s",
    }
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.overhead_s"] = {
        "value": traced_wall - statistics.median(r["wall_s"] for r in plain),
        "unit": "s",
    }
    return out


def trace_checks(traced: list) -> list:
    """Named self times plus unattributed time must add up to the traced wall time."""
    problems = []
    for r in traced:
        t = r["trace"]
        named = sum(s.get("self_s", 0.0) for s in t["layers"].values())
        if abs(named + t["unattributed_s"] - t["wall_s"]) > 1e-6:
            problems.append(f"{t['run_id']}: self times do not add up to the traced wall time")
    return problems


def prediction(spec: dict, traced: list) -> dict:
    """Which layer dominates, and whether it is the one the workload predicts."""
    basis = workloads.PREDICTION_BASIS.get(spec["name"], "self_s")
    layers = traced[0]["trace"]["layers"]
    times = {
        layer: statistics.median(r["trace"]["layers"][layer][basis] for r in traced)
        for layer, stats in layers.items()
        if stats["status"] == "ok"
    }
    dominant = max(times, key=times.get)
    wall = statistics.median(r["trace"]["wall_s"] for r in traced)
    return {
        "predicted": spec["predicted"],
        "predicted_share": times.get(spec["predicted"], 0.0) / wall,
        "dominant": dominant,
        "basis": basis,
        "share_of_traced_wall": times[dominant] / wall,
        "matches": dominant == spec["predicted"],
    }


def _git_commit(root: str):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: str) -> dict:
    spec = workloads.make_workload(name, seed)
    load_before = os.getloadavg()
    wall_start = time.perf_counter()
    m = measure(spec, seconds, traced, root)
    problems = list(m["problems"])
    plain, traced_results = m["plain"], m["traced"]
    if not plain or (traced and not traced_results):
        return {"spec": spec, "attempted": m["attempted"], "failed": m["failed"], "problems": problems}
    reps = plain + traced_results
    first_seen = {}
    for r in reps:
        for key, value in _repeated_counts(r).items():
            first_value, first_id = first_seen.setdefault(key, (value, r["run_id"]))
            if value != first_value:
                problems.append(f"{r['run_id']}: {key} differs from {first_id}")
    problems += trace_checks(traced_results)
    metrics, medians, samples = end_to_end(plain)
    record = {
        "workload": name,
        "seed": seed,
        "config": spec,
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
        },
        "python": reps[0]["python"],
        "numpy": reps[0]["numpy"],
        "git_commit": _git_commit(root),
        "threads": 1,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "benchmark_s": time.perf_counter() - wall_start,
        "repetitions": {"untraced": len(plain), "traced": len(traced_results)},
        "attempted": m["attempted"],
        "failed": m["failed"],
        "failed_ops": {"value": m["failed"] / m["attempted"], "unit": "share"},
        "end_to_end": metrics,
        "medians": medians,
        "samples": samples,
        "digests": reps[0]["digests"],
        "problems": problems,
    }
    if traced_results:
        record["per_layer"] = per_layer(traced_results, plain)
        record["prediction"] = prediction(spec, traced_results)
    return record


def print_record(record: dict) -> None:
    name = record["config"]["name"]
    rows = dict(record["end_to_end"])
    rows["failed_ops"] = record["failed_ops"]
    rows.update(record.get("per_layer", {}))
    for metric, entry in rows.items():
        value = entry.get("status") or entry["value"]
        median = record["medians"].get(metric)
        note = "" if median is None else f"  (median {median:.6g})"
        print(f"{name:<16} {metric:<46} {value} {entry['unit']}{note}")
    if "prediction" in record:
        p = record["prediction"]
        verdict = "matches" if p["matches"] else "does NOT match"
        print(
            f"{name:<16} dominant layer ({p['basis']}) {p['dominant']} "
            f"{p['share_of_traced_wall']:.1%} of traced wall; {verdict} prediction "
            f"{p['predicted']} ({p['predicted_share']:.1%})"
        )
    env = {k: record[k] for k in ("machine", "python", "numpy", "git_commit", "threads",
                                  "loadavg_before", "loadavg_after", "repetitions")}
    print(f"{name:<16} environment {json.dumps(env, sort_keys=True)}")
    for problem in record["problems"]:
        print(f"{name:<16} problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "metats", "__init__.py")):
        print("error: run from the repository root; src/metats is missing", file=sys.stderr)
        return 2
    warm = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--warmup"],
        env=_env(root), capture_output=True, text=True, timeout=REP_TIMEOUT_S,
    )
    if warm.returncode != 0:
        print(f"error: cannot import metats: {warm.stderr.strip()}", file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traced = args.trace == 1 or args.workload == "all"
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, traced, root)
        if "end_to_end" not in record:
            for problem in record["problems"]:
                print(f"{name}: {problem}", file=sys.stderr)
            print(f"error: every repetition of {name} failed", file=sys.stderr)
            return 1
        out_path = os.path.join(
            root, ".perfbench", f"{name}-seed{args.seed}-trace{int(traced)}.json"
        )
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print_record(record)
        summary["correct"] = summary["correct"] and not record["problems"]
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        metrics = record["per_layer"] if args.trace == 1 else record["end_to_end"]
        prefix = f"{name}/" if args.workload == "all" else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
