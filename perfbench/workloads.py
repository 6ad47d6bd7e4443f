"""Benchmark workloads and the checks on their outputs.

Each workload is a fixed config; only the master seed comes from the
benchmark's ``--seed``. Reasons for each workload are in README.md.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os

DEFAULT_SEED = 23

WORKLOADS = {
    # gaussian-sec5 at reduced runs: per-round cost dominates.
    "gaussian-long": {
        "kind": "run",
        "preset": "gaussian-sec5",
        "overrides": {"runs": 1},
        "predicted": "posteriors.thompson_draw",
    },
    # linear-sec5 (K=10, d=2): per-round cost is Cholesky plus solves.
    "linear-long": {
        "kind": "run",
        "preset": "linear-sec5",
        "overrides": {"m": 10, "runs": 1},
        "predicted": "posteriors.thompson_draw",
    },
    # bernoulli-sec5 table, many short tasks: meta-updates and stream
    # derivation weigh most; Beta draws cannot be drawn ahead.
    "bernoulli-short": {
        "kind": "run",
        "preset": "bernoulli-sec5",
        "overrides": {"m": 200, "n": 5, "runs": 2},
        "predicted": "posteriors.meta_update",
    },
    # check-bounds --certify at the default bound params, reduced runs.
    "certify": {
        "kind": "certify",
        "params": {},
        "runs": 4,
        "lemma3_delta": 0.1,
        "predicted": "bounds.certify_lemma3",
    },
}

# The certify prediction is about which certification phase takes the time;
# its agent loop is itself traced, so compare inclusive time there.
PREDICTION_BASIS = {"certify": "total_s"}

CERTIFY_FILE = "certify.json"


def make_workload(name: str, seed: int) -> dict:
    """The config handed to the program: a pure function of (name, seed)."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    spec = copy.deepcopy(WORKLOADS[name])
    spec["name"] = name
    spec["seed"] = int(seed)
    if spec["kind"] == "run":
        spec["overrides"]["master_seed"] = int(seed)
    return spec


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _check_csv(path: str, header: str, rows: int, numeric_from: int) -> list:
    problems = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        problems.append(f"{os.path.basename(path)}: no trailing newline")
    lines = lines[:-1]
    if not lines or lines[0] != header:
        problems.append(f"{os.path.basename(path)}: header is not {header!r}")
        return problems
    if len(lines) - 1 != rows:
        problems.append(f"{os.path.basename(path)}: {len(lines) - 1} rows, expected {rows}")
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            values = [float(x) for x in fields[numeric_from:]]
        except ValueError:
            values = None
        if len(fields) != header.count(",") + 1 or values is None or not all(
            math.isfinite(v) for v in values
        ):
            problems.append(f"{os.path.basename(path)}:{number}: malformed or non-finite row")
            break
    return problems


def check_run_outputs(out_dir: str, agents: int, runs: int, tasks: int) -> list:
    """Problems with rows.csv, summary.csv and report.json; empty when well-formed."""
    problems = _check_csv(
        os.path.join(out_dir, "rows.csv"), "agent,run,task,cum_regret", agents * runs * tasks, 3
    )
    problems += _check_csv(
        os.path.join(out_dir, "summary.csv"), "agent,task,mean,stderr", agents * tasks, 2
    )
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = strict_json(fh.read())
        if len(report["agents"]) != agents or report["runs"] != runs:
            problems.append("report.json: agents or runs do not match the config")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"report.json: {exc}")
    return problems


def check_certify_output(path: str, lemma3_delta: float) -> list:
    """Problems with the certification report; empty when it is well-formed and passed."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = strict_json(fh.read())
        checks = {
            "lemma 1": report["empirical"]["passed"],
            "lemma 3": report["violation_frequency"]
            <= report["params"]["m"] * lemma3_delta,
            "technical lemmas": report["technical_lemmas"]["passed"],
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{os.path.basename(path)}: {exc}"]
    return [f"certification of {name} failed" for name, ok in checks.items() if not ok]


def compare_digests(observed: dict, golden: dict) -> list:
    """Names of files whose SHA-256 differs from the golden one."""
    return [
        f"{name}: digest {observed.get(name)} != golden {digest}"
        for name, digest in sorted(golden.items())
        if observed.get(name) != digest
    ]


def load_goldens() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
