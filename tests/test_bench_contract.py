"""The benchmark's entry points still work on this tree.

perfbench/worker.py imports metats, wraps some of its functions by name and
checks the outputs against perfbench/goldens.json. A rename or deletion there
makes every repetition die, so this runs repetitions in a fresh process, as
the benchmark does, and reads perfbench/ without editing it. The traced run
wraps more names (perfbench/tracer.py); one that is gone does not fail the
repetition but turns its layer absent and its metrics null, so that is
checked too.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SEED = 23


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(BENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _run_worker(tmp_path, name, trace):
    """One repetition of the workload at SEED; its checked last line."""
    workloads = _load("workloads")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH, "worker.py"),
            json.dumps(workloads.make_workload(name, SEED)),
            str(tmp_path),
            trace,
            f"{name}/contract",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["problems"] == []
    assert result["digests"] == workloads.load_goldens()[name]
    return result


@pytest.mark.parametrize("name", ["certify", "bernoulli-short"])
def test_worker_prints_a_correct_result_line(tmp_path, name):
    result = _run_worker(tmp_path, name, "0")
    if name == "certify":
        # 16,800 = 800 + 16,000: 4 lemma-1 runs of 200 rounds, plus the
        # Lemma 3 run of 4 runs x 20 tasks x 200 rounds, both counted
        # through bounds.run_experiment.
        assert result["agent_rounds"] == 16_800


@pytest.mark.parametrize("name", _load("workloads").WORKLOADS)
def test_traced_worker_finds_every_layer(tmp_path, name):
    trace = _run_worker(tmp_path, name, "1")["trace"]
    assert trace["absent_targets"] == []
    assert {layer["status"] for layer in trace["layers"].values()} == {"ok"}


def test_every_traced_name_resolves():
    tracer = _load("tracer")
    targets = [t for layer in tracer.LAYERS.values() for t in layer]
    targets += list(tracer.COUNTERS.values())
    assert [t for t in targets if tracer.resolve(t) is None] == []
