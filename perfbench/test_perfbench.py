"""Tests of the benchmark itself: trace arithmetic, digest checks, absent
layers and workload generation. They run without starting any process."""

import sys
import time
import types

import pytest

import run
import workloads
from tracer import Tracer, self_times


def test_self_time_is_duration_minus_child_cover():
    # outer [0, 10] calls inner [1, 4] and inner [5, 6]; a second root [12, 13].
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0), (0, 12.0, 13.0, -1)]
    calls, self_s, total_s, covered = self_times(spans, 2)
    assert calls == [2, 2]
    assert self_s == [7.0, 4.0]
    assert total_s == [11.0, 4.0]
    assert covered == 11.0


@pytest.fixture
def toy_module():
    """A module whose outer() looks inner() up by name, as metats modules do."""
    module = types.ModuleType("toybench")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) + inner(x)\n",
        module.__dict__,
    )
    sys.modules["toybench"] = module
    yield module
    del sys.modules["toybench"]


def test_traced_nested_call_adds_up(toy_module):
    layers = {"toy.outer": ("toybench:outer",), "toy.inner": ("toybench:inner",)}
    tracer = Tracer("toy/rep0", layers=layers, counters={}, scope="toybench")
    tracer.install()
    start = time.perf_counter()
    assert toy_module.outer(1) == 4
    end = time.perf_counter()
    tracer.uninstall()
    summary = tracer.summary(start, end)
    outer, inner = summary["layers"]["toy.outer"], summary["layers"]["toy.inner"]
    assert (outer["calls"], inner["calls"]) == (1, 2)
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)
    named = outer["self_s"] + inner["self_s"]
    assert named + summary["unattributed_s"] == pytest.approx(summary["wall_s"], abs=1e-12)
    # Uninstalling restores the original functions.
    assert toy_module.outer(1) == 4 and len(tracer.spans) == 3


def test_missing_wrapped_name_is_absent_not_zero(toy_module):
    layers = {"toy.outer": ("toybench:outer",), "toy.gone": ("toybench:deleted_function",)}
    tracer = Tracer("toy/rep0", layers=layers, counters={"toy.count": "nosuchmodule:f"}, scope="toybench")
    tracer.install()
    toy_module.outer(1)
    tracer.uninstall()
    summary = tracer.summary(0.0, 1.0)
    assert summary["layers"]["toy.gone"] == {"status": "absent"}
    assert summary["layers"]["toy.outer"]["calls"] == 1
    assert summary["counters"] == {"toy.count": None}


def test_absent_layer_reported_without_a_value():
    layer_stats = {layer: {"status": "ok", "calls": 0, "self_s": 0.0} for layer in run.LAYERS}
    layer_stats["special.log_gamma"] = {"status": "absent"}
    trace = {
        "layers": layer_stats,
        "counters": {"linalg.cholesky": 0, "linalg.solve": 0},
        "agent_rounds": 10,
        "live_candidates": 0,
        "evaluated_candidates": 0,
        "unattributed_s": 0.0,
        "wall_s": 1.0,
    }
    metrics = run.per_layer([{"trace": trace, "emit_bytes": 0}], [{"wall_s": 1.0}])
    assert metrics["special.log_gamma.self_s"] == {"value": None, "unit": "s", "status": "absent"}
    assert metrics["special.log_gamma.calls"]["status"] == "absent"
    assert metrics["envs.draws.calls"]["value"] == 0


def test_one_byte_change_is_caught_by_digest(tmp_path):
    files = {"rows.csv": b"agent,run,task,cum_regret\nTS,0,1,0.5\n", "report.json": b"{}\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    golden = {name: workloads.sha256_file(str(tmp_path / name)) for name in files}
    observed = dict(golden)
    assert workloads.compare_digests(observed, golden) == []

    changed = bytearray(files["rows.csv"])
    changed[-2] ^= 0x01  # "0.5" -> "0.4"
    (tmp_path / "rows.csv").write_bytes(bytes(changed))
    observed["rows.csv"] = workloads.sha256_file(str(tmp_path / "rows.csv"))
    problems = workloads.compare_digests(observed, golden)
    assert len(problems) == 1 and problems[0].startswith("rows.csv")


def test_non_finite_output_is_a_problem(tmp_path):
    (tmp_path / "rows.csv").write_text("agent,run,task,cum_regret\nTS,0,1,nan\n")
    (tmp_path / "summary.csv").write_text("agent,task,mean,stderr\nTS,1,0.5,0\n")
    (tmp_path / "report.json").write_text('{"agents": ["TS"], "runs": 1, "x": Infinity}\n')
    problems = workloads.check_run_outputs(str(tmp_path), agents=1, runs=1, tasks=1)
    assert any(p.startswith("rows.csv") for p in problems)
    assert any(p.startswith("report.json") for p in problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_is_a_pure_function_of_its_seed(name):
    first = workloads.make_workload(name, 7)
    first["mutated"] = True
    again = workloads.make_workload(name, 7)
    assert "mutated" not in again
    assert again == workloads.make_workload(name, 7)
    other = workloads.make_workload(name, 8)
    assert other != again
    assert other["seed"] == 8 and again["seed"] == 7


def test_goldens_cover_every_workload():
    goldens = workloads.load_goldens()
    assert set(goldens) == set(workloads.WORKLOADS)
    for name, spec in workloads.WORKLOADS.items():
        expected = ("rows.csv", "summary.csv", "report.json") if spec["kind"] == "run" else (workloads.CERTIFY_FILE,)
        assert set(goldens[name]) == set(expected)
