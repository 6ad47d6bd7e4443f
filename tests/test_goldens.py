"""Byte-level reproducibility: SHA-256 digests of the emitted reports.

Small configs that cover every family, the misspecified MetaTS variants
of the Gaussian and linear families (name-keyed streams, the scaled
meta-prior width), forced terminal pulls (through the lemma 3
certification) and the certification JSON. A refactor of the simulation
must leave every digest unchanged. To see what moved, regenerate with

    PYTHONPATH=src python3 tests/test_goldens.py > tests/goldens.json

and diff against the committed file.
"""

import hashlib
import json
import os
import sys

import pytest

from metats.bounds import BoundParams, bounds_report
from metats.harness import ExperimentConfig, emit_report, run_experiment

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
SEED = 23
SMALL = {"runs": 3, "m": 5}
PRESETS = ("gaussian-smoke", "bernoulli-smoke", "gaussian-misspec", "linear-d4")
# Configs no preset covers: a base preset plus overrides of SMALL.
VARIANTS = {
    "linear-misspec": (
        "linear-d4",
        {
            "m": 3,
            "n": 30,
            "agents": [
                {"kind": "oracle"},
                {"kind": "metats"},
                {"kind": "metats", "misspecification_scale": 3.0},
                {"kind": "metats", "misspecification_scale": 0.3},
                {"kind": "agnostic"},
            ],
        },
    ),
    # From 8 candidates on, numpy's pairwise sum adds the weights in another
    # order than Python's sum does.
    "bernoulli-11-priors": (
        "bernoulli-smoke",
        {
            "m": 3,
            "n": 20,
            "prior_table": [[[1 + j, 11 - j], [11 - j, 1 + j]] for j in range(11)],
            "prior_weights": [1 / 11] * 11,
        },
    ),
}
REPORT_FILES = ("rows.csv", "summary.csv", "report.json")


def _preset(name: str) -> dict:
    from importlib import resources

    text = (resources.files("metats") / "presets" / f"{name}.json").read_text()
    return json.loads(text)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(case: str, out_dir: str) -> dict:
    preset, overrides = VARIANTS.get(case, (case, {}))
    data = _preset(preset)
    data.update(SMALL, master_seed=SEED)
    data.update(overrides)
    emit_report(run_experiment(ExperimentConfig(**data)), out_dir)
    digests = {}
    for name in REPORT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = _sha256(fh.read())
    return digests


def certify_digest() -> str:
    report = bounds_report(BoundParams(), certify=True, runs=2, master_seed=SEED)
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return _sha256(text.encode("utf-8"))


def all_digests(work_dir: str) -> dict:
    out = {c: run_digests(c, os.path.join(work_dir, c)) for c in PRESETS + tuple(VARIANTS)}
    out["certify"] = certify_digest()
    return out


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("preset", PRESETS + tuple(VARIANTS))
def test_report_digests(preset, goldens, tmp_path):
    assert run_digests(preset, str(tmp_path)) == goldens[preset]


def test_certify_digest(goldens):
    assert certify_digest() == goldens["certify"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(all_digests(tmp), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
