"""Release gate: one test per benchmark claim, one printed verdict line each.

Run with plain pytest; each criterion prints its measured numbers through the
capture-disabled channel so the verdict is visible in normal runs:

    python3 -m pytest tests/test_acceptance.py
"""

import json
import math
import os
import subprocess
import sys
import time

from metats.bounds import certify_lemma1, certify_lemma3, check_technical_lemmas, lemma3_config
from metats.harness import ExperimentConfig, regret_slope, run_experiment
from metats.selftest import (
    check_categorical_vs_grid,
    check_gaussian_linear_identity,
    check_gaussian_vs_joint,
    check_woodbury_vs_direct,
)

SEED = 23
# The metats.cli subprocesses import the package from this checkout's src.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CLI_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
)


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def pooled_stderr(report, a, b):
    return math.hypot(report.final_stderr(a), report.final_stderr(b))


def ordering_holds(report, names=("OracleTS", "MetaTS", "TS")):
    """Adjacent final regrets separated by >= 3 pooled standard errors."""
    gaps = []
    ok = True
    for lo, hi in zip(names, names[1:]):
        gap = report.final_mean(hi) - report.final_mean(lo)
        need = 3.0 * pooled_stderr(report, lo, hi)
        gaps.append((gap, need))
        ok = ok and gap >= need
    finals = ", ".join(f"{n}={report.final_mean(n):.1f}" for n in names)
    return ok, gaps, finals


def test_criterion_01_bound_constants(capsys, tmp_path):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "metats.cli", "check-bounds"],
        capture_output=True,
        text=True,
        timeout=60,
        env=CLI_ENV,
    )
    elapsed = time.perf_counter() - start
    report = json.loads(proc.stdout)
    prior = report["root_gap_prior"]
    marginal = report["root_gap_marginal"]
    ok = (
        proc.returncode == 0
        and abs(prior - 5.858) <= 0.01
        and abs(marginal - 11.638) <= 0.01
        and elapsed < 1.0
    )
    verdict(
        capsys,
        1,
        ok,
        f"root gaps {prior:.4f} / {marginal:.4f} (want 5.858 / 11.638 +-0.01), "
        f"{elapsed:.2f} s",
    )


def test_criterion_02_gaussian_ordering_and_slope(capsys, gaussian_report):
    ok, gaps, finals = ordering_holds(gaussian_report)
    slope_meta = regret_slope(gaussian_report, "MetaTS", (16, 20))
    slope_oracle = regret_slope(gaussian_report, "OracleTS", (16, 20))
    rel = abs(slope_meta - slope_oracle) / abs(slope_oracle)
    ok = ok and rel <= 0.25
    verdict(
        capsys,
        2,
        ok,
        f"{finals}; gaps {gaps[0][0]:.1f}>={gaps[0][1]:.1f}, "
        f"{gaps[1][0]:.1f}>={gaps[1][1]:.1f}; slope 16-20 "
        f"{slope_meta:.2f} vs oracle {slope_oracle:.2f} (rel {rel:.3f} <= 0.25)",
    )


def test_criterion_03_bernoulli_ordering_and_weight(capsys, bernoulli_report):
    ok, gaps, finals = ordering_holds(bernoulli_report)
    weight = float(bernoulli_report.true_prior_weight["MetaTS"][:, 20].mean())
    ok = ok and weight >= 0.95
    verdict(
        capsys,
        3,
        ok,
        f"{finals}; gaps {gaps[0][0]:.1f}>={gaps[0][1]:.1f}, "
        f"{gaps[1][0]:.1f}>={gaps[1][1]:.1f}; mean true-prior weight after "
        f"task 20 = {weight:.4f} >= 0.95",
    )


def test_criterion_04_linear_ordering(capsys, linear_report):
    ok, gaps, finals = ordering_holds(linear_report)
    verdict(
        capsys,
        4,
        ok,
        f"{finals}; gaps {gaps[0][0]:.1f}>={gaps[0][1]:.1f}, "
        f"{gaps[1][0]:.1f}>={gaps[1][1]:.1f}",
    )


def test_criterion_05_misspecification_robustness(capsys, gaussian_report):
    limit = gaussian_report.final_mean("TS")
    lines = []
    ok = True
    for name in ("MetaTSx3", "MetaTS/3"):
        final = gaussian_report.final_mean(name)
        slack = limit + 3.0 * pooled_stderr(gaussian_report, name, "TS")
        ok = ok and final <= slack
        lines.append(f"{name}={final:.1f} <= {slack:.1f}")
    verdict(capsys, 5, ok, "; ".join(lines) + f" (TS={limit:.1f})")


def test_criterion_06_degenerate_widths(capsys, degenerate_report):
    diff = degenerate_report.final_mean("MetaTS") - degenerate_report.final_mean("TS")
    need = 3.0 * pooled_stderr(degenerate_report, "MetaTS", "TS")
    ok = abs(diff) <= need
    verdict(
        capsys,
        6,
        ok,
        f"sigma_0 = sigma_q = 0.5: |MetaTS - TS| = {abs(diff):.2f} <= {need:.2f}",
    )


def test_criterion_07_oracle_equivalences(capsys):
    checks = [
        (check_categorical_vs_grid(), 1e-5),
        (check_gaussian_vs_joint(), 1e-10),
        (check_woodbury_vs_direct(), 1e-8),
        (check_gaussian_linear_identity(), 1e-10),
    ]
    ok = all(r.passed and r.tol <= tol for r, tol in checks)
    detail = "; ".join(f"{r.name} worst {r.worst:.1e} (tol {tol:.0e})" for r, tol in checks)
    verdict(capsys, 7, ok, detail)


def test_criterion_08_bound_certifications(capsys):
    cert = certify_lemma1(ExperimentConfig(master_seed=SEED), R=1000)
    lemma3 = run_experiment(lemma3_config(ExperimentConfig(m=5, master_seed=SEED), R=1000))
    freq = certify_lemma3(lemma3, delta=0.1)
    tech = check_technical_lemmas(trials=10_000)
    ok = cert.passed and freq <= 5 * 0.1 and tech["passed"]
    verdict(
        capsys,
        8,
        ok,
        f"per-task regret {cert.empirical:.2f} <= {cert.bound:.2f} + 3*{cert.stderr:.3f}; "
        f"concentration violations {freq:.4f} <= 0.5; "
        f"technical sweep {tech['trials']} trials, {tech['failures']} failures",
    )


def test_criterion_09_thread_count_determinism(capsys, tmp_path):
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        subprocess.run(
            [
                sys.executable,
                "-m",
                "metats.cli",
                "run",
                "--preset",
                "gaussian-smoke",
                "--seed",
                str(SEED),
                "--threads",
                str(threads),
                "--output",
                str(out),
            ],
            check=True,
            capture_output=True,
            timeout=600,
            env=CLI_ENV,
        )
        outs[threads] = {
            name: (out / name).read_bytes()
            for name in ("rows.csv", "summary.csv", "report.json")
        }
    same = {name: outs[1][name] == outs[8][name] for name in outs[1]}
    ok = all(same.values())
    sizes = ", ".join(f"{name} {len(outs[1][name])} B" for name in outs[1])
    verdict(capsys, 9, ok, f"1 vs 8 threads byte-identical ({sizes})")
