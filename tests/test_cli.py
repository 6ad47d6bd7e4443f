"""End-to-end CLI behavior through main(argv): exit codes, files, precedence."""

import errno
import json
import os

import numpy as np
import pytest

from metats import harness
from metats.cli import EXIT_CONFIG, EXIT_OK, list_presets, main

TINY = ["m=2", "n=10", "runs=2"]
NAME_RULE = "agent name must be a non-empty string with no comma, quote or line break"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("METATS_SEED", raising=False)


def read_report(out_dir):
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestRunCommand:
    def test_writes_reports_and_summary(self, tmp_path, capsys):
        code = main(["run", "--output", str(tmp_path), "--seed", "5", *TINY])
        assert code == EXIT_OK
        for name in ("rows.csv", "summary.csv", "report.json"):
            assert (tmp_path / name).is_file()
        out = capsys.readouterr()
        summary = json.loads(out.out)  # stdout is machine-readable JSON only
        assert summary["master_seed"] == 5
        assert set(summary["final_cum_regret"]) == {"OracleTS", "MetaTS", "TS"}
        assert len(summary["written"]) == 3
        assert "task 4/4" in out.err  # runs x m (run, task) cells finished

    def test_defaults_are_benchmark_config(self, tmp_path):
        # Non-overridden keys fall back to the two-armed Gaussian benchmark.
        main(["run", "--output", str(tmp_path), "--seed", "0", *TINY])
        config = read_report(tmp_path)["config"]
        assert config["family"] == "gaussian"
        assert config["K"] == 2
        assert (config["sigma"], config["sigma_0"], config["sigma_q"]) == (1.0, 0.1, 0.5)
        assert config["n"] == 10  # the override sticks, everything else default

    def test_override_parses_json_values(self, tmp_path):
        main(
            [
                "run",
                "--output",
                str(tmp_path),
                "--seed",
                "0",
                "m=2",
                "n=10",
                "runs=1",
                'agents=[{"kind": "oracle"}]',
            ]
        )
        report = read_report(tmp_path)
        assert report["agents"] == ["OracleTS"]

    def test_format_selection(self, tmp_path):
        main(["run", "--output", str(tmp_path / "c"), "--format", "csv", "--seed", "0", *TINY])
        assert (tmp_path / "c" / "rows.csv").is_file()
        assert not (tmp_path / "c" / "report.json").exists()
        main(["run", "--output", str(tmp_path / "j"), "--format", "json", "--seed", "0", *TINY])
        assert (tmp_path / "j" / "report.json").is_file()
        assert not (tmp_path / "j" / "rows.csv").exists()

    def test_repeat_invocation_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            main(["run", "--output", str(tmp_path / sub), "--seed", "7", *TINY])
        for name in ("rows.csv", "summary.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"family": "bernoulli", "m": 2, "n": 10, "runs": 2}))
        code = main(
            ["run", "--config", str(path), "--output", str(tmp_path / "out"), "--seed", "1"]
        )
        assert code == EXIT_OK
        assert read_report(tmp_path / "out")["config"]["family"] == "bernoulli"

    def test_preset_with_overrides(self, tmp_path):
        code = main(
            [
                "run",
                "--preset",
                "gaussian-smoke",
                "--output",
                str(tmp_path),
                "--seed",
                "2",
                "runs=2",
                "m=2",
            ]
        )
        assert code == EXIT_OK
        report = read_report(tmp_path)
        assert report["config"]["runs"] == 2
        assert report["config"]["n"] == 50  # from the preset


class TestConfigErrors:
    def test_invalid_value_names_key(self, tmp_path, capsys):
        code = main(["run", "--output", str(tmp_path), "sigma_0=-1", *TINY])
        assert code == EXIT_CONFIG
        assert "sigma_0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["sigma=Infinity"], "sigma"),
            (["sigma_0=1e-200"], "sigma_0"),
            (["sigma_q=1e-200"], "sigma_q"),
            (["sigma_0=1e200"], "sigma_0"),
            (["sigma=NaN"], "sigma"),
            (["sigma=1e150", "sigma_0=1e-150"], "sigma**2 / sigma_0**2"),
        ],
    )
    def test_width_outside_float_range_names_key(self, tmp_path, capsys, overrides, key):
        # Squared widths that underflow to 0 or overflow, non-finite widths and
        # an overflowing noise-to-prior ratio are configuration errors, not
        # tracebacks.
        code = main(["run", "--preset", "gaussian-smoke", "--output", str(tmp_path), *overrides])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} " in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "preset, override, key",
        [
            # (sigma_q * scale)**2 overflows the Gaussian meta variance.
            ("gaussian-smoke", 'agents=[{"kind": "metats", "misspecification_scale": 1e300}]',
             "misspecification_scale"),
            # 1 / (sigma_q * scale)**2 overflows the linear meta precision.
            ("linear-d4", 'agents=[{"kind": "metats", "misspecification_scale": 1e-300}]',
             "misspecification_scale"),
            ("bernoulli-smoke", "prior_table=[[[NaN, 1], [1, 1]]]", "prior_table"),
            ("bernoulli-smoke", "prior_table=[[[1e308, 1], [1, 1]]]", "prior_table"),
            ("bernoulli-smoke", "prior_table=[[[1e-320, 1], [1, 1]]]", "prior_table"),
        ],
    )
    def test_prior_outside_float_range_names_key(self, tmp_path, capsys, preset, override, key):
        code = main(["run", "--preset", preset, "--output", str(tmp_path), override, *TINY])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ")
        assert not (tmp_path / "report.json").exists()

    def test_linear_widths_at_any_scale_run(self, tmp_path):
        # Every width of linear-d4 times 2e13: the precision matrices are
        # about 1e-26 I, perfectly conditioned, so the pivot floor (relative
        # to each matrix's largest pivot) accepts them, and the regrets are
        # the unscaled ones times 2e13.
        small = ["m=2", "runs=1", "n=5"]
        code = main(["run", "--preset", "linear-d4", "--output", str(tmp_path / "unit"), *small])
        assert code == EXIT_OK
        scaled = ["sigma=2e13", "sigma_0=2e12", "sigma_q=1e13", *small]
        code = main(["run", "--preset", "linear-d4", "--output", str(tmp_path / "wide"), *scaled])
        assert code == EXIT_OK
        unit = read_report(tmp_path / "unit")["cum_regret"]
        wide = read_report(tmp_path / "wide")["cum_regret"]
        for name, rows in unit.items():
            np.testing.assert_allclose(np.array(wide[name]), 2e13 * np.array(rows), rtol=1e-9)
            assert np.all(np.isfinite(wide[name]))

    def test_linear_meta_prior_too_wide_to_condition_names_key(self, tmp_path, capsys):
        # sigma_q = 1e13 against sigma_0 = 0.1: one task's data leaves the
        # meta and agnostic precisions with condition numbers near 1e27,
        # beyond float Cholesky, so the config is refused by name.
        args = ["sigma_q=1e13", "m=2", "runs=1", "n=5"]
        code = main(["run", "--preset", "linear-d4", "--output", str(tmp_path), *args])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: sigma_q gives a linear posterior")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ("K=2.9", "K must be an integer, got 2.9"),
            ("n=true", "n must be an integer, got True"),
            ("runs=1e400", "runs must be an integer, got inf"),
            ("K=abc", "K must be an integer, got 'abc'"),
            (
                'agents=[{"kind": "oracle", "forced_last_k": "false"}]',
                "forced_last_k must be true or false, got 'false'",
            ),
            (
                'agents=[{"kind": "metats", "misspecification_scale": true}]',
                "misspecification_scale must be a number, got True",
            ),
            # A name is a rows.csv field: 5 was a traceback, and "a,b" wrote
            # a 5-field row under the 4-column header.
            ('agents=[{"kind": "oracle", "name": 5}]', f"{NAME_RULE}, got 5"),
            ('agents=[{"kind": "oracle", "name": "a,b"}]', f"{NAME_RULE}, got 'a,b'"),
            ('agents=[{"kind": "oracle", "name": ""}]', f"{NAME_RULE}, got ''"),
            ('agents=[{"kind": "oracle", "name": "x\\"y"}]', f"{NAME_RULE}, got 'x\"y'"),
            ('agents=[{"kind": "oracle", "name": "a\\nb"}]', f"{NAME_RULE}, got 'a\\nb'"),
            # A task too large for memory, refused before anything is allocated.
            (
                "n=1000000000",
                "n * agents * (K + noise) must be <= 10000000; got 1000000000 * 3 * (2 + 2) = "
                "12000000000",
            ),
            # Was a TypeError traceback from os.makedirs after the whole run.
            ("output_dir=5", "output_dir must be a string, got 5"),
        ],
    )
    def test_scalar_of_the_wrong_type_names_key(self, tmp_path, capsys, override, message):
        code = main(["run", "--preset", "gaussian-smoke", "--output", str(tmp_path), override])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ("prior_weights=[true, false]", "prior_weights entry must be a number, got True"),
            ("prior_weights=0.5", "prior_weights must be a list of numbers, got 0.5"),
            ("prior_table=[[[true, 1], [1, 1]]]", "prior_table shape must be a number, got True"),
            ('prior_table=[[["a", 1], [1, 1]]]', "prior_table shape must be a number, got 'a'"),
            (
                "prior_table=[[[1, 1, 1], [1, 1]]]",
                "prior_table pair must be an (alpha, beta) pair, got [1, 1, 1]",
            ),
            ("prior_table=5", "prior_table must be a list of candidates, got 5"),
        ],
    )
    def test_bernoulli_table_of_the_wrong_type_names_key(
        self, tmp_path, capsys, override, message
    ):
        args = ["run", "--preset", "bernoulli-sec5", "--output", str(tmp_path), override]
        code = main([*args, "m=1", "n=2", "runs=1"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "report.json").exists()

    def test_output_path_that_is_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        # Was "File exists" at exit 2 after the whole simulation.
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(harness, "_simulate_runs", no_simulation)
        path = tmp_path / "taken"
        path.write_text("")
        code = main(["run", "--preset", "gaussian-smoke", "--output", str(path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: --output/output_dir {str(path)!r} cannot be created as a directory: "
            f"{os.strerror(errno.EEXIST)}\n"
        )

    @pytest.mark.parametrize("threads", ["0", "-3", "65"])
    def test_threads_out_of_range_names_flag(self, tmp_path, capsys, monkeypatch, threads):
        # 0 and -3 ran serially; nothing bounded the worker processes forked.
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(harness, "_simulate_runs", no_simulation)
        code = main(["run", "--preset", "gaussian-smoke", "-o", str(tmp_path), "--threads", threads])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --threads must be in [1, 64], got {threads}\n"

    def test_unknown_override_key(self, tmp_path, capsys):
        code = main(["run", "--output", str(tmp_path), "sigma_9=1", *TINY])
        assert code == EXIT_CONFIG
        assert "sigma_9" in capsys.readouterr().err

    def test_malformed_override(self, tmp_path, capsys):
        code = main(["run", "--output", str(tmp_path), "n5"])
        assert code == EXIT_CONFIG
        assert "key=value" in capsys.readouterr().err

    def test_unknown_file_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"horizon": 10}')
        code = main(["run", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert "horizon" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["run", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert "malformed" in capsys.readouterr().err

    def test_non_object_root(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code = main(["run", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert "JSON object" in capsys.readouterr().err

    def test_config_and_preset_conflict(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{}")
        code = main(["run", "--config", str(path), "--preset", "gaussian-smoke"])
        assert code == EXIT_CONFIG
        assert "not both" in capsys.readouterr().err

    def test_unknown_preset_lists_available(self, capsys):
        code = main(["run", "--preset", "does-not-exist"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "does-not-exist" in err
        assert "gaussian-sec5" in err

    def test_weights_off_by_numpys_sum_exit_before_any_run(self, tmp_path, capsys, monkeypatch):
        # Python's sum puts these within 1e-9 of 1 and numpy's does not: the
        # config accepted them, and every run died with exit 2 naming no key.
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(harness, "_simulate_runs", no_simulation)
        weights = [
            0.11060546255805882, 0.15589299600275422, 0.01226266979389847,
            0.022913499402897473, 0.14786723381704564, 0.09176484111365023,
            0.07376533935806588, 0.040797593432236275, 0.09479838956802387,
            0.17358585944382207, 0.07574611650954695,
        ]
        table = [[[2, 2], [2, 2]]] * len(weights)
        code = main([
            "run", "--preset", "bernoulli-smoke", "--output", str(tmp_path), "m=1", "n=2",
            "runs=1", f"prior_table={json.dumps(table)}", f"prior_weights={json.dumps(weights)}",
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: prior_weights must be nonnegative and sum to 1 within 1e-9\n"
        )

    def test_gaussian_task_cells_ignore_d(self, tmp_path, capsys):
        # A Gaussian agent draws K noise cells a round, never d.
        args = ["d=100000000", "m=1", "n=2", "runs=1"]
        code = main(["run", "--preset", "gaussian-smoke", "--output", str(tmp_path), *args])
        assert code == EXIT_OK
        assert read_report(tmp_path)["config"]["d"] == 100_000_000


class TestSeedPrecedence:
    def test_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("METATS_SEED", "11")
        main(["run", "--output", str(tmp_path), *TINY])
        assert read_report(tmp_path)["master_seed"] == 11

    def test_flag_beats_env_and_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("METATS_SEED", "11")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"master_seed": 3, "m": 2, "n": 10, "runs": 2}))
        main(["run", "--config", str(path), "--output", str(tmp_path / "o"), "--seed", "9"])
        assert read_report(tmp_path / "o")["master_seed"] == 9

    def test_env_beats_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("METATS_SEED", "11")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"master_seed": 3, "m": 2, "n": 10, "runs": 2}))
        main(["run", "--config", str(path), "--output", str(tmp_path / "o")])
        assert read_report(tmp_path / "o")["master_seed"] == 11

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("METATS_SEED", "not-a-number")
        code = main(["run", "--output", str(tmp_path), *TINY])
        assert code == EXIT_CONFIG
        assert "METATS_SEED" in capsys.readouterr().err


class TestCheckBounds:
    def test_reports_benchmark_constants(self, capsys):
        code = main(["check-bounds"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert abs(report["root_gap_prior"] - 5.858) < 0.01
        assert abs(report["root_gap_marginal"] - 11.638) < 0.01
        assert report["empirical"] is None

    def test_overrides(self, capsys):
        code = main(["check-bounds", "n=800", "delta=0.1"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["params"]["n"] == 800
        assert report["params"]["delta"] == 0.1

    def test_accepts_experiment_config(self, tmp_path, capsys):
        # A full experiment config may be pointed at check-bounds; keys that
        # are not bound params (runs, agents, ...) are ignored.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"family": "gaussian", "n": 50, "runs": 7}))
        code = main(["check-bounds", "--config", str(path)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["params"]["n"] == 50

    @pytest.mark.parametrize(
        "override, key",
        [
            ("sigma=Infinity", "sigma"),
            ("sigma_q=1e-200", "sigma_q"),
            ("sigma_0=1e-200", "sigma_0"),
        ],
    )
    def test_width_outside_float_range_names_key(self, capsys, override, key):
        code = main(["check-bounds", override])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{key} " in captured.err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("K=2.5", "K must be an integer, got 2.5"),
            ("m=true", "m must be an integer, got True"),
            ("m=1e400", "m must be an integer, got inf"),
            ("K=abc", "K must be an integer, got 'abc'"),
            ("delta=nan", "delta must be in (0, 1)"),
        ],
    )
    def test_scalar_of_the_wrong_type_names_key(self, capsys, override, message):
        code = main(["check-bounds", override])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "override, key",
        [("n=1e160", "n=1e+160"), ("m=1e308", "m=1e+308"), ("K=1e300", "K=1e+300"),
         ("delta=1e-320", "delta=9.99989e-321")],
    )
    def test_overflowing_params_name_the_key(self, capsys, override, key):
        # Each was exit 2 naming no key: an int too large for a float
        # (n, m), or an Infinity the JSON output refused (K, delta).
        code = main(["check-bounds", override])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: every bound must be a finite float, but they overflow at {key}\n"
        )

    def test_unknown_key(self, capsys):
        code = main(["check-bounds", "kappa=3"])
        assert code == EXIT_CONFIG
        assert "kappa" in capsys.readouterr().err

    def test_certify_small(self, capsys):
        code = main(
            [
                "check-bounds",
                "--certify",
                "--runs",
                "20",
                "--trials",
                "50",
                "--seed",
                "23",
                "n=20",
                "m=2",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["empirical"]["passed"] is True
        assert report["technical_lemmas"]["failures"] == 0


    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--runs", "0"], "--runs"),
            (["--lemma3-delta", "2"], "--lemma3-delta"),
            (["--lemma3-delta", "nan"], "--lemma3-delta"),
            (["--trials", "-5"], "--trials"),
            (["--seed", "-1"], "--seed"),
            (["n=1", "K=3"], "n must be >= K"),
            (["--runs", "10000001"], "--runs"),
            (["--runs", "500001"], "--runs"),
            (["n=1000000000"], "n * agents * (K + noise) must be <= 10000000"),
            # Was exit 2 from the certify config, after the flag checks passed.
            (["K=1", "n=5"], "K must be >= 2"),
        ],
    )
    def test_certify_flag_out_of_domain_names_flag(self, capsys, monkeypatch, args, flag):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(harness, "_simulate_runs", no_simulation)
        code = main(["check-bounds", "--certify", *args])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err


class TestSelftestCommand:
    def test_passes_on_correct_build(self, capsys):
        code = main(["selftest", "--trials", "200"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "selftest: all checks passed" in out
        assert out.count("ok ") >= 5

    def test_negative_trials_names_flag(self, capsys):
        code = main(["selftest", "--trials", "-5"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials" in captured.err


class TestHelp:
    def test_help_lists_config_keys_and_presets(self, capsys):
        code = main(["--help"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for key in ("family", "sigma_q", "master_seed", "prior_table", "delta"):
            assert key in out
        assert "gaussian-sec5" in out

    def test_presets_bundled(self):
        names = list_presets()
        for expected in (
            "gaussian-sec5",
            "bernoulli-sec5",
            "linear-sec5",
            "gaussian-misspec",
            "gaussian-smoke",
        ):
            assert expected in names
