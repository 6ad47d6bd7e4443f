"""Command-line entry point.

Subcommands: `run` (Monte Carlo benchmark), `check-bounds` (closed-form bound
evaluators plus optional certification), `selftest` (oracle-equivalence
suites). Configuration comes from a JSON file or a bundled preset, with
key=value overrides applied on top. Progress goes to stderr; stdout carries
machine-readable output only.

Exit codes: 0 success, 1 configuration error, 2 runtime or numerical error,
3 selftest failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields
from importlib import resources

from .bounds import BoundParams, bounds_report, certify_config
from .harness import (
    MAX_REGRET_CELLS, MAX_THREADS, ExperimentConfig, emit_report, run_experiment
)
from .posteriors import NumericalError
from .selftest import run_selftest

__all__ = ["ConfigError", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_SELFTEST = 3


class ConfigError(ValueError):
    """Bad invocation or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _preset_dir():
    return resources.files("metats") / "presets"


def list_presets() -> list:
    names = []
    for entry in _preset_dir().iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def _field_default(f) -> str:
    if f.default is not MISSING:
        value = f.default
    elif f.default_factory is not MISSING:
        value = f.default_factory()
    else:
        return "(required)"
    if isinstance(value, tuple):
        value = json.loads(json.dumps(list(value)))
    return json.dumps(value)


def _epilog() -> str:
    lines = ["experiment config keys (JSON file keys and key=value overrides):"]
    for f in fields(ExperimentConfig):
        lines.append(f"  {f.name:<22} default {_field_default(f)}")
    lines.append("")
    lines.append("bound params (check-bounds overrides):")
    for f in fields(BoundParams):
        lines.append(f"  {f.name:<22} default {_field_default(f)}")
    lines.append("")
    lines.append("presets: " + ", ".join(list_presets()))
    return "\n".join(lines)


def _parse_override(text: str) -> tuple:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, _, raw = text.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _load_config_dict(args) -> dict:
    if args.config is not None and args.preset is not None:
        raise ConfigError("pass either --config or --preset, not both")
    if args.preset is not None:
        path = _preset_dir() / f"{args.preset}.json"
        if not path.is_file():
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(list_presets())}"
            )
        text = path.read_text(encoding="utf-8")
    elif args.config is not None:
        if not os.path.isfile(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    else:
        return {}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _resolve_seed(args, data: dict):
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("METATS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"METATS_SEED must be an integer, got {env!r}") from None
    return data.get("master_seed")


def _apply_overrides(data: dict, overrides, allowed: set, label: str) -> dict:
    out = dict(data)
    for text in overrides:
        key, value = _parse_override(text)
        if key not in allowed:
            raise ConfigError(f"unknown {label} key {key!r} in override {text!r}")
        out[key] = value
    return out


def _progress_printer():
    """A progress callback that prints each time another tenth of the
    (run, task) cells is finished."""
    printed = 0

    def progress(done: int, total: int) -> None:
        nonlocal printed
        if done * 10 // total > printed:
            printed = done * 10 // total
            print(f"task {done}/{total}", file=sys.stderr)

    return progress


def _cmd_run(args) -> int:
    threads = args.threads if args.threads is not None else min(os.cpu_count() or 1, MAX_THREADS)
    if not 1 <= threads <= MAX_THREADS:
        raise ConfigError(f"--threads must be in [1, {MAX_THREADS}], got {threads}")
    exp_keys = {f.name for f in fields(ExperimentConfig)}
    data = _load_config_dict(args)
    unknown = set(data) - exp_keys
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    data = _apply_overrides(data, args.overrides, exp_keys, "config")
    seed = _resolve_seed(args, data)
    if seed is not None:
        data["master_seed"] = seed
    try:
        config = ExperimentConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = args.output or config.output_dir or "results"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"--output/output_dir {out_dir!r} cannot be created as a directory: {exc.strerror}"
        ) from None
    report = run_experiment(config, threads=threads, progress=_progress_printer())
    written = emit_report(report, out_dir, fmt=args.format)
    summary = {
        "written": written,
        "master_seed": report.master_seed,
        "final_cum_regret": {
            name: report.final_mean(name) for name in report.agent_names
        },
    }
    print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


def _cmd_check_bounds(args) -> int:
    exp_keys = {f.name for f in fields(ExperimentConfig)}
    bound_keys = {f.name for f in fields(BoundParams)}
    data = _load_config_dict(args)
    unknown = set(data) - exp_keys - bound_keys
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    seed = _resolve_seed(args, data)
    # Experiment configs are accepted; only the bound-relevant keys are used.
    data = {k: v for k, v in data.items() if k in bound_keys}
    data = _apply_overrides(data, args.overrides, bound_keys, "bound param")
    try:
        params = BoundParams(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if args.certify:
        _check_certify_flags(args, params, seed)
    report = bounds_report(
        params,
        certify=args.certify,
        runs=args.runs,
        lemma3_delta=args.lemma3_delta,
        trials=args.trials,
        master_seed=seed if seed is not None else 23,
    )
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
    if args.certify:
        ok = report["empirical"]["passed"]
        ok = ok and report["violation_frequency"] <= params.m * args.lemma3_delta
        ok = ok and report["technical_lemmas"]["passed"]
        return EXIT_OK if ok else EXIT_RUNTIME
    return EXIT_OK


def _check_certify_flags(args, params: BoundParams, seed) -> None:
    """Reject out-of-domain certification inputs before any simulation starts."""
    checks = (
        (args.runs >= 1, f"--runs must be >= 1, got {args.runs}"),
        (
            args.runs * params.m <= MAX_REGRET_CELLS,
            f"--runs * m must be <= {MAX_REGRET_CELLS}, got {args.runs} * {params.m}",
        ),
        (
            0.0 < args.lemma3_delta < 1.0,
            f"--lemma3-delta must be in (0, 1), got {args.lemma3_delta!r}",
        ),
        (args.trials >= 0, f"--trials must be >= 0, got {args.trials}"),
        (
            not isinstance(seed, int) or seed >= 0,
            f"--seed (or METATS_SEED, master_seed) must be >= 0, got {seed}",
        ),
        (
            params.n >= params.K,
            f"n must be >= K for the forced terminal pulls of --certify; "
            f"got n={params.n}, K={params.K}",
        ),
    )
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    try:
        # The config the certifications run refuses K < 2 and a task too large.
        certify_config(params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_selftest(args) -> int:
    if args.trials < 0:
        raise ConfigError(f"--trials must be >= 0, got {args.trials}")
    passed, results = run_selftest(trials=args.trials)
    for result in results:
        print(result.line())
    print("selftest: " + ("all checks passed" if passed else "FAILURES"))
    return EXIT_OK if passed else EXIT_SELFTEST


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="metats",
        description="Meta-learning Thompson sampling simulator and bound checker.",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--preset", help="name of a bundled preset config")
    common.add_argument("--seed", type=int, help="master seed (overrides METATS_SEED and config)")
    common.add_argument(
        "overrides",
        nargs="*",
        metavar="key=value",
        help="config overrides; values are parsed as JSON when possible",
    )

    run = sub.add_parser(
        "run",
        parents=[common],
        help="run a Monte Carlo benchmark and write regret reports",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run.add_argument("--output", "-o", help="output directory (default: results)")
    run.add_argument(
        "--threads",
        type=int,
        help="worker processes (default: available parallelism); results do not depend on it",
    )
    run.add_argument(
        "--format",
        choices=("csv", "json", "both"),
        default="both",
        help="which report files to write (default: both)",
    )
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser(
        "check-bounds",
        parents=[common],
        help="evaluate the regret bound formulas, optionally certify by simulation",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    check.add_argument(
        "--certify",
        action="store_true",
        help="run the Monte Carlo certifications (orders of magnitude slower)",
    )
    check.add_argument("--runs", type=int, default=1000, help="certification replications")
    check.add_argument(
        "--lemma3-delta",
        type=float,
        default=0.1,
        help="failure probability per task in the concentration certification",
    )
    check.add_argument(
        "--trials", type=int, default=10_000, help="partial-sum inequality trials"
    )
    check.set_defaults(func=_cmd_check_bounds)

    self_p = sub.add_parser(
        "selftest",
        help="compare every closed form against its independent oracle",
    )
    self_p.add_argument(
        "--trials", type=int, default=10_000, help="partial-sum inequality trials"
    )
    self_p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (RuntimeError, OSError, ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
