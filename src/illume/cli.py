"""Command-line front end.

Subcommands: ``solve`` (analytic report for one scenario),
``optimal-state`` (entangled-probe construction from a spectrum),
``sweep`` (grid dataset to CSV), ``verify`` (randomized verification
suites) and ``simulate`` (Monte-Carlo measurement run).

stdout carries machine-readable JSON/CSV payloads only; diagnostics go to
stderr. Exit codes: 0 success, 1 verification failure, 2 input error,
3 I/O error. Input checks live with the types they guard: a sweep spec is
admitted or rejected by ``SweepSpec`` itself, which also caps the cost of
``sweep --oracle``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .analytic import report, schmidt_squares
from .model import (
    MODES,
    EnvironmentState,
    Scenario,
    environment_from_dict,
    json_complex,
    scenario_from_dict,
)
from .oracle import (
    BundledCase,
    SearchConfig,
    run_lemma_suite,
    run_montecarlo_suite,
    run_oracle_suite,
    simulate_measurement,
)
from .sweep import SweepSpec, run_sweep, write_csv
from .tolerances import SPECTRUM_SUM_TOL


def _emit(payload: dict) -> None:
    # Serialized in full before writing: a non-finite value raises ValueError
    # (exit 2) with nothing on stdout, never NaN/Infinity tokens.
    sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")


def _read_json(path: str):
    # Unreadable or unparseable input files are input errors (exit 2),
    # not I/O errors; exit 3 is reserved for output failures.
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _parse_spectrum(text: str) -> list[float]:
    """Comma-separated eigenvalues; the sum must be within 1e-6 of 1 and is renormalized."""
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"spectrum must be comma-separated reals: {exc}") from exc
    total = sum(values)
    if not abs(total - 1.0) <= SPECTRUM_SUM_TOL:  # also rejects a NaN sum
        raise ValueError(
            f"spectrum sums to {total!r}; more than {SPECTRUM_SUM_TOL:g} away from 1"
        )
    return [v / total for v in values]


def _scenario_from_args(args) -> Scenario:
    if args.scenario is not None:
        return scenario_from_dict(_read_json(args.scenario))
    missing = [
        flag
        for flag, value in (("--p0", args.p0), ("--eta", args.eta), ("--spectrum", args.spectrum))
        if value is None
    ]
    if missing:
        raise ValueError(
            "provide --scenario FILE or all of --p0/--eta/--spectrum "
            f"(missing {', '.join(missing)})"
        )
    env = EnvironmentState(_parse_spectrum(args.spectrum))
    return Scenario(p0=args.p0, eta=args.eta, env=env)


def _search_config_from_dict(data: dict) -> SearchConfig:
    if not isinstance(data, dict):
        raise ValueError("oracle_cfg must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(SearchConfig)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown oracle_cfg fields: {', '.join(unknown)}")
    return SearchConfig(**data)


def _sweep_spec_from_dict(data: dict, force_oracle: bool) -> SweepSpec:
    if not isinstance(data, dict):
        raise ValueError("sweep spec must be a JSON object")
    try:
        p0_range, eta_range = data["p0_range"], data["eta_range"]
    except KeyError as exc:
        raise ValueError(f"sweep spec missing range: {exc}") from exc
    env = environment_from_dict(data)
    oracle = data.get("oracle", False)
    if not isinstance(oracle, bool):
        raise ValueError(f"oracle must be true or false, got {oracle!r}")
    cfg = data.get("oracle_cfg")
    cfg = None if cfg is None else _search_config_from_dict(cfg)  # checked even with the oracle off
    return SweepSpec(p0_range, eta_range, env,
                     oracle=(cfg or SearchConfig()) if oracle or force_oracle else None)


def _require_at_least(flag: str, value: int | None, least: int) -> None:
    # checked before any work starts, so a bad flag leaves stdout empty
    if value is not None and value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")


def _cmd_solve(args) -> int:
    s = _scenario_from_args(args)
    _emit(report(s).to_dict())
    return 0


def _cmd_optimal_state(args) -> int:
    env = EnvironmentState(_parse_spectrum(args.spectrum))
    mu_sq = schmidt_squares(env)
    _emit(
        {
            "schema": 1,
            "spectrum": [float(x) for x in env.spectrum],
            "lambda_h": env.lambda_harmonic,
            "mu": [float(x) for x in np.sqrt(mu_sq)],
            "mu_sq": [float(x) for x in mu_sq],
            "conventional_probe_index": env.dim - 1,
        }
    )
    return 0


def _cmd_sweep(args) -> int:
    spec = _sweep_spec_from_dict(_read_json(args.spec), force_oracle=args.oracle)
    n_p0, n_eta = spec.p0_range[2], spec.eta_range[2]
    print(
        f"sweep: {n_p0}x{n_eta} grid, environment dimension {spec.env.dim}, "
        f"oracle={'off' if spec.oracle is None else 'on'}",
        file=sys.stderr,
    )
    records = run_sweep(spec)
    write_csv(records, args.out)
    print(f"sweep: wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    _require_at_least("--trials", args.trials, 1)
    _require_at_least("--seed", args.seed, 0)
    trials = {} if args.trials is None else {"trials": args.trials}
    runners = {
        "lemmas": lambda: run_lemma_suite(seed=args.seed, **trials),
        "oracle": lambda: run_oracle_suite(seed=args.seed),
        "montecarlo": lambda: run_montecarlo_suite(seed=args.seed, **trials),
    }
    names = list(runners) if args.suite == "all" else [args.suite]
    suites = []
    for name in names:
        print(f"verify: running {name} suite", file=sys.stderr)
        suites.append(runners[name]())
    violations = sum(s["violations"] for s in suites)
    _emit({"schema": 1, "suites": suites, "violations": violations})
    return 0 if violations == 0 else 1


def _cmd_simulate(args) -> int:
    _require_at_least("--seed", args.seed, 0)
    s = _scenario_from_args(args)
    case = BundledCase("simulate", s, args.mode)
    if args.probe_file is None:
        probe = case.optimal_probe()
    else:
        probe = json_complex(_read_json(args.probe_file), (None,), "probe file")
    stats = simulate_measurement(s, probe, args.mode, trials=args.trials, seed=args.seed)
    _emit(
        {
            "schema": 1,
            "mode": args.mode,
            "trials": stats.trials,
            "errors": stats.errors,
            "empirical_perr": stats.empirical_perr,
            "std_error": stats.std_error,
            "analytic_perr": case.analytic_perr(),
        }
    )
    return 0


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", help="path to a scenario JSON file")
    sub.add_argument("--p0", type=float, help="probability that the target is absent")
    sub.add_argument("--eta", type=float, help="reflectivity in [0, 1]")
    sub.add_argument("--spectrum", help="comma-separated environment eigenvalues")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args fills a fresh namespace on every call.
    parser = argparse.ArgumentParser(
        prog="illume",
        description="One-shot detection limits for conventional and quantum illumination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="analytic detection report as JSON")
    _add_scenario_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("optimal-state", help="optimal entangled probe from a spectrum")
    p.add_argument("--spectrum", required=True, help="comma-separated environment eigenvalues")
    p.set_defaults(func=_cmd_optimal_state)

    p = sub.add_parser("sweep", help="evaluate a (p0, eta) grid and write CSV")
    p.add_argument("--spec", required=True, help="path to a sweep spec JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--oracle", action="store_true", help="also fill see-saw oracle columns")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run randomized verification suites")
    p.add_argument("--suite", choices=["all", "lemmas", "oracle", "montecarlo"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo measurement simulation")
    _add_scenario_flags(p)
    p.add_argument("--mode", choices=list(MODES), required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probe-file", help="JSON probe vector as [re, im] pairs (default: optimal)")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
