"""Command-line interface.

Subcommands
-----------
constants   print (n, mu_n, S_n, a_n, survival, kolmogorov_ratio) rows
classify    regime diagnostics for an environment
check       run a named verification experiment; exit 0 iff every row passes
simulate    Monte Carlo runs that emit histogram CSVs plus a summary

Exit codes: 0 success, 1 experiment/simulation failure, 2 usage or config
error.  Reruns with the same seed produce byte-identical CSV bodies; wall
times live only in the JSON summaries.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from . import oracle, pgf_engine as engine
from .config import (
    ConfigError,
    build_experiment_config,
    check_document,
    environment_spec,
    load_config_file,
    parse_environment,
)
from .experiments import DEFAULT_SEED, ExperimentError
from .offspring import DistributionError

__all__ = ["main"]

CHECKS = {
    "identities": ex.run_transform_identities,
    "decomposition": ex.run_decomposition_check,
    "uniform-limit": ex.run_uniform_limit,
    "g-convergence": ex.run_g_convergence,
    "kolmogorov": ex.run_kolmogorov,
    "exponential": ex.run_exponential_characterization,
    "yaglom": ex.run_yaglom,
}

SIMULATE_KINDS = ("gw", "one-spine", "two-spine", "yaglom")


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=Path, help="JSON config file")
    shared.add_argument("--out", type=Path, help="output directory (or file for constants/classify)")
    shared.add_argument("--quiet", action="store_true", help="suppress status lines")
    # only the commands that build an ExperimentConfig read these
    runs = argparse.ArgumentParser(add_help=False, parents=[shared])
    runs.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    runs.add_argument("--threads", type=int,
                      help="worker processes for replicate chunks (at most one per usable core)")

    parser = argparse.ArgumentParser(
        prog="gwve",
        description="Branching processes in varying environment: exact checks and Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", parents=[shared],
                             help="environment constants per generation")
    p_const.add_argument("--env", help="inline environment spec (JSON)")
    p_const.add_argument("--n", help="comma-separated generation list, e.g. 1,5,10")

    p_cls = sub.add_parser("classify", parents=[shared], help="regime diagnostics")
    p_cls.add_argument("--env", help="inline environment spec (JSON)")
    p_cls.add_argument("--horizon", type=int, default=10_000)

    p_check = sub.add_parser("check", parents=[runs], help="run a verification experiment")
    p_check.add_argument("name", choices=sorted(CHECKS))

    p_sim = sub.add_parser("simulate", parents=[runs], help="Monte Carlo simulation runs")
    p_sim.add_argument("kind", choices=SIMULATE_KINDS)
    p_sim.add_argument("--n", type=int, help="horizon (defaults to the config's largest)")
    p_sim.add_argument("--replicates", type=int)

    return parser


def _load_environment(args) -> tuple:
    """(environment, config doc) from --env JSON or --config file."""
    doc = {}
    if args.config is not None:
        doc = load_config_file(args.config)
        check_document(doc)
    env_spec = None
    if getattr(args, "env", None):
        try:
            env_spec = json.loads(args.env)
        except json.JSONDecodeError as exc:
            raise ConfigError("env", f"invalid JSON: {exc}") from exc
    elif "environment" in doc:
        env_spec = doc["environment"]
    if env_spec is None:
        raise ConfigError("environment", "provide --env JSON or a --config file")
    return parse_environment(env_spec), doc


def _emit(text: str, out: Path | None, quiet: bool) -> None:
    """Write the command's data to --out, or to stdout when no file is given.

    --quiet silences only the chatter, never the data itself."""
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        if not quiet:
            print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def cmd_constants(args) -> int:
    env, doc = _load_environment(args)
    if args.n:
        try:
            ns = [int(part) for part in args.n.split(",") if part]
        except ValueError as exc:
            raise ConfigError("n", str(exc)) from exc
    else:
        ns = doc.get("horizons", [1, 10, 100, 1000])
    if not ns or any(n < 1 for n in ns):
        raise ConfigError("n", "generation list must be positive")
    lines = ["n,mu,S,a,survival,kolmogorov_ratio"]
    for n in ns:
        lines.append(
            f"{n},{env.mu(n)!r},{env.cum_nu_over_mu(n)!r},{env.a(n)!r},"
            f"{engine.survival_prob(env, n)!r},{engine.kolmogorov_ratio(env, n)!r}"
        )
    _emit("\n".join(lines) + "\n", args.out, args.quiet)
    return 0


def cmd_classify(args) -> int:
    env, _ = _load_environment(args)
    if args.horizon < 10:
        raise ConfigError("horizon", "classification needs a horizon of at least 10")
    diag = env.classify(horizon=args.horizon)
    # JSON has no NaN or infinity: a diagnostic with no finite value is null.
    diagnostics = {key: None if isinstance(v, float) and not math.isfinite(v) else v
                   for key, v in diag.as_dict().items()}
    doc = {"environment": environment_spec(env), "diagnostics": diagnostics}
    _emit(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", args.out, args.quiet)
    return 0


def _experiment_config(args):
    if args.config is None:
        raise ConfigError("config", "this command needs a --config file")
    doc = load_config_file(args.config)
    return build_experiment_config(doc, seed=args.seed, threads=args.threads,
                                   replicates=getattr(args, "replicates", None))


def cmd_check(args) -> int:
    config = _experiment_config(args)
    runner = CHECKS[args.name]
    try:
        report = runner(config)
    except ExperimentError as exc:
        raise ConfigError("experiment", str(exc)) from exc
    out_dir = args.out or Path(".")
    csv_path, summary_path = report.write(out_dir)
    if not args.quiet:
        for row in report.rows:
            print(f"[{'PASS' if row.passed else 'FAIL'}] {report.name} n={row.n} "
                  f"{row.statistic} = {row.value:.6g}")
        print(f"report: {csv_path}  summary: {summary_path}")
    return 0 if report.all_pass else 1


def cmd_simulate(args) -> int:
    config = _experiment_config(args)
    out_dir = args.out or Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.kind == "yaglom":
        if args.n is not None:
            raise ConfigError("n", "simulate yaglom runs at the config's horizons; --n does not apply")
        return _simulate_yaglom(config, out_dir, args.quiet)

    env = config.environment
    n = args.n if args.n is not None else config.horizons[-1]
    if n < 1:
        raise ConfigError("n", "horizon must be a positive integer")
    kind = args.kind.replace("-", "_")
    run = ex.collect_populations(config, f"simulate/{kind}", [n], kind)[0]
    aborted, completed = run.aborted, run.completed
    abort_fraction = aborted / config.replicates
    hist_path = out_dir / f"simulate_{kind}_n{n}_histogram.csv"
    lines = ["k,count,frequency"]
    for k, c in enumerate(run.counts):
        if c:
            lines.append(f"{k},{int(c)},{float(c / completed)!r}")
    hist_path.write_text("\n".join(lines) + "\n")

    summary = {
        "kind": args.kind,
        "n": n,
        "seed": config.seed,
        "replicates": config.replicates,
        "completed": completed,
        "aborted": aborted,
        "abort_fraction": abort_fraction,
        "mean": float(np.arange(run.counts.size) @ run.counts) / completed if completed else None,
    }
    if run.k_counts is not None:
        k_path = out_dir / f"simulate_{kind}_n{n}_kn_histogram.csv"
        k_path.write_text(
            "\n".join(["k,count"] + [f"{i},{int(c)}" for i, c in enumerate(run.k_counts)]) + "\n"
        )
        summary["kn_chi2_pvalue"] = ex.chi_square_pvalue(
            run.k_counts, engine.kn_pmf_vector(env, n)) if completed else None  # null: no sample
    summary["oracle_tail_mass"] = None  # null when no oracle ran
    if n <= 8 and not completed:
        summary["tv_vs_oracle"] = None  # every replicate aborted: no sample to compare
    elif n <= 8:
        law = oracle.exact_pmf(env, n)
        summary["oracle_tail_mass"] = law.tail_mass
        if kind != "gw":
            # the spines' law is a reweighting: its tail is the weighted mass it misses
            weighting = "size_biased" if kind == "one_spine" else "pair_biased"
            reweighted = oracle.transform_pmf(law, weighting)
            summary["oracle_tail_mass"] = oracle.reweighting_cut(law, weighting, env, n)
            law = reweighted
        summary["tv_vs_oracle"] = oracle.tv_distance(oracle.histogram_pmf(run.counts, cap=law.cap),
                                                     law)
    summary_path = out_dir / f"simulate_{kind}_n{n}_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")
    if not args.quiet:
        print(f"simulated {args.kind} at n={n}: {completed} replicates, {aborted} aborted")
        print(f"histogram: {hist_path}  summary: {summary_path}")
    return 0 if abort_fraction <= 0.01 else 1


def _simulate_yaglom(config, out_dir: Path, quiet: bool) -> int:
    rows, report_lines = [], ["n,survivors,ks_exp1"]
    for n, (run, survivors, ks) in zip(config.horizons, ex.yaglom_ks(config)):
        # the survivors' histogram: Z_n = k for k >= 1, nonzero rows only
        sample_path = out_dir / f"yaglom_samples_n{n}.csv"
        sample_path.write_text("\n".join(
            ["k,count"] + [f"{k},{int(c)}" for k, c in enumerate(run.counts) if k and c]) + "\n")
        report_lines.append(f"{n},{survivors},{ks!r}")
        rows.append({"n": n, "requested": config.replicates,
                     "completed": run.completed, "aborted": run.aborted,
                     "survivors": survivors, "ks_exp1": ks if math.isfinite(ks) else None})
        if not quiet:
            print(f"yaglom n={n}: survivors={survivors} ks={ks:.5f} -> {sample_path}")
    (out_dir / "yaglom_ks.csv").write_text("\n".join(report_lines) + "\n")
    # Aborted counts are cumulative over the one pass: the largest horizon's is the total.
    aborted = rows[-1]["aborted"]
    summary = {
        "kind": "yaglom",
        "seed": config.seed,
        "replicates_per_horizon": config.replicates,
        "aborted": aborted,
        "rows": rows,
    }
    (out_dir / "yaglom_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0 if aborted / config.replicates <= 0.01 else 1


def main(argv=None) -> int:
    ex._keep_freed_memory()  # the CLI owns its process
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "constants":
            return cmd_constants(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "simulate":
            return cmd_simulate(args)
    except (ConfigError, DistributionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
