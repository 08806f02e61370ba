"""Command-line interface.

Subcommands: simulate, preprocess, fit, evaluate, diagnose, report.
Configuration comes from a JSON file with flag overrides; outputs are
deterministic given the same config and seed.  Exit codes: 0 success,
2 configuration error (an output path that cannot be written included),
3 data error (an input file that cannot be read included), 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import sys

from .core import DataMatrix, validate_dataset
from .errors import ConfigError, DataError, SparseGmmError
from .experiment import (
    ExperimentConfig,
    canonical_json,
    compute_metrics,
    config_from_dict,
    estimate_from_dict,
    load_json_object,
    load_matrix_csv,
    load_traces,
    load_truth,
    output_dir,
    run_experiment,
    save_matrix_csv,
    write_text,
    write_truth,
)
from .preprocess import preprocess_scrna
from .summarize import psrf_report
from .synthetic import ScenarioSpec, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sparsegmm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic benchmark dataset")
    sim.add_argument("--scenario", default="one", choices=["one", "two", "three"])
    sim.add_argument("--k-star", type=int, default=3)
    sim.add_argument("--s", type=int, default=None)
    sim.add_argument("--p", type=int, default=None)
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--mean-scale", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output directory")

    pre = sub.add_parser("preprocess", help="normalize a count matrix")
    pre.add_argument("--counts", required=True, help="genes x cells CSV")
    pre.add_argument("--transpose", action="store_true", help="input is cells x genes")
    pre.add_argument("--min-total", type=int, default=10)
    pre.add_argument("--out", required=True, help="output CSV path")

    fit = sub.add_parser("fit", help="fit a model to a dataset")
    fit.add_argument("--data", help="features x observations CSV")
    fit.add_argument("--transpose", action="store_true")
    fit.add_argument("--config", help="JSON config file")
    fit.add_argument("--method", choices=["bayesian", "cmle", "kmeans"])
    fit.add_argument("--seed", type=int)
    fit.add_argument("--n-burn", type=int)
    fit.add_argument("--n-keep", type=int)
    fit.add_argument("--n-chains", type=int)
    fit.add_argument("--k", type=int, help="cluster count for cmle/kmeans")
    fit.add_argument("--sparsity", type=int, help="row-sparsity budget for cmle")
    fit.add_argument("--truth", help="JSON sidecar with z_true/mu_true")
    fit.add_argument("--out", required=True, help="output directory")
    fit.add_argument("--quiet", action="store_true")

    ev = sub.add_parser("evaluate", help="score an estimate against truth")
    ev.add_argument("--estimate", required=True, help="estimate.json path")
    ev.add_argument("--truth", required=True, help="truth JSON path")
    ev.add_argument("--out", help="metrics JSON path (default: stdout)")

    dg = sub.add_parser("diagnose", help="convergence diagnostics across chains")
    dg.add_argument("--data", required=True, help="dataset CSV used for the fit")
    dg.add_argument("--transpose", action="store_true")
    dg.add_argument("--traces", nargs="+", required=True, help="trace NDJSON files")
    dg.add_argument("--out", help="PSRF JSON path (default: stdout)")

    rp = sub.add_parser("report", help="run a full experiment from a config file")
    rp.add_argument("--config", required=True, help="experiment JSON config")
    rp.add_argument("--out", help="override the config's output directory")
    rp.add_argument("--quiet", action="store_true")
    return top


def _cmd_simulate(args) -> int:
    spec = ScenarioSpec(
        scenario=args.scenario,
        k_star=args.k_star,
        s=args.s,
        p=args.p,
        n=args.n,
        mean_scale=args.mean_scale,
        seed=args.seed,
    )
    data, z_true, mu_true = generate(spec)
    out = output_dir(args.out)
    save_matrix_csv(out / "data.csv", data.values)
    write_truth(out / "truth.json", z_true, mu_true)
    print(f"wrote {out / 'data.csv'} ({data.p}x{data.n}) and truth.json")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    counts = load_matrix_csv(args.counts, transpose=args.transpose)
    data = preprocess_scrna(counts, min_total=args.min_total)
    save_matrix_csv(args.out, data.values)
    print(f"wrote {args.out} ({data.p} genes x {data.n} cells)")
    return EXIT_OK


def _fit_config(args) -> tuple[ExperimentConfig, dict]:
    cfg = load_json_object(args.config, ConfigError) if args.config else {}
    run = {key: getattr(args, key) for key in ("seed", "n_burn", "n_keep", "n_chains")}
    overrides = {"output_dir": args.out, "run": {k: v for k, v in run.items() if v is not None}}
    if args.data:
        overrides.update(data_path=args.data, scenario=None)
    if args.transpose:
        overrides["transpose"] = True
    if args.method:
        overrides["method"] = args.method
    if args.truth:
        overrides["truth_path"] = args.truth
    cmle = {key: val for key, val in (("k", args.k), ("s", args.sparsity)) if val is not None}
    if cmle:
        overrides["cmle"] = cmle
    return config_from_dict(cfg, overrides)


def _run(config: ExperimentConfig, cfg_dict: dict, quiet: bool):
    """``run_experiment``, printing progress to stderr unless ``quiet``."""
    def progress(ev):
        print(f"chain {ev.chain_id}: {ev.iteration}/{ev.total} K={ev.k_active} "
              f"loglik={ev.loglik:.1f}", file=sys.stderr)

    return run_experiment(config, config_dict=cfg_dict, progress=None if quiet else progress)


def _emit(obj, out: str | None) -> int:
    """Write ``obj``'s canonical JSON to ``out``, or to stdout if None."""
    if out:
        write_text(out, canonical_json(obj))
    else:
        sys.stdout.write(canonical_json(obj))
    return EXIT_OK


def _cmd_fit(args) -> int:
    config, cfg_dict = _fit_config(args)
    bundle = _run(config, cfg_dict, args.quiet)
    print(f"k_hat={bundle.estimate.k_hat} -> {config.output_dir}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    est = estimate_from_dict(load_json_object(args.estimate), str(args.estimate))
    return _emit(compute_metrics(est, *load_truth(args.truth)), args.out)


def _cmd_diagnose(args) -> int:
    data = DataMatrix(values=load_matrix_csv(args.data, transpose=args.transpose))
    validate_dataset(data)
    if len(args.traces) < 2:
        raise ConfigError("diagnose needs at least 2 --traces files")
    return _emit(psrf_report(load_traces(args.traces), data), args.out)


def _cmd_report(args) -> int:
    config, cfg_dict = config_from_dict(load_json_object(args.config, ConfigError),
                                        {"output_dir": args.out} if args.out else None)
    bundle = _run(config, cfg_dict, args.quiet)
    summary = {"k_hat": bundle.estimate.k_hat, "output_dir": config.output_dir}
    if bundle.metrics:
        summary["metrics"] = bundle.metrics
    return _emit(summary, None)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "preprocess": _cmd_preprocess,
    "fit": _cmd_fit,
    "evaluate": _cmd_evaluate,
    "diagnose": _cmd_diagnose,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SparseGmmError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
