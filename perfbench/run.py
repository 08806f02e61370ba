"""Benchmark of the sparse mixture's Gibbs sampler, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload large_joint --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # both workloads, one process
    python3 perfbench/run.py --self-check              # tiny sizes and the checks' negative tests

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up, fit, post-processing, peak
memory); with ``--trace 1`` they are the per-layer ones of a separate run
whose calls into ``sparsegmm`` are wrapped and timed (see tracing.py).
Each run also writes ``perfbench/results/<workload>-seed<seed>-trace<t>.json``
and, when traced, the spans as ``...-spans.ndjson``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 5


def import_program() -> None:
    """Import sparsegmm from this checkout's src/, and from nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import sparsegmm
    except ImportError as exc:
        sys.exit(f"cannot import sparsegmm from {src}: {exc}")
    if Path(sparsegmm.__file__).resolve().parent.parent != src:
        sys.exit(f"sparsegmm was imported from {sparsegmm.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now.

    Not a metric.  It is recorded beside each run so that a shift between two
    sets of runs can be told apart from a change in the program.
    """
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def measure_setup(name: str) -> float:
    """Wall time from starting an interpreter to its data being generated."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} exited with {proc.returncode}")
    return elapsed


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run whole rounds for about ``seconds``, and return the result."""
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        setup = []
        inputs = workloads.generate_inputs(w)
        rounds = []
        start = time.perf_counter()
        while True:
            # One set-up before each round, so that the probes meet the host
            # at different moments of the run rather than in one burst.
            if not trace and len(setup) < SETUP_PROBES:
                setup.append(measure_setup(w.name))
            rounds.append(workloads.run_round(w, inputs, tracer))
            elapsed = time.perf_counter() - start
            if trace:
                if len(rounds) >= w.trace_rounds:
                    break
            elif elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        while not trace and len(setup) < SETUP_PROBES:
            setup.append(measure_setup(w.name))
    finally:
        if tracer:
            tracer.uninstall()

    host_ms = host_loop_ms()
    ops = [op for r in rounds for op in r.ops]
    failed = [(name, fails) for name, fails in ops if fails]
    unexpected = [(name, fails) for name, fails in failed if not workloads.is_known_fault(w, fails)]
    first_failures = [(name, fails) for name, fails in rounds[0].ops if fails]
    # Means, not medians: the host switches between a fast and a slow state
    # every few seconds, and a median of such samples jumps to whichever
    # state held more than half of the run (see the README).
    fit = statistics.mean(r.fit_s for r in rounds)
    post = statistics.mean(statistics.mean(r.post_times) for r in rounds)
    if trace:
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "fit_s": (fit, "s"),
            "post_s": (post, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{int(trace)}"
    detail = {
        "workload": w.name,
        "seed": seed,
        "data_seed": w.data_seed,
        "environment": environment(),
        "host_loop_ms": host_ms,
        "setup_probes_s": setup,
        "rounds": [{"fit_s": r.fit_s, "post_s": r.post_times, "notes": r.notes} for r in rounds],
        "failures_in_round_1": [{"op": name, "messages": fails} for name, fails in first_failures],
        "result": result,
    }
    if tracer:
        detail["spans"] = tracer.write_spans(RESULTS / f"{stem}-spans.ndjson")
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"{w.name} seed {seed}: host loop {host_ms:.2f} ms; {len(rounds)} rounds, fit_s per round "
          f"{[round(r.fit_s, 3) for r in rounds]}, post_s "
          f"{[round(statistics.mean(r.post_times), 3) for r in rounds]}")
    if trace:
        print(f"{w.name} traced: fit_s {fit:.4f} s, post_s {post:.4f} s (mean over rounds)")
    for note in rounds[0].notes:
        print(f"{w.name} {note}")
    for name, fails in first_failures:
        print(f"{w.name} FAILED {name}: {'; '.join(fails)}")
    for k, (v, u) in metrics.items():
        print(f"{w.name} {k} {v:.6g} {u}")
    return result


def self_check() -> int:
    """Tiny runs of every workload, then the checks' negative tests."""
    import negative
    import workloads

    names = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"] for m in names["end_to_end"]},
        True: {m["name"] for m in names["per_layer"]},
    }
    problems = []
    for w in workloads.WORKLOADS.values():
        tiny = replace(w, **workloads.TINY[w.name])
        for trace in (False, True):
            res = run_workload(tiny, 0, 0.0, trace)
            if set(res["metrics"]) != expected[trace]:
                problems.append(f"{w.name} trace={trace}: metrics {sorted(res['metrics'])}")
    problems += negative.run()
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    # Each workload's inputs are fixed (see workloads.py); the seed only
    # names the run's result file.
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    if args.self_check:
        return self_check()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; choose from {list(workloads.WORKLOADS)} or all")
    results = {}
    for name in names:
        results[name] = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
