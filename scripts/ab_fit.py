#!/usr/bin/env python3
"""Paired in-process timing of two checkouts' sampler fits.

Loads ``<checkout>/src/sparsegmm`` of two checkouts into one process, as
the packages ``sparsegmm_a`` and ``sparsegmm_b``, and times their fits of
each workload named, one after another, in alternating pairs (a first in
even pairs, b first in odd ones).  Both sides fit data each generated
itself from the same seed.
Every pair must give byte-identical NDJSON traces on both sides, so the
script only compares versions that make the same draws; it exits 1 on
the first difference.

One process sees the same machine load, allocator and BLAS threads on
both sides, so the ratios spread less than those of separate benchmark
runs; they time the fit alone, without import or post-processing.
Before the timed pairs, each side makes one untimed fit under
``tracemalloc``, whose peak (the most memory the fit held at once, data
aside) the script prints.  Then each side makes three untimed fits with
``gibbs.sweep`` and ``gibbs.fit_kmeans`` wrapped in timers, in the order
a b b a a b, and the script prints the median over all their sweeps and
over all their k-means starts (one per chain), so no one slow fit
decides the line.

Workloads (the first two are the data and chains of perfbench's
workloads of that name):
  large_joint    scenario I, p=n=1000, s=6, mean_scale 1.5, seed 1001;
                 one joint-mode chain, 10 + 30 sweeps
  chains_column  scenario II, p=400, n=200, s=8, seed 1; four column-mode
                 chains of 15 + 35 sweeps
  north_star     scenario I, p=2000, n=3000, s=6, mean_scale 1.5, seed 3;
                 one joint-mode chain, 5 + 15 sweeps (the largest size in
                 ROADMAP.md's north star; a 48 MB data matrix per side)

Example (compare the parent commit's checkout with this one):
    python3 scripts/ab_fit.py --a ../parent --b . --workload chains_column --pairs 15
    python3 scripts/ab_fit.py --a ../parent --b . --workload large_joint chains_column north_star
"""

import argparse
import importlib.util
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

WORKLOADS = {
    "large_joint": dict(scenario="one", p=1000, n=1000, s=6, mean_scale=1.5, seed=1001,
                        ssl_mode="joint", n_chains=1, n_burn=10, n_keep=30),
    "chains_column": dict(scenario="two", p=400, n=200, s=8, mean_scale=1.0, seed=1,
                          ssl_mode="column", n_chains=4, n_burn=15, n_keep=35),
    "north_star": dict(scenario="one", p=2000, n=3000, s=6, mean_scale=1.5, seed=3,
                       ssl_mode="joint", n_chains=1, n_burn=5, n_keep=15),
}


def load_package(checkout: Path, name: str):
    """Import ``checkout/src/sparsegmm`` as the top-level package ``name``."""
    pkg = checkout.resolve() / "src" / "sparsegmm"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        sys.exit(f"no sparsegmm package under {pkg}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One checkout's package with the workload's data and settings."""

    def __init__(self, sg, w):
        self.sg = sg
        spec = sg.ScenarioSpec(scenario=w["scenario"], p=w["p"], n=w["n"], s=w["s"],
                               mean_scale=w["mean_scale"], seed=w["seed"])
        self.data = sg.generate(spec)[0]
        self.hyper = sg.default_hyperparams(w["p"], ssl_mode=w["ssl_mode"])
        self.config = sg.RunConfig(n_burn=w["n_burn"], n_keep=w["n_keep"],
                                   n_chains=w["n_chains"], seed=w["seed"])

    def fit(self) -> tuple[float, str]:
        """(seconds, NDJSON of the traces) of one fit."""
        t0 = time.perf_counter()
        traces = self.sg.run_chains(self.data, self.hyper, self.config)
        seconds = time.perf_counter() - t0
        return seconds, "".join(self.sg.trace_to_ndjson(t) for t in traces)


def traced_peak_mb(side: Side) -> float:
    """Peak of the memory that one untimed fit allocates, in MB, by tracemalloc."""
    tracemalloc.start()
    try:
        side.fit()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# the sides' order of the untimed fits that time the sweeps and starts
STAGE_ORDER = "abbaab"


def time_stages(side: Side, times: dict) -> None:
    """Make one untimed fit with ``gibbs.sweep`` and ``gibbs.fit_kmeans``
    wrapped in timers, and append each call's seconds to ``times[stage]``."""
    gibbs = side.sg.gibbs
    originals = {stage: getattr(gibbs, stage) for stage in times}

    def timed(stage):
        func, out = originals[stage], times[stage]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                out.append(time.perf_counter() - t0)
        return wrapper

    for stage in times:
        setattr(gibbs, stage, timed(stage))
    try:
        side.fit()
    finally:
        for stage, func in originals.items():
            setattr(gibbs, stage, func)


def stage_ms(sides: dict) -> dict:
    """Per side, the median time of a sweep and of a chain's k-means start,
    in ms, over the untimed fits of ``STAGE_ORDER``."""
    times = {key: {"sweep": [], "fit_kmeans": []} for key in sides}
    for key in STAGE_ORDER:
        time_stages(sides[key], times[key])
    return {key: {stage: 1e3 * statistics.median(t) if t else float("nan")
                  for stage, t in side_times.items()}
            for key, side_times in times.items()}


def compare(name: str, packages: dict, pairs: int) -> bool:
    """Time ``pairs`` alternating pairs of fits of workload ``name`` by the
    packages ``{"a": ..., "b": ...}`` and print the ratios; False at the
    first pair whose traces differ."""
    sides = {key: Side(sg, WORKLOADS[name]) for key, sg in packages.items()}
    for side in sides.values():  # warm caches and lazy imports, untimed
        side.fit()
    peaks = {key: traced_peak_mb(side) for key, side in sides.items()}
    print(f"{name}: tracemalloc peak of one fit: a {peaks['a']:.1f} MB  "
          f"b {peaks['b']:.1f} MB", flush=True)
    stages = stage_ms(sides)
    print(f"{name}: median sweep a {stages['a']['sweep']:.2f} ms  "
          f"b {stages['b']['sweep']:.2f} ms; k-means start a "
          f"{stages['a']['fit_kmeans']:.1f} ms  b {stages['b']['fit_kmeans']:.1f} ms",
          flush=True)
    ratios = []
    for pair in range(pairs):
        order = "ab" if pair % 2 == 0 else "ba"
        out = {key: sides[key].fit() for key in order}
        if out["a"][1] != out["b"][1]:
            print(f"{name}, pair {pair + 1}: the traces differ", flush=True)
            return False
        ratio = out["b"][0] / out["a"][0]
        ratios.append(ratio)
        print(f"pair {pair + 1:2d} ({order} first): a {out['a'][0]:.4f} s  "
              f"b {out['b'][0]:.4f} s  b/a {ratio:.3f}", flush=True)
    q1, med, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                   else (ratios[0],) * 3)
    wins = sum(r < 1.0 for r in ratios)
    print(f"{name}: median b/a {med:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
          f"b faster in {wins} of {len(ratios)} pairs; traces identical", flush=True)
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", type=Path, required=True, help="checkout of the base side")
    ap.add_argument("--b", type=Path, required=True, help="checkout of the changed side")
    ap.add_argument("--workload", nargs="+", choices=list(WORKLOADS),
                    default=["chains_column"], help="one or more workloads, timed in turn")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of fits per workload")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    packages = {"a": load_package(args.a, "sparsegmm_a"),
                "b": load_package(args.b, "sparsegmm_b")}
    for name in args.workload:
        if not compare(name, packages, args.pairs):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
