#!/usr/bin/env python3
"""Paired in-process timing of two checkouts' sampler fits and their
post-processing.

Loads ``<checkout>/src/sparsegmm`` of two checkouts into one process, as
the packages ``sparsegmm_a`` and ``sparsegmm_b``, and times their fits of
each workload named, one after another, in alternating pairs (a first in
even pairs, b first in odd ones).  Both sides fit data each generated
itself from the same seed.  After each fit the same side post-processes
its traces, timed apart, as the benchmark's ``post_s`` does: an NDJSON
round trip of every trace, ``align_labels`` and ``point_estimates`` on
the pooled snapshots, and ``psrf_report`` when there are two chains or
more.
Every pair must give byte-identical NDJSON traces and canonical JSON of
the estimate (and of the PSRF table) on both sides, so the script only
compares versions that make the same draws and the same summaries; it
exits 1 on the first difference.

One process sees the same machine load, allocator and BLAS threads on
both sides, so the ratios spread less than those of separate benchmark
runs; they time the fit and the post-processing without the import.
Before the timed pairs, each side makes one untimed fit under
``tracemalloc``, whose peak (the most memory the fit held at once, data
aside) the script prints.  Then each side makes three untimed fits with
``gibbs.sweep``, the reseat pass and ``gibbs.fit_kmeans`` wrapped in
timers, in the order a b b a a b, and the script prints the median over
all their sweeps, over all their reseat passes (one per sweep: the
workspace build, its blocks, the scalar steps and ``finish``) and over
all their k-means starts (one per chain), so no one slow fit decides the
line.

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
import importlib
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
        self.experiment = importlib.import_module(".experiment", self.sg.__name__)
        spec = sg.ScenarioSpec(scenario=w["scenario"], p=w["p"], n=w["n"], s=w["s"],
                               mean_scale=w["mean_scale"], seed=w["seed"])
        self.data = sg.generate(spec)[0]
        self.hyper = sg.default_hyperparams(w["p"], ssl_mode=w["ssl_mode"])
        self.config = sg.RunConfig(n_burn=w["n_burn"], n_keep=w["n_keep"],
                                   n_chains=w["n_chains"], seed=w["seed"])

    def fit(self) -> list:
        """The traces of one fit."""
        return self.sg.run_chains(self.data, self.hyper, self.config)

    def post(self, traces: list) -> tuple:
        """Post-process the traces: the estimate of the pooled snapshots,
        and the PSRF table if there are two chains or more (else None)."""
        sg = self.sg
        restored = [sg.trace_from_ndjson(sg.trace_to_ndjson(t)) for t in traces]
        pooled = [s for t in restored for s in t.snapshots]
        est = sg.point_estimates(sg.align_labels(pooled, self.data))
        return est, sg.psrf_report(restored, self.data) if len(restored) > 1 else None

    def timed(self) -> tuple[float, float, str, str]:
        """(fit seconds, post-processing seconds, NDJSON of the traces,
        canonical JSON of ``post``'s estimate and table) of one fit."""
        t0 = time.perf_counter()
        traces = self.fit()
        t1 = time.perf_counter()
        est, report = self.post(traces)
        t2 = time.perf_counter()
        summary = self.experiment.canonical_json(
            {"estimate": self.experiment.estimate_to_dict(est), "psrf": report})
        return t1 - t0, t2 - t1, "".join(self.sg.trace_to_ndjson(t) for t in traces), summary


def traced_peak_mb(side: Side) -> float:
    """Peak of the memory that one untimed fit allocates, in MB, by tracemalloc."""
    tracemalloc.start()
    try:
        side.fit()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# the sides' order of the untimed fits that time the sweeps, passes and starts
STAGE_ORDER = "abbaab"
STAGES = ("sweep", "reseat_pass", "fit_kmeans")


def time_stages(side: Side, times: dict) -> None:
    """Make one untimed fit with timers around ``gibbs.sweep``, each reseat
    pass (from the workspace's build to its ``finish``) and
    ``gibbs.fit_kmeans``, and append each one's seconds to ``times[stage]``."""
    gibbs = side.sg.gibbs
    workspace = side.sg.urn.ReseatWorkspace
    build, finish = workspace.__init__, workspace.finish
    originals = {stage: getattr(gibbs, stage) for stage in ("sweep", "fit_kmeans")}
    started = {}  # the pass's start by workspace: chains may run on threads

    def timed(stage):
        func, out = originals[stage], times[stage]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                out.append(time.perf_counter() - t0)
        return wrapper

    def timed_build(ws, *args, **kwargs):
        started[id(ws)] = time.perf_counter()
        build(ws, *args, **kwargs)

    def timed_finish(ws):
        finish(ws)
        times["reseat_pass"].append(time.perf_counter() - started.pop(id(ws)))

    for stage in originals:
        setattr(gibbs, stage, timed(stage))
    workspace.__init__, workspace.finish = timed_build, timed_finish
    try:
        side.fit()
    finally:
        for stage, func in originals.items():
            setattr(gibbs, stage, func)
        workspace.__init__, workspace.finish = build, finish


def stage_ms(sides: dict) -> dict:
    """Per side, the median time of a sweep, of a sweep's reseat pass and
    of a chain's k-means start, in ms, over the untimed fits of
    ``STAGE_ORDER``."""
    times = {key: {stage: [] for stage in STAGES} for key in sides}
    for key in STAGE_ORDER:
        time_stages(sides[key], times[key])
    return {key: {stage: 1e3 * statistics.median(t) if t else float("nan")
                  for stage, t in side_times.items()}
            for key, side_times in times.items()}


def compare(name: str, packages: dict, pairs: int) -> bool:
    """Time ``pairs`` alternating pairs of fits of workload ``name``, and
    of their post-processing, by the packages ``{"a": ..., "b": ...}`` and
    print the ratios; False at the first pair whose traces or estimates
    differ."""
    sides = {key: Side(sg, WORKLOADS[name]) for key, sg in packages.items()}
    for side in sides.values():  # warm caches and lazy imports, untimed
        side.timed()
    peaks = {key: traced_peak_mb(side) for key, side in sides.items()}
    print(f"{name}: tracemalloc peak of one fit: a {peaks['a']:.1f} MB  "
          f"b {peaks['b']:.1f} MB", flush=True)
    stages = stage_ms(sides)
    print(f"{name}: median sweep a {stages['a']['sweep']:.2f} ms  "
          f"b {stages['b']['sweep']:.2f} ms; reseat pass a {stages['a']['reseat_pass']:.2f} ms  "
          f"b {stages['b']['reseat_pass']:.2f} ms; k-means start a "
          f"{stages['a']['fit_kmeans']:.1f} ms  b {stages['b']['fit_kmeans']:.1f} ms",
          flush=True)
    ratios = {"fit": [], "post": []}
    for pair in range(pairs):
        order = "ab" if pair % 2 == 0 else "ba"
        out = {key: sides[key].timed() for key in order}
        for what, i in (("traces", 2), ("estimates", 3)):
            if out["a"][i] != out["b"][i]:
                print(f"{name}, pair {pair + 1}: the {what} differ", flush=True)
                return False
        cells = []
        for stage, i in (("fit", 0), ("post", 1)):
            ratio = out["b"][i] / out["a"][i]
            ratios[stage].append(ratio)
            cells.append(f"{stage} a {out['a'][i]:.4f} s  b {out['b'][i]:.4f} s  b/a {ratio:.3f}")
        print(f"pair {pair + 1:2d} ({order} first): {'; '.join(cells)}", flush=True)
    for stage, rs in ratios.items():
        q1, med, q3 = statistics.quantiles(rs, n=4) if len(rs) > 1 else (rs[0],) * 3
        wins = sum(r < 1.0 for r in rs)
        print(f"{name}: {stage} median b/a {med:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
              f"b faster in {wins} of {len(rs)} pairs", flush=True)
    print(f"{name}: traces and estimates identical", flush=True)
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
