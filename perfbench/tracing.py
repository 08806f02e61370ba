"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of ``sparsegmm`` under the
name their caller looks them up by (``sparsegmm.gibbs.reseat_observation``
is what ``gibbs.sweep`` calls), and ``uninstall`` puts the originals back.
Each wrapper adds its call count and inclusive time to an accumulator of
the calling thread, so the chains that ``run_chains`` runs on pool threads
never share one.  Calls outside the hot per-observation path also leave a
span (name, start, end, parent span, thread, operation) in memory; the
spans are written out when the benchmark ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import sparsegmm.core
import sparsegmm.gibbs
import sparsegmm.summarize
import sparsegmm.synthetic
import sparsegmm.urn

# (module, attribute looked up by the caller, layer name, hot).  Hot
# functions run once or more per observation and sweep; they are counted
# and timed but leave no span, which would cost more than the call.
WRAPPED = (
    (sparsegmm.gibbs, "run_chain", "gibbs.run_chain", False),
    (sparsegmm.gibbs, "init_state", "gibbs.init_state", False),
    (sparsegmm.gibbs, "sweep", "gibbs.sweep", False),
    (sparsegmm.gibbs, "build_vn_table", "urn.build_vn_table", False),
    (sparsegmm.gibbs, "fit_kmeans", "cmle.fit_kmeans", False),
    (sparsegmm.gibbs, "build_context", "ssl.build_context", False),
    (sparsegmm.gibbs, "update_mu", "ssl.update_mu", False),
    (sparsegmm.gibbs, "update_phi", "ssl.update_phi", False),
    (sparsegmm.gibbs, "update_xi", "ssl.update_xi", False),
    (sparsegmm.gibbs, "update_theta", "ssl.update_theta", False),
    (sparsegmm.gibbs, "reseat_observation", "urn.reseat", True),
    (sparsegmm.urn, "sample_prior_phi", "urn.sample_prior_phi", True),
    (sparsegmm.urn, "sample_prior_mu", "urn.sample_prior_mu", True),
    (sparsegmm.urn, "sample_categorical_log", "urn.categorical", True),
    (sparsegmm.summarize, "align_labels", "summarize.align_labels", False),
    (sparsegmm.summarize, "point_estimates", "summarize.point_estimates", False),
    (sparsegmm.summarize, "psrf_report", "summarize.psrf_report", False),
    (sparsegmm.summarize, "reconstruction_error", "summarize.reconstruction_error", True),
    (sparsegmm.summarize, "solve_assignment", "assignment.solve", True),
    (sparsegmm.core, "trace_to_ndjson", "core.trace_write", False),
    (sparsegmm.core, "trace_from_ndjson", "core.trace_read", False),
    (sparsegmm.synthetic, "generate", "synthetic.generate", False),
)


class _ThreadAcc:
    """What one thread has recorded."""

    def __init__(self, ident: int):
        self.ident = ident
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.sweep_ms: list[float] = []
        self.spans: list[tuple] = []
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._accs: list[_ThreadAcc] = []
        self._next_span = 0
        self._saved: list[tuple] = []
        self.op = ""  # the benchmark operation the current calls serve
        self.enabled = True

    def _acc(self) -> _ThreadAcc:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = _ThreadAcc(threading.get_ident())
            self._local.acc = acc
            with self._lock:
                self._accs.append(acc)
        return acc

    def _span_id(self) -> int:
        with self._lock:
            self._next_span += 1
            return self._next_span

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        acc = self._acc()
        sid = self._span_id()
        parent = acc.stack[-1] if acc.stack else 0
        acc.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            acc.stack.pop()
            acc.spans.append((sid, parent, name, acc.ident, self.op, t0, t1))
            acc.calls[name] += 1
            acc.seconds[name] += t1 - t0

    @contextmanager
    def paused(self):
        """Leave the calls made in this block (the benchmark's checks) unrecorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _wrap(self, fn, name: str, hot: bool):
        tracer = self
        if hot:
            def timed(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                acc = tracer._acc()
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    acc.calls[name] += 1
                    acc.seconds[name] += time.perf_counter() - t0
        else:
            def timed(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                with tracer.span(name):
                    return fn(*args, **kwargs)

        if name == "urn.reseat":
            def reseat(i, state, *rest, **kwargs):
                acc = tracer._acc()
                before = state.k_active
                out = timed(i, state, *rest, **kwargs)
                if state.k_active > before:
                    acc.counts["urn.clusters_opened"] += 1
                elif state.k_active < before:
                    acc.counts["urn.clusters_closed"] += 1
                return out
            return reseat
        if name == "gibbs.sweep":
            def sweep(*args, **kwargs):
                t0 = time.perf_counter()
                out = timed(*args, **kwargs)
                tracer._acc().sweep_ms.append(1e3 * (time.perf_counter() - t0))
                return out
            return sweep
        if name == "gibbs.run_chain":
            def run_chain(*args, **kwargs):
                acc = tracer._acc()
                inner0 = acc.seconds["gibbs.sweep"] + acc.seconds["gibbs.init_state"]
                w0, c0 = time.perf_counter(), time.thread_time()
                out = timed(*args, **kwargs)
                wall = time.perf_counter() - w0
                inner = acc.seconds["gibbs.sweep"] + acc.seconds["gibbs.init_state"] - inner0
                acc.seconds["gibbs.run_chain_other"] += wall - inner
                acc.seconds["gibbs.chain_wait"] += wall - (time.thread_time() - c0)
                return out
            return run_chain
        if name == "core.trace_write":
            def write(*args, **kwargs):
                text = timed(*args, **kwargs)
                tracer._acc().counts["core.trace_bytes"] += len(text.encode())
                return text
            return write
        return timed

    def install(self) -> None:
        for module, attr, name, hot in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hot))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit), summed over threads."""
        calls = defaultdict(int)
        secs = defaultdict(float)
        counts = defaultdict(int)
        sweep_ms = []
        for acc in self._accs:
            for d, src in ((calls, acc.calls), (secs, acc.seconds), (counts, acc.counts)):
                for k, v in src.items():
                    d[k] += v
            sweep_ms.extend(acc.sweep_ms)
        p50, p90 = np.percentile(sweep_ms, [50, 90]) if sweep_ms else (0.0, 0.0)
        candidates = calls["urn.sample_prior_mu"]
        opened = counts["urn.clusters_opened"]
        return {
            "gibbs.sweeps": (len(sweep_ms), "count"),
            "gibbs.sweep_ms_p50": (float(p50), "ms"),
            "gibbs.sweep_ms_p90": (float(p90), "ms"),
            "gibbs.init_state_s": (secs["gibbs.init_state"], "s"),
            "gibbs.run_chain_other_s": (secs["gibbs.run_chain_other"], "s"),
            "gibbs.chain_wait_s": (secs["gibbs.chain_wait"], "s"),
            "urn.reseats": (calls["urn.reseat"], "count"),
            "urn.reseat_s": (secs["urn.reseat"], "s"),
            "urn.candidate_draws": (candidates, "count"),
            "urn.candidate_draw_s": (secs["urn.sample_prior_phi"] + secs["urn.sample_prior_mu"], "s"),
            "urn.clusters_opened": (opened, "count"),
            "urn.clusters_closed": (counts["urn.clusters_closed"], "count"),
            "urn.open_per_candidate": (opened / candidates if candidates else 0.0, "ratio"),
            "urn.categorical_s": (secs["urn.categorical"], "s"),
            "urn.build_vn_table_s": (secs["urn.build_vn_table"], "s"),
            "ssl.build_context_s": (secs["ssl.build_context"], "s"),
            "ssl.update_mu_s": (secs["ssl.update_mu"], "s"),
            "ssl.update_phi_s": (secs["ssl.update_phi"], "s"),
            "ssl.update_xi_s": (secs["ssl.update_xi"], "s"),
            "ssl.update_theta_s": (secs["ssl.update_theta"], "s"),
            "cmle.fit_kmeans_s": (secs["cmle.fit_kmeans"], "s"),
            "summarize.align_labels_s": (secs["summarize.align_labels"], "s"),
            "summarize.point_estimates_s": (secs["summarize.point_estimates"], "s"),
            "summarize.psrf_report_s": (secs["summarize.psrf_report"], "s"),
            "summarize.reconstruction_errors": (calls["summarize.reconstruction_error"], "count"),
            "summarize.reconstruction_error_s": (secs["summarize.reconstruction_error"], "s"),
            "assignment.solves": (calls["assignment.solve"], "count"),
            "assignment.solve_s": (secs["assignment.solve"], "s"),
            "core.trace_write_s": (secs["core.trace_write"], "s"),
            "core.trace_read_s": (secs["core.trace_read"], "s"),
            "core.trace_bytes": (counts["core.trace_bytes"], "B"),
            "synthetic.generate_s": (secs["synthetic.generate"], "s"),
        }

    def write_spans(self, path) -> int:
        """Write every span as one NDJSON line, in start order; return the count."""
        spans = sorted((s for acc in self._accs for s in acc.spans), key=lambda s: s[5])
        with open(path, "w") as fh:
            for sid, parent, name, thread, op, t0, t1 in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "thread": thread,
                                     "op": op, "start": t0, "end": t1}) + "\n")
        return len(spans)
