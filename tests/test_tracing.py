"""The benchmark's tracer still sees the sampler's hot calls.

``perfbench/tracing.py`` wraps module attributes by name
(``sparsegmm.gibbs.reseat_observation``, ``sparsegmm.urn.sample_categorical_log``,
...).  A change that binds one of those names elsewhere, or stops calling
it, leaves its per-layer metrics at 0 without an error; this test runs a
tiny chain under the tracer and checks the counts the sampler implies.
"""

import importlib.util
from pathlib import Path

import sparsegmm.gibbs as gibbs
from sparsegmm.core import default_hyperparams
from sparsegmm.synthetic import ScenarioSpec, generate

ROOT = Path(__file__).resolve().parents[1]


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_reseat_and_categorical_draw(monkeypatch):
    """The tracer's ``urn.reseats`` counts the scalar steps, not the
    observations that blocks of ``ReseatWorkspace.advance`` reseat."""
    data = generate(ScenarioSpec(scenario="one", p=20, n=30, s=4, seed=1))[0]
    # from eight random clusters the chain opens and closes clusters, which
    # only the scalar step does
    config = gibbs.RunConfig(n_burn=3, n_keep=5, seed=1, init=gibbs.InitSpec("random_k", 8))
    scalar, opens = [], []
    reseat = gibbs.reseat_observation

    def counting(i, state, ws, rng):
        out = reseat(i, state, ws, rng)
        scalar.append(i)
        # alone in the last cluster: i opened it, perhaps just after closing
        # its own, and a fresh auxiliary was drawn
        opens.append(state.z[i] == ws.k and ws.sizes[ws.k - 1] == 1)
        return out

    monkeypatch.setattr(gibbs, "reseat_observation", counting)
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        gibbs.run_chain(data, default_hyperparams(20), config)
    finally:
        tracer.uninstall()
    metrics = {name: value for name, (value, _unit) in tracer.metrics().items()}
    sweeps = 3 + 5
    assert metrics["gibbs.sweeps"] == sweeps
    assert metrics["urn.reseats"] == len(scalar)
    # every open and close is a scalar step; the blocks reseated the rest
    opened = metrics["urn.clusters_opened"]
    assert 0 < opened + metrics["urn.clusters_closed"] <= len(scalar) < data.n * sweeps
    assert opened <= sum(opens)
    # one categorical draw per scalar step, timed as its own layer
    assert sum(acc.calls["urn.categorical"] for acc in tracer._accs) == len(scalar)
    assert metrics["urn.categorical_s"] > 0
    # one auxiliary per pass, and one more per cluster opened
    assert metrics["urn.candidate_draws"] == sweeps + sum(opens)
