import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegmm import core
from sparsegmm.core import (
    ChainTrace,
    DataMatrix,
    Hyperparams,
    Snapshot,
    TraceMeta,
    default_hyperparams,
    trace_from_ndjson,
    trace_to_ndjson,
    validate_dataset,
)
from sparsegmm.errors import DataError


def test_values_and_obs_share_one_buffer():
    values = np.arange(12.0).reshape(3, 4)
    data = DataMatrix(values)
    obs = data.obs
    assert obs.shape == (4, 3) and obs.flags.c_contiguous
    assert np.array_equal(obs, values.T) and np.array_equal(data.values, values)
    assert np.shares_memory(data.values, obs)
    # a C-ordered input is copied once: later edits to it are not seen
    assert data.values.flags.f_contiguous and not np.shares_memory(data.values, values)
    values[0, 0] = -1.0
    assert data.values[0, 0] == 0.0
    # an F-ordered float input is kept as it is
    f_values = np.asfortranarray(values)
    assert DataMatrix(f_values).values is f_values


def test_validate_accepts_wellformed_matrix():
    assert validate_dataset(DataMatrix(np.arange(6.0).reshape(2, 3))) is None


def test_validate_rejects_nan_with_location():
    values = np.ones((3, 4))
    values[1, 2] = np.nan
    with pytest.raises(DataError, match="non-finite entry at row 1, column 2"):
        validate_dataset(DataMatrix(values))


@pytest.mark.parametrize("bad, row, col", [(np.nan, 1, 2), (np.inf, 0, 3), (-np.inf, 2, 0)])
def test_validate_names_the_first_non_finite_entry(bad, row, col):
    values = np.ones((3, 4))
    values[row, col] = bad
    values[2, 3] = np.nan  # a later entry in row-major order is not named
    with pytest.raises(DataError, match=f"non-finite entry at row {row}, column {col}$"):
        validate_dataset(DataMatrix(values))


@pytest.mark.parametrize("bad, row, col", [(np.nan, 1, 2), (np.inf, 0, 3), (-np.inf, 2, 0)])
def test_validate_names_the_same_entry_in_f_ordered_data(bad, row, col):
    values = np.ones((3, 4))
    values[row, col] = bad
    values[2, 3] = np.nan
    for data in (DataMatrix(values), DataMatrix(np.asfortranarray(values))):
        with pytest.raises(DataError, match=f"non-finite entry at row {row}, column {col}$"):
            validate_dataset(data)


def test_validate_accepts_a_finite_matrix_whose_sum_overflows():
    values = np.full((4, 5), 1e308)
    with np.errstate(over="ignore"):
        assert not math.isfinite(values.sum())
    assert validate_dataset(DataMatrix(values)) is None


def test_validate_builds_no_matrix_sized_temporary():
    data = DataMatrix(np.random.default_rng(0).standard_normal((400, 500)))
    tracemalloc.start()
    try:
        validate_dataset(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a boolean mask of the matrix would be 200 KB
    assert peak < data.values.size // 20


def test_validate_rejects_single_observation():
    with pytest.raises(DataError, match="need p >= 1 and n >= 2, got p=3, n=1"):
        validate_dataset(DataMatrix(np.ones((3, 1))))


def test_default_hyperparams_paper_settings():
    h = default_hyperparams(400)
    assert h.lambda0 == 100.0
    assert h.lambda1 == 1.0
    assert h.k_max == 20
    assert h.poisson_lambda == 2.0
    assert h.alpha == 1.0
    assert h.beta_theta == pytest.approx(400**1.1 * math.log(400), rel=1e-15)


def test_default_hyperparams_small_p():
    h = default_hyperparams(2)
    assert h.beta_theta == pytest.approx(2**1.1 * math.log(2), rel=1e-15)
    assert h.beta_theta > 0


def test_hyperparams_reject_bad_rates():
    with pytest.raises(ValueError):
        Hyperparams(lambda0=1.0, lambda1=2.0, beta_theta=1.0)
    # a rate whose square is not a positive finite float, as an int too,
    # and a Dirichlet weight that is not positive
    for bad in ({"alpha": 0}, {"alpha": -1}, {"alpha": 0.0}, {"lambda0": 1e200},
                {"lambda0": 10**200}, {"lambda0": 10**400}, {"lambda1": 1e-200}):
        with pytest.raises(ValueError):
            Hyperparams(**{"lambda0": 2.0, "lambda1": 1.0, "beta_theta": 1.0, **bad})


def test_hyperparams_warn_small_alpha():
    with pytest.warns(UserWarning):
        Hyperparams(lambda0=2.0, lambda1=1.0, beta_theta=1.0, alpha=0.5)


def _random_trace(rng: np.random.Generator, n_snaps: int) -> ChainTrace:
    n, p = 6, 5
    snaps = []
    for _ in range(n_snaps):
        k = int(rng.integers(1, 4))
        z = rng.integers(1, k + 1, size=n)
        z[rng.integers(n)] = k  # keep label k in use
        support = np.flatnonzero(rng.random(p) < 0.5) + 1
        snaps.append(
            Snapshot(
                z=z,
                k=k,
                theta=float(rng.beta(1, 3)),
                support=support,
                mu_support=rng.standard_normal((k, support.size)),
            )
        )
    meta = TraceMeta(
        n=n, p=p, n_burn=3, thin=2, seed=99, chain_id=1, hyper_digest="abc123", ssl_mode="joint"
    )
    return ChainTrace(snapshots=snaps, meta=meta)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n_snaps=st.integers(1, 8))
def test_trace_roundtrip_is_bit_exact(seed, n_snaps):
    trace = _random_trace(np.random.default_rng(seed), n_snaps)
    back = trace_from_ndjson(trace_to_ndjson(trace))
    assert back.meta == trace.meta
    assert len(back) == len(trace)
    for a, b in zip(trace.snapshots, back.snapshots):
        assert np.array_equal(a.z, b.z)
        assert a.k == b.k
        assert a.theta == b.theta  # bit-exact through JSON repr
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.mu_support, b.mu_support)


def test_trace_roundtrip_preserves_dense_block():
    rng = np.random.default_rng(0)
    trace = _random_trace(rng, 2)
    s = trace.snapshots[0]
    trace.snapshots[0] = Snapshot(
        z=s.z, k=s.k, theta=s.theta, support=s.support,
        mu_support=s.mu_support, mu_dense=rng.standard_normal((s.k, 5)),
    )
    back = trace_from_ndjson(trace_to_ndjson(trace))
    assert np.array_equal(back.snapshots[0].mu_dense, trace.snapshots[0].mu_dense)
    assert back.snapshots[1].mu_dense is None


def test_snapshot_dense_mu_scatters_support():
    snap = Snapshot(
        z=np.array([1, 2]),
        k=2,
        theta=0.1,
        support=np.array([2, 4]),
        mu_support=np.array([[1.0, 2.0], [3.0, 4.0]]),
    )
    dense = snap.dense_mu(5)
    expected = np.array([[0, 1.0, 0, 2.0, 0], [0, 3.0, 0, 4.0, 0]])
    assert np.array_equal(dense, expected)


def _record_text(**fields) -> str:
    """A one-snapshot trace (n=3, p=2) whose snapshot record holds ``fields``
    over valid ones, as raw JSON text."""
    meta = TraceMeta(n=3, p=2, n_burn=0, thin=1, seed=0, chain_id=0, hyper_digest="",
                     ssl_mode="joint")
    head = trace_to_ndjson(ChainTrace(snapshots=[], meta=meta))
    rec = {"type": "snapshot", "z": [1, 2, 1], "k": 2, "theta": 0.5, "support": [1],
           "mu_support": [[0.5], [-0.5]], "mu_dense": [[0.5, 0.0], [-0.5, 0.0]], **fields}
    return head + json.dumps(rec) + "\n"


@pytest.mark.parametrize("field, value", [
    ("z", [1, True, 1]), ("z", [1, 2, False]), ("k", True), ("theta", False),
    ("support", [1, True]), ("mu_support", [[0.5], [True]]),
    ("mu_dense", [[0.5, 0.0], [False, 0.0]]),
])
def test_trace_reader_refuses_a_boolean_in_every_numeric_field(field, value):
    # a wider support gets means that fit it, so only the boolean is wrong
    fit = {"mu_support": [[0.5, 0.0], [-0.5, 0.0]]} if field == "support" else {}
    text = _record_text(**fit, **{field: value})
    with pytest.raises(DataError, match=rf"^the snapshot on trace line 2: field {field} is "
                                        r"malformed: expected JSON numbers, not booleans, "
                                        r"strings or null$"):
        trace_from_ndjson(text)


def test_trace_reader_names_an_unknown_field_that_holds_a_boolean():
    with pytest.raises(DataError, match=r"^unknown field\(s\) in the snapshot on trace "
                                        r"line 2: flag$"):
        trace_from_ndjson(_record_text(flag=True))


def test_trace_reader_looks_for_booleans_only_in_records_with_a_literal(monkeypatch):
    calls = []
    has_bool = core._has_bool
    monkeypatch.setattr(core, "_has_bool", lambda v, d: calls.append(d) or has_bool(v, d))
    text = _record_text()
    trace_from_ndjson(text.splitlines()[0])
    meta = list(calls)  # the meta record's numbers are always checked
    calls.clear()
    assert trace_from_ndjson(text).snapshots[0].z.tolist() == [1, 2, 1]
    assert calls == meta  # and the snapshot's are not
    calls.clear()
    with pytest.raises(DataError, match="field z is malformed"):
        trace_from_ndjson(_record_text(z=[1, True, 1]))  # numpy reads it as 1
    assert calls == meta + [1]  # the record with a literal takes the full check
