import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsegmm.cli import main
from sparsegmm.core import DataMatrix
from sparsegmm.experiment import _manifest, data_sha256, load_matrix_csv


def run_cli(*args):
    return main([str(a) for a in args])


def _fails_with(capsys, code, *args):
    """Run the CLI on bad input: the exit code, and one stderr line (returned)."""
    assert run_cli(*args) == code, args
    err = capsys.readouterr().err.strip()
    assert err and "\n" not in err, err
    return err


def test_simulate_writes_data_and_truth(tmp_path):
    out = tmp_path / "sim"
    code = run_cli("simulate", "--scenario", "one", "--p", 20, "--n", 15, "--s", 4,
                   "--seed", 3, "--out", out)
    assert code == 0
    mat = load_matrix_csv(out / "data.csv")
    assert mat.shape == (20, 15)
    truth = json.loads((out / "truth.json").read_text())
    assert len(truth["z_true"]) == 15
    assert len(truth["mu_true"]) == 20


def test_data_digest_hashes_the_c_ordered_values_without_a_copy():
    for p, n in ((400, 500), (3, 20000), (7, 2)):
        data = DataMatrix(np.random.default_rng(p).standard_normal((p, n)))
        expected = hashlib.sha256(np.ascontiguousarray(data.values).tobytes()).hexdigest()
        tracemalloc.start()
        try:
            digest = data_sha256(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == expected
        assert _manifest({}, data)["data_digest"] == expected[:16]
        if p == 400:
            assert peak < data.values.nbytes / 8


def test_tiny_beta_theta_runs(tmp_path):
    # every indicator turns on, where (beta_theta + p) - p used to be 0
    for beta_theta in (1e-300, 3e-308, 1e-310, 1e-320):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": {"scenario": "one", "p": 20, "n": 30, "s": 4},
            "hyperparams": {"beta_theta": beta_theta},
            "run": {"n_burn": 50, "n_keep": 50},
            "output_dir": str(tmp_path / "out")}))
        assert run_cli("report", "--config", path) == 0, beta_theta


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("simulate", "--scenario", "two", "--p", 12, "--n", 10, "--seed", 5,
                "--out", out)
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


def test_fit_kmeans_end_to_end(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--scenario", "one", "--p", 20, "--n", 40, "--s", 4,
            "--mean-scale", 3.0, "--seed", 1, "--out", sim)
    fit = tmp_path / "fit"
    code = run_cli("fit", "--data", sim / "data.csv", "--method", "kmeans", "--k", 3,
                   "--truth", sim / "truth.json", "--seed", 2, "--out", fit)
    assert code == 0
    est = json.loads((fit / "estimate.json").read_text())
    assert est["k_hat"] == 3
    assert sorted(set(est["z_hat"])) == [1, 2, 3]
    metrics = json.loads((fit / "metrics.json").read_text())
    assert metrics["ari"] == pytest.approx(1.0)  # huge separation
    manifest = json.loads((fit / "manifest.json").read_text())
    assert "versions" in manifest and "data_digest" in manifest
    assert (fit / "assignments.csv").read_text().startswith("observation,label")


def test_fit_bayesian_writes_traces_and_psrf(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--scenario", "one", "--p", 15, "--n", 20, "--s", 3,
            "--mean-scale", 2.0, "--seed", 4, "--out", sim)
    fit = tmp_path / "bayes"
    code = run_cli("fit", "--data", sim / "data.csv", "--method", "bayesian",
                   "--n-burn", 10, "--n-keep", 20, "--n-chains", 2, "--seed", 5,
                   "--truth", sim / "truth.json", "--out", fit, "--quiet")
    assert code == 0
    assert (fit / "trace_chain0.ndjson").exists()
    assert (fit / "trace_chain1.ndjson").exists()
    psrf = json.loads((fit / "psrf.json").read_text())
    assert "theta" in psrf and "k" in psrf
    est = json.loads((fit / "estimate.json").read_text())
    assert est["k_hat"] >= 1


def test_fit_solves_each_draws_assignment_once(tmp_path, monkeypatch):
    """The estimate and the PSRF table share one alignment of the pooled draws."""
    import sparsegmm.summarize as summarize

    solve, calls = summarize.solve_assignment, []
    monkeypatch.setattr(summarize, "solve_assignment",
                        lambda cost: calls.append(cost.shape) or solve(cost))
    sim = tmp_path / "sim"
    run_cli("simulate", "--scenario", "one", "--p", 10, "--n", 12, "--s", 2, "--seed", 1,
            "--out", sim)
    code = run_cli("fit", "--data", sim / "data.csv", "--n-burn", 3, "--n-keep", 7,
                   "--n-chains", 2, "--seed", 2, "--out", tmp_path / "fit", "--quiet")
    assert code == 0 and (tmp_path / "fit" / "psrf.json").exists()
    assert len(calls) == 2 * 7


def test_fit_deterministic_rerun(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--scenario", "one", "--p", 12, "--n", 16, "--s", 3,
            "--seed", 9, "--out", sim)
    fit = tmp_path / "fit"
    files = ("estimate.json", "trace_chain0.ndjson", "metrics.json",
             "manifest.json", "assignments.csv")
    bundles = []
    for _ in range(2):  # identical config and output dir, rerun overwrites
        run_cli("fit", "--data", sim / "data.csv", "--method", "bayesian",
                "--truth", sim / "truth.json",
                "--n-burn", 5, "--n-keep", 10, "--seed", 7, "--out", fit, "--quiet")
        bundles.append(tuple((fit / f).read_bytes() for f in files))
    assert bundles[0] == bundles[1]


def test_fit_without_data_source_exits_2(tmp_path):
    code = run_cli("fit", "--method", "bayesian", "--out", tmp_path / "x")
    assert code == 2


def test_evaluate_subcommand(tmp_path):
    est = {"k_hat": 2, "z_hat": [1, 1, 2, 2], "support": [1],
           "mu_hat": [[1.0, 0.0], [0.0, 0.0]]}
    truth = {"z_true": [1, 1, 2, 2],
             "mu_true": [[1.0, 0.0], [0.0, 0.0]]}
    (tmp_path / "est.json").write_text(json.dumps(est))
    (tmp_path / "truth.json").write_text(json.dumps(truth))
    out = tmp_path / "metrics.json"
    code = run_cli("evaluate", "--estimate", tmp_path / "est.json",
                   "--truth", tmp_path / "truth.json", "--out", out)
    assert code == 0
    m = json.loads(out.read_text())
    assert m["ari"] == 1.0
    assert m["d_h"] == 0.0
    assert m["mean_matrix_error"] == 0.0


def test_diagnose_subcommand(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--scenario", "one", "--p", 10, "--n", 14, "--s", 2,
            "--seed", 2, "--out", sim)
    fit = tmp_path / "fit"
    run_cli("fit", "--data", sim / "data.csv", "--method", "bayesian",
            "--n-burn", 5, "--n-keep", 15, "--n-chains", 2, "--seed", 3,
            "--out", fit, "--quiet")
    out = tmp_path / "psrf.json"
    code = run_cli("diagnose", "--data", sim / "data.csv",
                   "--traces", fit / "trace_chain0.ndjson", fit / "trace_chain1.ndjson",
                   "--out", out)
    assert code == 0
    assert "theta" in json.loads(out.read_text())


def test_report_runs_full_experiment(tmp_path):
    cfg = {
        "scenario": {"scenario": "one", "p": 15, "n": 20, "s": 3, "mean_scale": 2.5, "seed": 8},
        "method": "kmeans",
        "cmle": {"k": 3, "s": 3, "seed": 1},
        "output_dir": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli("report", "--config", cfg_path)
    assert code == 0
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics["k_hat"] == 3
    assert metrics["mean_matrix_error"] is not None


def test_preprocess_subcommand(tmp_path):
    rng = np.random.default_rng(0)
    counts = rng.poisson(30, size=(12, 8))
    src = tmp_path / "counts.csv"
    np.savetxt(src, counts, delimiter=",", fmt="%d")
    out = tmp_path / "expr.csv"
    code = run_cli("preprocess", "--counts", src, "--out", out)
    assert code == 0
    mat = load_matrix_csv(out)
    assert mat.shape[1] == 8
    assert np.abs(mat.mean(axis=1)).max() < 1e-10


def test_transpose_flag(tmp_path):
    vals = np.arange(12.0).reshape(3, 4)
    src = tmp_path / "wide.csv"
    np.savetxt(src, vals.T, delimiter=",", fmt="%.17g")
    assert load_matrix_csv(src, transpose=True).shape == (3, 4)


def test_header_row_detected(tmp_path):
    src = tmp_path / "hdr.csv"
    src.write_text("obs1,obs2,obs3\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    mat = load_matrix_csv(src)
    assert mat.shape == (2, 3)


def test_missing_data_exits_3(tmp_path):
    code = run_cli("fit", "--data", tmp_path / "nope.csv", "--method", "kmeans",
                   "--k", 2, "--out", tmp_path / "x")
    assert code == 3


def test_bad_config_exits_2(tmp_path, capsys):
    code = run_cli("fit", "--method", "cmle", "--out", tmp_path / "x")
    assert code == 2  # cmle without --k / --sparsity
    capsys.readouterr()
    bad = {
        "init_not_object.json": json.dumps(
            {"scenario": {"scenario": "one"}, "run": {"init": "single"}}),
        "top_level_array.json": "[1, 2]",
        "unparsable.json": "{bad",
    }
    # an unknown start kind is refused before the (missing) data file is read
    for kind in ("screened_kmeans", "nope"):
        bad[f"init_{kind}.json"] = json.dumps(
            {"data_path": str(tmp_path / "absent.csv"), "run": {"init": {"kind": kind, "k": 2}}})
    for name, text in bad.items():
        path = tmp_path / name
        path.write_text(text)
        _fails_with(capsys, 2, "report", "--config", path)
        _fails_with(capsys, 2, "report", "--config", path, "--out", tmp_path / "r")
    _fails_with(capsys, 2, "fit", "--config", tmp_path / "unparsable.json",
                "--out", tmp_path / "f")

    # a section that is not an object, or a value of the wrong kind, is
    # refused before the (missing) data file is read, whether or not a flag
    # would replace it
    absent = {"data_path": str(tmp_path / "absent.csv")}
    cases = [({} if "scenario" in case else absent, case) for case in (
        {"hyperparams": 5}, {"hyperparams": {"lambda0": "x"}}, {"run": [1, 2]},
        {"output_dir": 5}, {"run": {"n_burn": 2.5}}, {"run": {"seed": 1.5}},
        {"run": {"init": {"kind": "random_k", "k": 2.5}}},
        {"run": {"init": {"kind": "random_k", "k": 0}}},
        {"scenario": {"p": 20.5}}, {"method": "cmle", "cmle": {"k": 2, "s": 2.5}},
        {"scenario": "one"}, {"transpose": "yes"},
        {"run": {"seed": 1e20}}, {"run": {"seed": 2**64 - 1}})]
    # a degenerate prior is refused once the data load (the defaults it
    # overrides depend on p), so these cases simulate their data
    simulated = {"scenario": {"scenario": "one", "p": 20, "n": 30, "s": 4}}
    cases += [(simulated, {"hyperparams": prior}) for prior in (
        {"alpha": 0}, {"alpha": -1}, {"lambda0": 1e200}, {"lambda1": 1e-200})]
    for source, case in cases:
        path = tmp_path / "case.json"
        path.write_text(json.dumps({**source, **case}))
        for args in (("report", "--config", path),
                     ("fit", "--config", path, "--out", tmp_path / "f")):
            assert run_cli(*args) == 2, (case, args)
            err = capsys.readouterr().err.strip()
            assert err.startswith("config error: ") and "\n" not in err, (case, err)

    # a config file that cannot be read is a config error; a data file that
    # cannot be read is still a data error
    missing = tmp_path / "missing.json"
    _fails_with(capsys, 2, "report", "--config", missing)
    _fails_with(capsys, 2, "fit", "--config", missing, "--out", tmp_path / "f")
    path = tmp_path / "absent_data.json"
    path.write_text(json.dumps({"data_path": str(tmp_path / "absent.csv")}))
    _fails_with(capsys, 3, "report", "--config", path)

    # sizes below 1 are rejected, not replaced by the defaults
    for flag, value in (("--p", 0), ("--n", 0), ("--s", 0), ("--s", -2)):
        _fails_with(capsys, 2, "simulate", flag, value, "--out", tmp_path / "sim")
    assert not (tmp_path / "sim").exists()

    # a PSRF needs two chains
    data, trace = tmp_path / "data.csv", tmp_path / "trace.ndjson"
    data.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    trace.write_text("")
    _fails_with(capsys, 2, "diagnose", "--data", data, "--traces", trace)

    # ... and two snapshots per chain: rejected before any chain runs
    _fails_with(capsys, 2, "fit", "--data", data, "--n-chains", 2, "--n-keep", 1,
                "--n-burn", 0, "--out", tmp_path / "short")
    assert not list(tmp_path.rglob("trace_chain*.ndjson"))


def test_out_of_range_values_exit_2_naming_the_field(tmp_path, capsys):
    csv = str(tmp_path / "absent.csv")  # seeds are refused before the data is read
    # means that are not finite (1e308 is finite, but the scaled means overflow)
    cases = [(("simulate", "--mean-scale", v), "mean_scale") for v in ("nan", "inf", "1e308")]
    # a seed below 0, from a flag or a config section
    cases += [(("simulate", "--seed", -1), "seed"), (("fit", "--data", csv, "--seed", -5), "seed")]
    custom = {"scenario": "custom", "means": [[0, 1], [1, 0]], "weights": [0.5, 0.5], "n": 10}
    configs = [({"scenario": {"scenario": "one", "p": 20, "n": 30, "s": 4, "seed": -1}}, "seed"),
               ({"data_path": csv, "method": "kmeans", "cmle": {"k": 2, "seed": -1}}, "seed")]
    # a custom scenario's t_dof or weights out of their range
    configs += [({"scenario": {**custom, key: v}, "method": "kmeans", "cmle": {"k": 2}}, key)
                for key, v in (("t_dof", -1), ("t_dof", 0), ("weights", [1.5, -0.5]))]
    for i, (cfg, field) in enumerate(configs):
        (tmp_path / f"c{i}.json").write_text(json.dumps(cfg))
        cases.append((("report", "--config", tmp_path / f"c{i}.json"), field))
    for args, field in cases:
        assert field in _fails_with(capsys, 2, *args, "--out", tmp_path / "out"), args
        assert not (tmp_path / "out").exists(), args


def test_report_kmeans_needs_only_k(tmp_path, capsys):
    """k-means is the constrained MLE without a row budget: its config
    needs cmle.k alone, and gives the estimate that ``fit`` gives."""
    sim = tmp_path / "sim"
    run_cli("simulate", "--scenario", "one", "--p", 20, "--n", 30, "--s", 4, "--seed", 2,
            "--out", sim)
    assert run_cli("fit", "--data", sim / "data.csv", "--method", "kmeans", "--k", 3,
                   "--out", tmp_path / "fit") == 0
    path = tmp_path / "c.json"
    for method, code in (("kmeans", 0), ("cmle", 2)):
        path.write_text(json.dumps({"data_path": str(sim / "data.csv"), "method": method,
                                    "cmle": {"k": 3}, "output_dir": str(tmp_path / method)}))
        assert run_cli("report", "--config", path) == code, method
    estimate = (tmp_path / "kmeans" / "estimate.json").read_bytes()
    assert estimate == (tmp_path / "fit" / "estimate.json").read_bytes()
    assert not (tmp_path / "cmle").exists()
    assert "cmle.s" in capsys.readouterr().err


def test_conflicting_sources_exit_2(tmp_path):
    cfg = {"data_path": "x.csv",
           "scenario": {"scenario": "one"},
           "method": "kmeans", "cmle": {"k": 2, "s": 1}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("report", "--config", path) == 2


def test_metrics_accept_non_dense_truth_labels():
    from sparsegmm.core import ClusterEstimate
    from sparsegmm.experiment import compute_metrics

    est = ClusterEstimate(
        k_hat=2, z_hat=np.array([1, 1, 2, 2]), mu_hat=np.zeros((3, 2)),
        support_hat=(), inclusion_freq=None,
    )
    m = compute_metrics(est, np.array([2, 2, 3, 3]), None)  # label 1 unused
    assert m["ari"] == 1.0 and m["d_h"] == 0.0


def test_nan_data_exits_3(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("1.0,2.0\nnan,3.0\n")
    code = run_cli("fit", "--data", src, "--method", "kmeans", "--k", 2,
                   "--out", tmp_path / "y")
    assert code == 3


def test_malformed_estimate_and_trace_exit_3(tmp_path, capsys):
    est, truth = tmp_path / "est.json", tmp_path / "truth.json"
    est.write_text(json.dumps({"k_hat": 1, "mu_hat": [[0.0]]}))  # no z_hat
    truth.write_text(json.dumps({"z_true": [1, 1]}))
    _fails_with(capsys, 3, "evaluate", "--estimate", est, "--truth", truth)
    data, trace = tmp_path / "data.csv", tmp_path / "trace.ndjson"
    data.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    trace.write_text(json.dumps({"type": "meta", "p": 2}) + "\n")  # no n
    _fails_with(capsys, 3, "diagnose", "--data", data, "--traces", trace, trace)

    # files that are not JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    _fails_with(capsys, 3, "evaluate", "--estimate", bad, "--truth", truth)
    est.write_text(json.dumps({"k_hat": 1, "z_hat": [1, 1], "mu_hat": [[0.0]]}))
    _fails_with(capsys, 3, "evaluate", "--estimate", est, "--truth", bad)

    # an estimate that does not fit the truth: lengths, a label 0, p
    truth.write_text(json.dumps({"z_true": [1, 1, 2], "mu_true": [[0.0, 1.0], [0.0, 1.0]]}))
    for z_hat, mu_hat in (([1, 1], [[0.0], [0.0]]),
                          ([0, 1, 1], [[0.0], [0.0]]),
                          ([1, 1, 1], [[0.0], [0.0], [0.0]])):
        est.write_text(json.dumps({"k_hat": 1, "z_hat": z_hat, "mu_hat": mu_hat}))
        _fails_with(capsys, 3, "evaluate", "--estimate", est, "--truth", truth)

    # fields of the wrong type or shape, in the estimate and in the truth
    fits = {"k_hat": 2, "z_hat": [1, 1, 2], "mu_hat": [[0.0, 1.0], [0.0, 1.0]]}
    for field, value in (("z_hat", [[1], [1, 2]]), ("z_hat", "abc"), ("k_hat", "x"),
                         ("mu_hat", [[0.0], [0.0, 1.0]]), ("mu_hat", "abc"),
                         ("mu_hat", [[False, True], [False, "1.0"]]),
                         ("mu_hat", [[0.0, 1.0], [0.0, "1.0"]]),
                         ("z_hat", [1.9, 1, 2]), ("z_hat", [True, 1, 2]), ("k_hat", 2.7),
                         ("k_hat", True), ("k_hat", "2"), ("k_hat", [2]),
                         ("support", 5), ("support", "abc"),
                         ("mu_hat", [[0.0, float("nan")], [0.0, 1.0]])):
        est.write_text(json.dumps({**fits, field: value}))
        _fails_with(capsys, 3, "evaluate", "--estimate", est, "--truth", truth)
    est.write_text(json.dumps(fits))
    good_truth = json.loads(truth.read_text())
    for field, value in (("z_true", [[1], [1, 2]]), ("z_true", "abc"),
                         ("mu_true", [[0.0], [0.0, 1.0]]),
                         ("mu_true", [[False, True], [False, "1.0"]]),
                         ("mu_true", [[0.0, True], [0.0, 1.0]]),
                         ("z_true", [1.9, 1, 2]), ("z_true", [True, 1, 2]),
                         ("mu_true", [[0.0, float("inf")], [0.0, 1.0]])):
        truth.write_text(json.dumps({**good_truth, field: value}))
        _fails_with(capsys, 3, "evaluate", "--estimate", est, "--truth", truth)
    truth.write_text(json.dumps(good_truth))
    assert run_cli("evaluate", "--estimate", est, "--truth", truth) == 0

    # meta records that lack a field, hold an unknown or mistyped one, or do
    # not fit the data; snapshot records that are not JSON, lack a field,
    # hold a mistyped or non-finite one, or do not fit the data
    meta = {"type": "meta", "n": 3, "p": 2, "n_burn": 0, "thin": 1, "seed": 0,
            "chain_id": 0, "hyper_digest": "", "ssl_mode": "joint"}
    snap = {"type": "snapshot", "z": [1, 1, 1], "k": 1, "theta": 0.5,
            "support": [1], "mu_support": [[0.0]]}
    for field, value in (("n", "x"), ("n", 3.5), ("p", [2]), ("seed", "s"), ("ssl_mode", 5),
                         ("chain_id", None), ("extra", 1), ("n", 4), ("p", 3),
                         ("ssl_mode", "bogus"), ("thin", 0), ("chain_id", -5), ("n", 0),
                         ("p", 0), ("n_burn", -1)):
        trace.write_text(json.dumps({**meta, field: value}) + "\n" + (json.dumps(snap) + "\n") * 2)
        _fails_with(capsys, 3, "diagnose", "--data", data, "--traces", trace, trace)
    for line in (
        "{not json",
        json.dumps({key: v for key, v in snap.items() if key != "support"}),
        json.dumps({**snap, "mu_support": [[0.0, 1.0]]}),
        json.dumps({**snap, "z": [1, 1]}),
        json.dumps({**snap, "support": [3]}),
        json.dumps({**snap, "z": "abc"}),
        json.dumps({**snap, "theta": "x"}),
        json.dumps({**snap, "mu_support": [["a"]]}),
        json.dumps({**snap, "mu_dense": "x"}),
        json.dumps({**snap, "k": 1.5}),
        json.dumps({**snap, "support": [1.5]}),
        json.dumps({**snap, "z": [1, True, 1]}),
        json.dumps({**snap, "support": [1, 2], "mu_support": [[0.5, True]]}),
        json.dumps({**snap, "mu_support": [[float("nan")]]}),
        json.dumps({**snap, "theta": float("nan")}),
        json.dumps({**snap, "extra": 1}),
    ):
        trace.write_text(json.dumps(meta) + "\n" + (line + "\n") * 2)
        _fails_with(capsys, 3, "diagnose", "--data", data, "--traces", trace, trace)
    # a whole number is an integral value, in traces as in estimates and configs
    trace.write_text(json.dumps(meta) + "\n" + (json.dumps({**snap, "k": 1.0}) + "\n") * 2)
    assert run_cli("diagnose", "--data", data, "--traces", trace, trace) == 0

    # chains of unequal lengths, and chains of one snapshot each
    other = tmp_path / "other.ndjson"
    for n_a, n_b in ((2, 3), (1, 1)):
        trace.write_text(json.dumps(meta) + "\n" + (json.dumps(snap) + "\n") * n_a)
        other.write_text(json.dumps(meta) + "\n" + (json.dumps(snap) + "\n") * n_b)
        _fails_with(capsys, 3, "diagnose", "--data", data, "--traces", trace, other)
    other.write_text(json.dumps(meta) + "\n" + (json.dumps(snap) + "\n") * 2)
    assert run_cli("diagnose", "--data", data, "--traces", other, other) == 0


def test_truth_that_does_not_fit_the_data_exits_3_before_fitting(tmp_path, capsys):
    sim = tmp_path / "sim"
    run_cli("simulate", "--scenario", "one", "--p", 30, "--n", 40, "--s", 3, "--seed", 1,
            "--out", sim)
    fit = tmp_path / "fit"
    # transposed, the data has 30 observations and the truth 40 labels
    _fails_with(capsys, 3, "fit", "--data", sim / "data.csv", "--transpose",
                "--truth", sim / "truth.json", "--n-burn", 2, "--n-keep", 3,
                "--n-chains", 2, "--out", fit, "--quiet")
    assert not list(fit.glob("trace_chain*.ndjson"))
    assert not (fit / "estimate.json").exists()
    truth = json.loads((sim / "truth.json").read_text())
    for field, value in (("z_true", [0] + truth["z_true"][1:]),
                         ("mu_true", truth["mu_true"][1:]),
                         ("mu_true", [row[:1] for row in truth["mu_true"]])):
        (sim / "bad.json").write_text(json.dumps({**truth, field: value}))
        _fails_with(capsys, 3, "fit", "--data", sim / "data.csv", "--truth", sim / "bad.json",
                    "--method", "kmeans", "--k", 2, "--out", fit)
        assert not (fit / "estimate.json").exists()


def test_removed_start_kind_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"run": {"init": {"kind": "kmeans_pp", "k": 2}}}))
    _fails_with(capsys, 2, "fit", "--config", config, "--data", data, "--n-burn", 0,
                "--n-keep", 2, "--out", tmp_path / "fit")
    assert not (tmp_path / "fit").exists()


def test_evaluate_one_cluster_estimate_has_null_nmi(tmp_path):
    est, truth, out = tmp_path / "est.json", tmp_path / "truth.json", tmp_path / "m.json"
    est.write_text(json.dumps({"k_hat": 1, "z_hat": [1, 1, 1, 1], "mu_hat": [[0.5]]}))
    truth.write_text(json.dumps({"z_true": [1, 1, 2, 2]}))
    assert run_cli("evaluate", "--estimate", est, "--truth", truth, "--out", out) == 0
    metrics = json.loads(out.read_text())
    assert metrics["nmi"] is None and metrics["d_h"] == 0.5


def _unreadable(tmp_path, kind):
    """A path that exists but holds no text: a directory, or bytes that are
    not UTF-8."""
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00\x81\xc3(\n" * 4)
    return path


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
@pytest.mark.parametrize("flag", ["--data", "--counts", "--traces"])
def test_unreadable_input_exits_3(tmp_path, capsys, flag, kind):
    bad = _unreadable(tmp_path, kind)
    data = tmp_path / "data.csv"
    data.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    args = {
        "--data": ("fit", "--data", bad, "--method", "kmeans", "--k", 2,
                   "--out", tmp_path / "fit"),
        "--counts": ("preprocess", "--counts", bad, "--out", tmp_path / "x.csv"),
        "--traces": ("diagnose", "--data", data, "--traces", bad, bad),
    }[flag]
    _fails_with(capsys, 3, *args)


@pytest.mark.parametrize("command", ["simulate", "preprocess", "fit", "report",
                                     "evaluate", "diagnose"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    """An --out that is an existing file where a directory is wanted, a
    directory where a file is wanted, or a file in a missing directory."""
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--p", 10, "--n", 24, "--s", 2, "--out", sim) == 0
    assert run_cli("fit", "--data", sim / "data.csv", "--n-burn", 0, "--n-keep", 2,
                   "--n-chains", 2, "--quiet", "--out", tmp_path / "fit") == 0
    capsys.readouterr()
    a_file, a_dir = sim / "truth.json", tmp_path / "fit"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"data_path": str(sim / "data.csv"), "method": "kmeans",
                                  "cmle": {"k": 2}}))
    traces = sorted(a_dir.glob("trace_chain*.ndjson"))
    counts = tmp_path / "counts.csv"
    np.savetxt(counts, np.random.default_rng(0).integers(1, 9, size=(4, 5)), delimiter=",")
    args = {
        "simulate": ("simulate", "--out", a_file),
        "preprocess": ("preprocess", "--counts", counts, "--out", tmp_path / "no" / "x.csv"),
        "fit": ("fit", "--data", sim / "data.csv", "--method", "kmeans", "--k", 2,
                "--out", a_file),
        "report": ("report", "--config", config, "--out", a_file),
        "evaluate": ("evaluate", "--estimate", a_dir / "estimate.json", "--truth", a_file,
                     "--out", a_dir),
        "diagnose": ("diagnose", "--data", sim / "data.csv", "--traces", *traces,
                     "--out", a_dir),
    }[command]
    _fails_with(capsys, 2, *args)
