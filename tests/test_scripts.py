"""Smoke tests of the README's experiment scripts, run as subprocesses.

Each script runs at a tiny size and must exit and print its result
lines, so that a change to the library's signatures cannot silently
break them.  The numbers are not checked here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, ok=(0,), env_override=None):
    env = {**os.environ, **(env_override or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in ok, proc.stderr
    return proc.stdout


def test_trace_digest_prints_one_line_per_seed():
    out = _run("trace_digest.py", "--designs", "3a")
    lines = re.findall(r"^3a seed (\d)\s+trace [0-9a-f]{64}  post [0-9a-f]{64}", out, re.M)
    assert lines == ["1", "2", "3", "4", "5"], out


def test_trace_digests_do_not_depend_on_the_blas_thread_count():
    """The k-means distances and the reseat inner products come from BLAS,
    whose last bits may change with its thread count; they only steer an
    argmin and categorical draws, so every digest must not change."""
    designs = ("large_joint", "baselines_large", "chains_column")
    outs = [_run("trace_digest.py", "--designs", *designs,
                 env_override={"OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    # each line ends in its design's run time, which is not digested
    digests = [re.sub(r"  \([\d.]+ s\)$", "", out, flags=re.M) for out in outs]
    assert len(digests[0].splitlines()) == 4, outs[0]
    assert digests[0] == digests[1], outs


def test_trace_digest_covers_the_psrf_table():
    out = _run("trace_digest.py", "--designs", "chains_column")
    assert re.search(r"^chains_column\s+trace [0-9a-f]{64}  post [0-9a-f]{64}", out, re.M), out


def test_trace_digest_covers_the_baselines():
    out = _run("trace_digest.py", "--designs", "baselines")
    lines = re.findall(r"^baselines (\w+)\s+estimate [0-9a-f]{64}", out, re.M)
    assert lines == ["kmeans", "cmle"], out


def test_trace_digest_covers_the_large_baselines():
    out = _run("trace_digest.py", "--designs", "baselines_large")
    lines = re.findall(r"^baselines_large (\w+)\s+fit [0-9a-f]{64}", out, re.M)
    assert lines == ["kmeans", "cmle"], out


def test_split_odds_prints_the_seed():
    out = _run("split_odds.py", "--seeds", "1", "--samples", 1000)
    assert re.search(r"^seed 1: sizes \[.*\]  split odds per cluster .* total ", out, re.M), out


def test_run_scenarios_prints_the_estimate():
    out = _run("run_scenarios.py", "--scenarios", "one", "--seeds", 1, "--p", 20, "--n", 30,
               "--n-burn", 5, "--n-keep", 10)
    assert re.search(r"^  seed 1: K=\d+ ARI=\S+ d_H=\S+ err=\S+ support=", out, re.M), out


@pytest.mark.parametrize("ssl_mode", ["joint", "column"])
def test_geweke_check_prints_the_table(ssl_mode):
    # 500 rounds are too few to judge the sampler: exit 1 (|z| >= 4) is allowed
    out = _run("geweke_check.py", "--rounds", 500, "--seed", 1, "--ssl-mode", ssl_mode,
               ok=(0, 1))
    for name in ("theta", "K", "mu_z1^2", "xi_on", "P(K=1)"):
        assert re.search(rf"^  {re.escape(name)}\s+forward=.*\|z\|=", out, re.M), name
    assert re.search(r"^worst \|z\| = ", out, re.M), out


def test_ab_fit_lists_the_north_star_workload():
    # running it takes ~10 s, so only the listing is checked here
    out = _run("ab_fit.py", "--help")
    assert re.search(r"^  north_star\s+scenario I, p=2000, n=3000", out, re.M), out
    assert re.search(r"\{large_joint,chains_column,north_star\}", out), out
    # several workloads can be timed by one command
    assert re.search(r"--workload \{[a-z_,]+\} \[\{[a-z_,]+\} \.\.\.\]", out), out


def test_ab_fit_prints_the_pair_ratios():
    # one checkout against itself: the traces and estimates must be identical
    out = _run("ab_fit.py", "--a", ROOT, "--b", ROOT, "--workload", "chains_column",
               "--pairs", 1)
    assert re.search(r"^chains_column: tracemalloc peak of one fit: a [\d.]+ MB  b [\d.]+ MB$",
                     out, re.M), out
    assert re.search(r"^chains_column: median sweep a [\d.]+ ms  b [\d.]+ ms; "
                     r"reseat pass a [\d.]+ ms  b [\d.]+ ms; "
                     r"k-means start a [\d.]+ ms  b [\d.]+ ms$", out, re.M), out
    # each pair times the fit and, apart, its post-processing
    assert re.search(r"^pair  1 \(ab first\): fit a \S+ s  b \S+ s  b/a \S+; "
                     r"post a \S+ s  b \S+ s  b/a \S+$", out, re.M), out
    for stage in ("fit", "post"):
        assert re.search(rf"^chains_column: {stage} median b/a \S+ \(quartiles \S+\), "
                         r"b faster in \d of 1 pairs$", out, re.M), out
    assert re.search(r"^chains_column: traces and estimates identical$", out, re.M), out
