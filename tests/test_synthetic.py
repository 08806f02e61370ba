import tracemalloc

import numpy as np
import pytest

from sparsegmm.errors import ConfigError
from sparsegmm.synthetic import ScenarioSpec, generate


def test_scenario_one_k3_means_on_support():
    spec = ScenarioSpec(scenario="one", k_star=3, s=6, seed=0)
    _, _, mu = generate(spec)
    assert mu.shape == (400, 3)
    assert np.array_equal(mu[:6, 0], np.full(6, 3.0))
    assert np.array_equal(mu[:6, 1], np.full(6, -1.5))
    assert np.array_equal(mu[:6, 2], np.zeros(6))
    assert not mu[6:].any()


def test_scenario_one_k5_alternating_patterns():
    spec = ScenarioSpec(scenario="one", k_star=5, s=6, seed=0)
    _, _, mu = generate(spec)
    assert np.array_equal(mu[:6, 3], 4.0 * np.array([-1, 1, -1, 1, -1, 1]))
    assert np.array_equal(mu[:6, 4], 1.5 * np.array([1, -1, 1, -1, 1, -1]))


def test_scenario_two_means_weights_and_variance():
    spec = ScenarioSpec(scenario="two", seed=0)
    data, z, mu = generate(spec)
    assert np.array_equal(mu[:8, 0], np.tile([5.0, 2.0], 4))
    assert np.array_equal(mu[:8, 1], np.tile([10.0, 5.0], 4))
    assert np.array_equal(mu[:8, 2], np.tile([15.0, 2.0], 4))
    # smallest cluster has expected size n * 0.02 = 4
    sizes = np.bincount(z, minlength=4)[1:]
    assert sizes.sum() == 200
    assert sizes[0] < 15  # weight 0.02


def test_scenario_two_small_cluster_expected_size():
    # across seeds the small-cluster size should hover near 4
    sizes = []
    for seed in range(30):
        _, z, _ = generate(ScenarioSpec(scenario="two", seed=seed))
        sizes.append(int((z == 1).sum()))
    assert 2.5 < np.mean(sizes) < 6.0


def test_scenario_three_is_heavier_tailed():
    gauss = generate(ScenarioSpec(scenario="two", p=50, n=2000, seed=1))
    student = generate(ScenarioSpec(scenario="three", p=50, n=2000, seed=1))
    # off-support rows are pure noise: kurtosis separates t(5) from normal
    g = gauss[0].values[20]
    t = student[0].values[20]

    def kurt(x):
        return ((x - x.mean()) ** 4).mean() / x.var() ** 2

    assert kurt(t) > kurt(g) + 1.0


def test_custom_zero_noise_reproduces_means():
    means = np.array([[1.0, -1.0], [0.5, 0.0]])
    spec = ScenarioSpec(
        scenario="custom",
        means=means,
        weights=np.array([0.5, 0.5]),
        diag_variances=np.zeros((2, 2)),
        n=10,
        seed=3,
    )
    data, z, mu = generate(spec)
    assert np.array_equal(data.values, mu[:, z - 1])


def test_fixed_seed_bit_identical():
    spec = ScenarioSpec(scenario="one", p=30, n=40, s=4, seed=7)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_generated_support_row_count():
    for s in (6, 12):
        _, _, mu = generate(ScenarioSpec(scenario="one", k_star=3, s=s, seed=0))
        assert int((mu != 0).any(axis=1).sum()) == s


def test_cluster_sample_means_converge():
    spec = ScenarioSpec(scenario="one", p=30, n=4000, s=6, seed=11)
    data, z, mu = generate(spec)
    for c in (1, 2, 3):
        members = data.values[:, z == c]
        assert members.shape[1] >= 500
        err = np.abs(members.mean(axis=1) - mu[:, c - 1]).max()
        assert err < 0.2


def test_mean_scale_override():
    _, _, mu = generate(ScenarioSpec(scenario="one", k_star=3, s=6, mean_scale=1.5, seed=0))
    assert mu[0, 0] == 4.5
    assert mu[0, 1] == -2.25


def test_bad_specs_rejected():
    with pytest.raises(ConfigError, match="scenario one supports k_star in"):
        generate(ScenarioSpec(scenario="one", k_star=4))
    with pytest.raises(ConfigError, match="custom scenario requires means and weights"):
        generate(ScenarioSpec(scenario="custom", means=None, weights=None))
    with pytest.raises(ConfigError, match="weights sum to .*, expected 1"):
        generate(
            ScenarioSpec(
                scenario="custom",
                means=np.ones((2, 2)),
                weights=np.array([0.9, 0.3]),
            )
        )
    with pytest.raises(ConfigError, match="support size 500 exceeds p=100"):
        generate(ScenarioSpec(scenario="one", s=500, p=100))


def test_generate_writes_in_place():
    spec = ScenarioSpec(scenario="three", p=400, n=500, seed=2)
    tracemalloc.start()
    try:
        data = generate(spec)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the data itself, and blocks of the draws: no p x n temporary
    assert peak <= 1.1 * data.values.nbytes
    assert np.shares_memory(data.values, data.obs) and data.obs.flags.c_contiguous
