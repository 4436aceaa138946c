import numpy as np
import pytest

from akwinfer.numkernel import LinAlgError
from akwinfer.random_scaling import (
    ONE_SIDED_QUANTILES,
    TWO_SIDED_CRITICAL_VALUES,
    assemble_v,
    scaling_ci,
    simulate_pivot_quantiles,
)
from reference import ScalingAccumulator, scaling_update


def batch_v(path):
    """Direct formula for V_n from the full path of running averages."""
    path = np.asarray(path, float)
    n = path.shape[0]
    final = path[-1]
    dev = path - final
    i2 = np.arange(1, n + 1) ** 2
    return (dev.T * i2) @ dev / n**2


def test_constant_path_gives_zero_v():
    acc = ScalingAccumulator(dim=2)
    tb = np.array([0.3, -1.2])
    for i in range(1, 101):
        scaling_update(acc, tb, i)
    assert np.allclose(assemble_v(acc.a, acc.b, acc.s, acc.n, tb), 0.0, atol=1e-12)


def test_empty_accumulator_gives_zero_matrix():
    acc = ScalingAccumulator(dim=3)
    v = assemble_v(acc.a, acc.b, acc.s, acc.n, np.zeros(3))
    assert np.array_equal(v, np.zeros((3, 3)))


def test_hand_value_d1_two_steps():
    # path 1, 2 (final average 2): V_2 = (1*(1-2)^2 + 4*0)/4 = 0.25
    acc = ScalingAccumulator(dim=1)
    scaling_update(acc, np.array([1.0]), 1)
    scaling_update(acc, np.array([2.0]), 2)
    v = assemble_v(acc.a, acc.b, acc.s, acc.n, np.array([2.0]))
    assert v[0, 0] == pytest.approx(0.25)


def test_out_of_order_update_rejected():
    acc = ScalingAccumulator(dim=1)
    scaling_update(acc, np.array([1.0]), 1)
    with pytest.raises(ValueError):
        scaling_update(acc, np.array([1.0]), 3)
    with pytest.raises(ValueError):
        scaling_update(acc, np.array([1.0]), 1)


def test_online_matches_batch_formula():
    rng = np.random.default_rng(14)
    n, d = 1000, 3
    # running averages of a random-walk-like path
    steps = rng.standard_normal((n, d)) * 0.1
    path = np.cumsum(steps, axis=0) / np.arange(1, n + 1)[:, None]
    acc = ScalingAccumulator(dim=d)
    for i in range(n):
        scaling_update(acc, path[i], i + 1)
    v_online = assemble_v(acc.a, acc.b, acc.s, acc.n, path[-1])
    v_batch = batch_v(path)
    assert np.abs(v_online - v_batch).max() < 1e-9 * max(1.0, np.abs(v_batch).max())


def test_affine_shift_invariance():
    # V_n depends only on deviations from the final average
    rng = np.random.default_rng(15)
    n, d = 500, 2
    path = np.cumsum(rng.standard_normal((n, d)), axis=0) / np.arange(1, n + 1)[:, None]
    shift = np.array([10.0, -7.0])
    acc1, acc2 = ScalingAccumulator(dim=d), ScalingAccumulator(dim=d)
    for i in range(n):
        scaling_update(acc1, path[i], i + 1)
        scaling_update(acc2, path[i] + shift, i + 1)
    v1 = assemble_v(acc1.a, acc1.b, acc1.s, acc1.n, path[-1])
    v2 = assemble_v(acc2.a, acc2.b, acc2.s, acc2.n, path[-1] + shift)
    assert np.abs(v1 - v2).max() < 1e-10 * max(1.0, np.abs(v1).max())


def test_ci_uses_tabled_critical_values():
    v = np.diag([4.0, 9.0])
    tb = np.array([1.0, -2.0])
    for level, cv in TWO_SIDED_CRITICAL_VALUES.items():
        ci = scaling_ci(tb, v, np.array([0.0, 1.0]), n=100, level=level)
        assert ci.center == -2.0
        # the one interval formula, to the bit
        assert ci.half_width == cv * np.sqrt(9.0 / 100)
    assert TWO_SIDED_CRITICAL_VALUES[0.95] == 6.747


def test_ci_edge_cases():
    tb = np.array([1.0])
    with pytest.raises(ValueError):
        scaling_ci(tb, np.eye(1), np.ones(1), n=0)
    with pytest.raises(ValueError):
        scaling_ci(tb, np.eye(1), np.ones(1), n=10, level=0.93)
    with pytest.raises(LinAlgError):
        scaling_ci(tb, -np.eye(1), np.ones(1), n=10)
    deg = scaling_ci(tb, np.zeros((1, 1)), np.ones(1), n=10)
    assert deg.half_width == 0.0


def test_one_and_two_sided_tables_agree():
    # two-sided level q uses the one-sided 1-(1-q)/2 quantile
    one_sided = dict(ONE_SIDED_QUANTILES)
    for level, cv in TWO_SIDED_CRITICAL_VALUES.items():
        assert one_sided[1 - (1 - level) / 2] == cv


def test_simulated_pivot_quantiles_match_table():
    rng = np.random.default_rng(1234)
    got = simulate_pivot_quantiles(40_000, 1_000, rng)
    for p, q in ONE_SIDED_QUANTILES:
        assert abs(got[p] - q) / q < 0.05, (p, got[p], q)


def test_simulate_pivot_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate_pivot_quantiles(0, 100, rng)
    with pytest.raises(ValueError):
        simulate_pivot_quantiles(10, 1, rng)


def test_scaling_ci_covers_for_iid_mean_path():
    # sanity: running averages of iid N(0,1); the 95% interval for the mean
    # should cover zero in most replications
    rng = np.random.default_rng(77)
    n, reps, hits = 2000, 200, 0
    for _ in range(reps):
        x = rng.standard_normal(n)
        path = np.cumsum(x) / np.arange(1, n + 1)
        acc = ScalingAccumulator(dim=1)
        for i in range(n):
            scaling_update(acc, path[i : i + 1], i + 1)
        v = assemble_v(acc.a, acc.b, acc.s, acc.n, path[-1:])
        ci = scaling_ci(path[-1:], v, np.ones(1), n)
        hits += ci.covers(0.0)
    assert 0.90 <= hits / reps <= 0.99
