"""Exactness gate for the stacked batch kernel (:mod:`repro.mi.batch`).

The reference is the scalar single-window path: ``KSGEstimator.mi`` for
the raw MI and ``binned_joint_entropy`` for the normalizing entropy.  The
batch kernel must return the same floats bit-for-bit -- marginal-count
rounding and argpartition tie resolution included -- for any mix of
window sizes and delays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mi.batch import ksg_batch
from repro.mi.entropy import binned_joint_entropy
from repro.mi.ksg import KSGEstimator


def _scalar(x, y, windows, k=4):
    estimator = KSGEstimator(k=k)
    mi, entropy = [], []
    for start, size, delay in windows:
        xw = x[start : start + size]
        yw = y[start + delay : start + delay + size]
        mi.append(estimator.mi(xw, yw))
        entropy.append(binned_joint_entropy(xw, yw))
    return mi, entropy


def _assert_batch_equals_scalar(x, y, windows, k=4):
    mi, entropy, passes = ksg_batch(x, y, windows, k)
    expected_mi, expected_entropy = _scalar(x, y, windows, k)
    assert mi.tolist() == expected_mi  # exact float equality
    assert entropy.tolist() == expected_entropy
    return passes


def _random_windows(rng, n, count, sizes, td_max):
    windows = []
    for _ in range(count):
        size = int(rng.integers(*sizes))
        delay = int(rng.integers(-td_max, td_max + 1))
        lo, hi = max(0, -delay), min(n - size, n - size - delay)
        windows.append((int(rng.integers(lo, hi + 1)), size, delay))
    return windows


def test_mixed_sizes_and_delays(rng):
    n = 500
    x = np.cumsum(rng.normal(size=n))
    y = np.roll(x, 4) + rng.normal(scale=0.3, size=n)
    windows = _random_windows(rng, n, 300, (3, 80), td_max=12)
    passes = _assert_batch_equals_scalar(x, y, windows)
    assert passes == len({size for _, size, _ in windows})


def test_quantized_tie_heavy_series(rng):
    n = 400
    x = np.round(rng.normal(size=n) * 2.0)
    y = rng.integers(0, 3, size=n).astype(np.float64)
    _assert_batch_equals_scalar(x, y, _random_windows(rng, n, 300, (3, 60), td_max=8))


def test_constant_windows(rng):
    n = 200
    x = np.full(n, 1.5)
    x[150:] = rng.normal(size=50)
    y = rng.normal(size=n)
    y[:60] = -2.0
    windows = [(0, 40, 0), (10, 30, 5), (100, 20, -20), (5, 20, 3), (140, 30, 0)]
    _assert_batch_equals_scalar(x, y, windows)
    _, entropy, _ = ksg_batch(x, y, [(0, 40, 0)], 4)
    assert entropy[0] == 0.0  # both axes constant: one occupied bin


def test_two_sample_windows_clamp_k(rng):
    n = 60
    x = rng.normal(size=n)
    y = np.round(rng.normal(size=n))
    windows = [(s, 2, d) for s, d in [(0, 0), (5, 3), (20, -4), (40, 1), (58, 0)]]
    windows += [(7, 3, 2), (30, 5, 0)]
    _assert_batch_equals_scalar(x, y, windows, k=4)


def test_windows_touching_both_series_ends(rng):
    n = 120
    x = np.cumsum(rng.normal(size=n))
    y = np.roll(x, 3) + rng.normal(scale=0.2, size=n)
    windows = [
        (0, 30, 0),
        (0, 30, 5),  # starts at X index 0
        (5, 30, -5),  # starts at Y index 0
        (n - 30, 30, 0),
        (n - 30, 30, -7),  # ends at X index n - 1
        (n - 36, 30, 6),  # ends at Y index n - 1
        (0, n, 0),  # the whole pair
    ]
    _assert_batch_equals_scalar(x, y, windows)


def test_repeated_window_scores_equal():
    rng = np.random.default_rng(5)
    x = rng.normal(size=100)
    y = x + rng.normal(scale=0.5, size=100)
    mi, entropy, _ = ksg_batch(x, y, [(10, 25, 2), (40, 25, 2), (10, 25, 2)], 4)
    assert mi[0] == mi[2] and entropy[0] == entropy[2]


def test_large_windows_are_chunked_and_exact(rng):
    # s_max-sized windows exceed the cell budget on their own, so each one
    # is a separate stacked pass; the floats must not change.
    n = 2000
    x = np.cumsum(rng.normal(size=n))
    y = np.roll(x, 5) + rng.normal(size=n)
    windows = [(100, 770, 5), (600, 770, 5), (900, 770, -9), (40, 300, 0)]
    passes = _assert_batch_equals_scalar(x, y, windows)
    assert passes == 4


def test_many_small_windows_share_one_pass(rng):
    n = 300
    x = rng.normal(size=n)
    y = x + rng.normal(size=n)
    windows = [(s, 24, d) for s in range(20, 260, 4) for d in (-10, 0, 10)]
    assert _assert_batch_equals_scalar(x, y, windows) == 1


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.integers(min_value=-3, max_value=3), min_size=40, max_size=40
    ),
    noise=st.lists(
        st.integers(min_value=-2, max_value=2), min_size=40, max_size=40
    ),
    picks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=2, max_value=20),
            st.integers(min_value=-5, max_value=5),
        ),
        min_size=1,
        max_size=12,
    ),
    k=st.integers(min_value=1, max_value=5),
)
def test_random_batches_on_small_integer_series(data, noise, picks, k):
    x = np.asarray(data, dtype=np.float64)
    y = x + 0.5 * np.asarray(noise, dtype=np.float64)
    n = x.size
    windows = []
    for start, size, delay in picks:
        start = min(max(start, -delay, 0), n - size, n - size - delay)
        if start >= 0 and start + delay >= 0:
            windows.append((start, size, delay))
    if windows:
        _assert_batch_equals_scalar(x, y, windows, k=k)
