"""Tests for the shared digamma lookup table (bit-exactness, growth)."""

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma

from repro.mi.digamma import DigammaTable, digamma_direct, shared_digamma_table
from repro.mi.ksg import KSGEstimator
from repro.mi.neighbors import chebyshev_knn_bruteforce, marginal_counts


def test_table_bit_matches_scipy():
    table = DigammaTable(initial=16)
    for n in (1, 2, 3, 7, 16, 100, 5000):
        assert table.value(n) == float(scipy_digamma(float(n)))


def test_values_bit_match_scipy_vectorized():
    table = DigammaTable(initial=8)
    ns = np.array([1, 5, 12, 300, 2, 2, 999], dtype=np.int64)
    expected = scipy_digamma(ns.astype(np.float64))
    assert np.array_equal(table.values(ns), expected)


def test_prefix_covers_and_indexes_by_argument_minus_one():
    table = DigammaTable(initial=4)
    prefix = table.prefix(10)
    assert prefix.size >= 10
    for n in range(1, 11):
        assert prefix[n - 1] == float(scipy_digamma(float(n)))


def test_growth_doubles_lazily():
    table = DigammaTable(initial=4)
    assert table.size == 4
    table.value(5)
    assert table.size == 8
    table.values(np.array([100]))
    assert table.size >= 100
    # Growth preserves earlier entries bit-for-bit.
    assert table.value(3) == float(scipy_digamma(3.0))


def test_prefix_is_read_only():
    table = DigammaTable(initial=4)
    with pytest.raises((ValueError, RuntimeError)):
        table.prefix(4)[0] = 0.0


def test_prefix_contract():
    table = DigammaTable(initial=8)
    view = table.prefix(8)
    assert view.flags["C_CONTIGUOUS"]
    assert not view.flags.writeable
    assert np.array_equal(view[:8], scipy_digamma(np.arange(1.0, 9.0)))


def test_prefix_survives_growth_unmutated():
    """Growth never invalidates or mutates prefixes already handed out.

    An estimator may hold a prefix while another caller grows the shared
    table; if growth reallocated in place, that prefix would dangle or
    silently change values.  Growth must instead rebind a fresh array,
    leaving the old one intact byte for byte.
    """
    table = DigammaTable(initial=8)
    view = table.prefix(8)
    snapshot = view.copy()
    table.prefix(10_000)  # forces several doublings
    assert table.size >= 10_000
    assert np.array_equal(view, snapshot)  # old prefix: same values
    assert not view.flags.writeable  # ...and still read-only
    grown = table.prefix(10_000)
    assert grown is not view  # growth rebound, not resized
    assert np.array_equal(grown[: view.size], snapshot)


def test_value_rejects_non_positive():
    table = DigammaTable(initial=4)
    with pytest.raises(ValueError):
        table.value(0)
    with pytest.raises(ValueError):
        DigammaTable(initial=0)


def test_values_empty_input():
    table = DigammaTable(initial=4)
    out = table.values(np.empty(0, dtype=np.int64))
    assert out.size == 0


def test_shared_table_is_a_singleton():
    assert shared_digamma_table() is shared_digamma_table()


def test_digamma_direct_is_plain_scipy():
    ns = np.array([1.0, 2.5, 7.0])
    assert np.array_equal(digamma_direct(ns), scipy_digamma(ns))


def _direct_digamma_mi(x, y, k, algorithm):
    """KSG estimate with every digamma evaluated directly by scipy."""
    knn = chebyshev_knn_bruteforce(x, y, k)
    m = x.size
    if algorithm == 2:
        n_x = np.maximum(marginal_counts(x, knn.eps_x, strict=False), 1)
        n_y = np.maximum(marginal_counts(y, knn.eps_y, strict=False), 1)
        psi_sum = np.asarray(digamma_direct(n_x) + digamma_direct(n_y), dtype=np.float64)
        psi_k = float(digamma_direct(k))
        return psi_k - 1.0 / k - float(psi_sum.sum() / m) + float(digamma_direct(m))
    n_x = marginal_counts(x, knn.kth_distance, strict=True)
    n_y = marginal_counts(y, knn.kth_distance, strict=True)
    psi_sum = np.asarray(digamma_direct(n_x + 1) + digamma_direct(n_y + 1), dtype=np.float64)
    return float(digamma_direct(k)) - float(psi_sum.sum() / m) + float(digamma_direct(m))


@pytest.mark.parametrize("algorithm", [1, 2])
def test_estimator_identical_with_and_without_table(algorithm, correlated_gaussian):
    """The table never changes an estimate: exact float equality."""
    x, y = correlated_gaussian
    estimator = KSGEstimator(k=4, algorithm=algorithm, backend="bruteforce")
    assert estimator.mi(x, y) == _direct_digamma_mi(x, y, 4, algorithm)
