"""Stacked KSG scoring of many windows at once.

A TYCOS search scores tens of thousands of windows of a few dozen samples
each (paper Eq. 3 per window, Eq. 18 for the normalization).  Scored one
at a time, each window costs dozens of numpy calls on tiny arrays, so the
interpreter -- not the arithmetic -- sets the cost.  :func:`ksg_batch`
scores a whole batch of windows, of any delays, in a few stacked numpy
calls per distinct window size ``m``:

* the ``(W, m, m)`` ``|dx|``, ``|dy|`` and max-norm layers of the ``W``
  windows of that size, with an ``inf`` diagonal;
* one ``argpartition`` along the last axis and one gather for the k-NN
  rectangle extents ``eps_x`` / ``eps_y``;
* marginal counts by masked comparison against ``v_i - eps_i`` and
  ``v_i + eps_i``;
* one digamma-table gather and one ``axis=-1`` row sum;

and, for the whole batch at once, one ``bincount`` over (window, bin) ids
for the binned joint entropies.

Exactness: every result is bit-identical to the single-window path
(:meth:`repro.mi.ksg.KSGEstimator.mi` with the brute-force backend, and
:func:`repro.mi.entropy.binned_joint_entropy`), which stays the reference
and the test oracle:

* Windows are grouped by *exact* size, so every row handed to
  ``argpartition`` is the same length-``m`` buffer, with the same values
  and the same initial index order, that
  :func:`repro.mi.neighbors.chebyshev_knn_bruteforce` partitions; ties at
  the k-th distance are therefore resolved identically.  (Padding windows
  to a common size would change the buffers and hence the tie resolution.)
* A marginal count is the number of ``j`` with ``v_i - eps_i <= v_j <=
  v_i + eps_i``; the masked comparison uses the same two bounds, rounded
  the same way, that :func:`repro.mi.neighbors.marginal_counts` searches
  for, so the counts agree exactly -- including the boundary neighbour
  that rounding of those bounds can drop.
* Row sums along the contiguous last axis use the same pairwise summation
  as a 1-D ``sum``, and the only per-window call left is the sum of each
  window's nonzero ``p log p`` terms, so its summation order matches.

Memory: a size group is split into chunks of at most ``_CELL_BUDGET``
distance cells (one window per chunk when a single window exceeds it), so
a batch of ``s_max``-sized windows never holds more than a few tens of MB.
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence, Tuple

import numpy as np

from repro._types import FloatArray, IntArray
from repro.mi.digamma import shared_digamma_table
from repro.mi.entropy import default_bins

__all__ = ["ksg_batch"]

#: Largest number of ``(i, j)`` distance cells one stacked pass holds, per
#: layer.  At about 40 bytes per cell across the float64 layers, the
#: ``argpartition`` indices and the count masks, a pass stays near 10 MB;
#: a single window above the budget (m > 512) takes about 40 * m^2 bytes,
#: as the scalar path does.
_CELL_BUDGET = 1 << 18


def ksg_batch(
    x: FloatArray,
    y: FloatArray,
    windows: Sequence[Tuple[int, int, int]],
    k: int,
) -> Tuple[FloatArray, FloatArray, int]:
    """KSG mutual information and binned joint entropy of many windows.

    Args:
        x: the first series, 1-D float64.
        y: the second series, 1-D float64, same length as ``x``.
        windows: ``(start, size, delay)`` per window; window ``i`` pairs
            ``x[start : start + size]`` with
            ``y[start + delay : start + delay + size]``.  Every window must
            lie inside both series and hold at least 2 samples (the caller
            checks; out-of-range windows are not diagnosed here).
        k: configured neighbor count; a window of ``m`` samples uses
            ``min(k, m - 1)``, as :meth:`KSGEstimator.effective_k` does.

    Returns:
        ``(mi, entropy, passes)``: each window's raw KSG-2 estimate (nats)
        and plug-in binned joint entropy (nats), in input order, and the
        number of stacked passes the batch took.
    """
    # Sorted by size, each size group is one run of windows; its samples
    # are one run of the stacked sample array, sliced per pass.
    order = sorted(range(len(windows)), key=lambda i: windows[i][1])
    sizes = np.asarray([windows[i][1] for i in order])
    x_starts = np.asarray([windows[i][0] for i in order])
    delays = np.asarray([windows[i][2] for i in order])
    ends = np.cumsum(sizes)
    begins = ends - sizes
    x_index = np.repeat(x_starts - begins, sizes) + np.arange(int(ends[-1]))
    samples = np.stack((x[x_index], y[x_index + np.repeat(delays, sizes)]))

    mi = np.empty(len(order))
    passes = 0
    first = 0
    for m, group in groupby(sizes.tolist()):
        run = first + len(list(group))
        chunk = max(1, _CELL_BUDGET // (m * m))
        for lo in range(first, run, chunk):
            hi = min(lo + chunk, run)
            xy = samples[:, begins[lo] : ends[hi - 1]].reshape(2, hi - lo, m)
            mi[lo:hi] = _ksg_same_size(xy, k)
            passes += 1
        first = run
    entropy = _binned_entropies(samples, sizes, begins)
    out_mi = np.empty_like(mi)
    out_entropy = np.empty_like(entropy)
    out_mi[order] = mi
    out_entropy[order] = entropy
    return out_mi, out_entropy, passes


def _ksg_same_size(xy: FloatArray, k: int) -> FloatArray:
    """KSG-2 MI of ``W`` windows of ``m`` samples each, ``xy`` of shape
    ``(2, W, m)`` holding the x- and y-samples."""
    _, count, m = xy.shape
    k = min(k, m - 1)

    # -- k-NN geometry: layers[0] = max norm, [1] = |dx|, [2] = |dy| ---- #
    layers = np.empty((3, count, m, m))
    deltas = layers[1:]
    np.subtract(xy[..., :, None], xy[..., None, :], out=deltas)
    np.abs(deltas, out=deltas)
    np.maximum(layers[1], layers[2], out=layers[0])
    layers[0].reshape(count, m * m)[:, :: m + 1] = np.inf
    nearest = layers[0].argpartition(k - 1, axis=-1)[..., :k]
    # Flat cell ids of the neighbors, neighbor rank first, so the max over
    # the k neighbors combines whole (W, m) slabs instead of short rows.
    cell = nearest.transpose(2, 0, 1) + (np.arange(count * m) * m).reshape(count, m)
    eps = deltas.reshape(2, -1).take(cell.ravel(), axis=1).reshape(2, k, count, m).max(axis=1)

    # -- marginal counts n_x / n_y (self excluded, floored at 1) --------- #
    lower = xy - eps
    upper = xy + eps
    inside = xy[..., None, :] >= lower[..., :, None]
    inside &= xy[..., None, :] <= upper[..., :, None]
    counts = inside.sum(axis=-1) - 1
    np.maximum(counts, 1, out=counts)  # the psi(0) guard of KSGEstimator.mi_from_geometry

    # -- Eq. (2): psi(k) - 1/k - <psi(n_x) + psi(n_y)> + psi(m) ----------- #
    table = shared_digamma_table().prefix(m)
    psi = table[counts - 1]
    psi_sum = (psi[0] + psi[1]).sum(axis=-1)
    mi: FloatArray = float(table[k - 1]) - 1.0 / k - psi_sum / m + float(table[m - 1])
    return mi


def _binned_entropies(samples: FloatArray, sizes: IntArray, begins: IntArray) -> FloatArray:
    """Binned joint entropy of every window, each over its own range.

    ``samples`` is ``(2, L)``: window ``w`` holds ``sizes[w]`` x- and
    y-samples from column ``begins[w]`` on.  Every window's bins are laid
    out in one cell array, so one ``bincount`` fills all histograms.
    """
    count = sizes.size
    owner = np.repeat(np.arange(count), sizes)
    bins = np.asarray([default_bins(m) for m in sizes.tolist()])
    low = np.minimum.reduceat(samples, begins, axis=1)
    span = np.maximum.reduceat(samples, begins, axis=1) - low
    # A constant axis (span 0) has samples - low == 0, so any scale bins it at 0.
    scale = bins / np.where(span > 0, span, 1.0)
    idx = ((samples - low[:, owner]) * scale[:, owner]).astype(np.int64)
    np.minimum(idx, (bins - 1)[owner], out=idx)
    cells = bins * bins
    cell_ends = np.cumsum(cells)
    flat = idx[0] * bins[owner] + idx[1] + (cell_ends - cells)[owner]
    occupancy = np.bincount(flat, minlength=int(cell_ends[-1]))
    occupied = np.flatnonzero(occupancy)
    cell_owner = np.repeat(np.arange(count), cells)[occupied]
    p = occupancy[occupied] / sizes[cell_owner]
    terms = p * np.log(p)
    entropy = np.empty(count)
    begin = 0
    for w, end in enumerate(np.cumsum(np.bincount(cell_owner, minlength=count)).tolist()):
        entropy[w] = -(terms[begin:end].sum())
        begin = end
    return entropy
