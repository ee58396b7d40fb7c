"""Collection-level batched stage-1 screening (the cascade's fast path).

The per-pair screen :func:`repro.analysis.cascade.fft_screen_score`
rebuilds both series' FFT spectra, rolling moments and normalized MASS
queries for *every* pair, so across an all-pairs scan each series' O(n)
state is recomputed O(N) times -- pure quadratic waste, since none of
it depends on the partner series.  This module hoists the per-series
work out of the pair loop, MASS-style (one series FFT reused across
every query it will ever meet):

* :class:`ScreenGeometry` freezes the shared shape of one collection's
  screen -- series length, window, delay band, probe count -- so every
  derived quantity (padded FFT size, band slice lengths, probe
  positions) is computed once and agreed on by builders and kernels.
* :func:`build_screen_state` precomputes, per series, everything the
  screen needs from that series alone: the zero-padded delay-band
  blocks with their rolling moments for the windowed-PCC scan, and the
  padded rfft spectrum, normalized query spectra and rolling window
  sigmas for the MASS probes.
* :func:`batched_screen_scores` screens a *block* of pairs in chunks
  of at most :data:`_CELL_BUDGET` cells per working array (about 9
  pairs of a 400-sample, 17-delay geometry).  Per chunk it runs one
  stacked gather per state field, one row-wise cumulative sum over the
  band-block cross products (the cross moment is the only per-pair
  rolling sum left) and one irfft over the spectra products, all in a
  dozen buffers allocated once per call and written in place.  The
  kernel is memory-bound, so small chunks that stay in cache beat one
  block-wide pass, and a call's memory is a few MB whatever the block
  size; the caller's block (``config.screen_block``) only sets how many
  pairs one pool task carries.

Bit-exactness is the contract, not an aspiration: every arithmetic step
replays the reference's expressions on the reference's floats -- the
roll-sum recipe of :func:`repro.baselines.pearson.sliding_pcc_band`,
the distance conversion of
:func:`repro.baselines.mass.mass_distance_profile`, even the Python
scalar ``1.0 - float(d) ** 2 / (2.0 * m)`` tail -- and row-wise numpy
operations (``cumsum`` along the last axis, ``irfft(axis=1)``) are
per-row identical to their 1-D forms, so every returned score is
bit-identical to ``fft_screen_score`` on the same pair, at every chunk
and block size (TY121 gate, asserted by the
tier-1 suite and by the bench before any speedup is recorded).  A
geometry the reference would abstain on (window < 2, series shorter
than the window) abstains here identically: every score is ``inf`` and
no pair is pruned.  So does a pair with a non-finite sample in either
series: its state is all NaN and its score ``inf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._types import FloatArray
from repro.baselines.mass import mass_fft_size
from repro.baselines.pearson import roll_sum_rows

__all__ = [
    "ScreenGeometry",
    "SeriesScreenState",
    "build_screen_state",
    "build_screen_states",
    "batched_screen_scores",
    "screen_state_width",
    "pack_screen_state",
    "unpack_screen_state",
]

#: Largest number of cells one chunk of a pair block holds in a working
#: array, counted on the largest per-pair array: the ``(rows, n + 1)``
#: cumulative sums of the cross moment, or the ``(probes, fft_size)``
#: inverse FFT.  Each working array of a chunk then stays within 512 kB
#: and all of them together within a few MB, so the memory-bound kernel
#: runs in cache at any block size; a pair above the budget is screened
#: alone.
_CELL_BUDGET = 1 << 16


@dataclass(frozen=True)
class ScreenGeometry:
    """Shared shape parameters of one collection's stage-1 screen.

    Every series in a cascade collection shares a length, so the screen
    window, delay band and probe layout -- and everything derived from
    them -- are collection-wide constants.  Freezing them in one value
    keeps the state builder, the batched kernels and the on-disk cache
    (:meth:`repro.analysis.store.SeriesStore.screen_states`) in exact
    agreement about array shapes.

    Attributes:
        length: shared series length ``n``.
        window: screen window size ``m``.
        td_max: largest |delay| of the PCC band.
        mass_probes: number of MASS query positions (evenly spaced).
    """

    length: int
    window: int
    td_max: int
    mass_probes: int = 3

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.td_max < 0:
            raise ValueError(f"td_max must be >= 0, got {self.td_max}")
        if self.mass_probes < 0:
            raise ValueError(f"mass_probes must be >= 0, got {self.mass_probes}")

    @property
    def abstains(self) -> bool:
        """Whether the reference screen can produce no evidence here.

        ``fft_screen_score`` raises on ``window < 2`` (the caller's
        try/except abstains) and returns ``inf`` when no window fits;
        both cases map to all-``inf`` batched scores.
        """
        return self.window < 2 or self.length < self.window

    @property
    def band(self) -> List[int]:
        """The PCC delay band ``[-td_max, td_max]``, reference order."""
        return list(range(-self.td_max, self.td_max + 1))

    @property
    def rows(self) -> int:
        """Rows of the band block (one per delay)."""
        return 2 * self.td_max + 1

    @property
    def out_width(self) -> int:
        """Window positions at delay 0: ``n - m + 1`` (requires no abstain)."""
        return self.length - self.window + 1

    @property
    def fft_size(self) -> int:
        """Padded rfft size of the MASS convolution (power of two)."""
        return mass_fft_size(self.length, self.window)

    @property
    def spectrum_bins(self) -> int:
        """Complex bins of an rfft at :attr:`fft_size`."""
        return self.fft_size // 2 + 1

    def band_lengths(self) -> List[int]:
        """Valid sample count of each band row (reference ``lengths``)."""
        n = self.length
        return [max(0, min(n, n - d) - max(0, -d)) for d in self.band]

    def band_out_lengths(self) -> List[int]:
        """Valid window positions of each band row (reference trim)."""
        return [max(0, length - self.window + 1) for length in self.band_lengths()]

    def valid_mask(self) -> np.ndarray:
        """Bool ``(rows, out_width)`` mask of in-range window positions.

        Positions past a row's ``out_length`` cover zero padding; the
        reference trims them away, the batched kernel masks them out.
        """
        mask = np.zeros((self.rows, self.out_width), dtype=bool)
        for j, out_length in enumerate(self.band_out_lengths()):
            mask[j, :out_length] = True
        return mask

    def probe_positions(self) -> np.ndarray:
        """MASS query start positions, the reference's ``linspace`` grid."""
        return np.linspace(0, self.length - self.window, self.mass_probes).astype(int)

    def key(self) -> Tuple[int, int, int, int]:
        """Cache key of this geometry (see the store's screen cache)."""
        return (self.length, self.window, self.td_max, self.mass_probes)


@dataclass(frozen=True)
class SeriesScreenState:
    """Everything the stage-1 screen needs from one series alone.

    Both roles are precomputed because an all-pairs scan uses every
    series as the pair's ``x`` side (band block ``xs``, query spectra)
    and as its ``y`` side (band block ``ys``, series spectrum, rolling
    sigmas) about equally often.

    Attributes:
        xs: zero-padded x-side band block, shape ``(rows, n)``.
        ys: zero-padded y-side band block, shape ``(rows, n)``.
        sx: rolling window sums of ``xs``, shape ``(rows, out_width)``.
        sy: rolling window sums of ``ys``.
        px: clamped x variance term ``max(sxx - sx*sx/m, 0)``.
        py: clamped y variance term.
        spectrum: padded rfft of the series (MASS y side), ``(bins,)``.
        query_spectra: padded rfft of each reversed normalized query
            (MASS x side), shape ``(mass_probes, bins)``; zero rows for
            degenerate probes.
        query_degenerate: per-probe flag for zero-variance queries
            (their profile is the constant ``sqrt(2m)``).
        sigma: rolling window standard deviations of the series (MASS
            y side), shape ``(out_width,)``.
        sigma_ok: the reference's ``sigma > 1e-12`` validity mask.
        msig_safe: ``m * sigma`` with invalid entries replaced by 1.0,
            the safe divisor of the batched distance conversion.
    """

    xs: FloatArray
    ys: FloatArray
    sx: FloatArray
    sy: FloatArray
    px: FloatArray
    py: FloatArray
    spectrum: np.ndarray
    query_spectra: np.ndarray
    query_degenerate: np.ndarray
    sigma: FloatArray
    sigma_ok: np.ndarray
    msig_safe: FloatArray


def _empty_state(geometry: ScreenGeometry) -> SeriesScreenState:
    """The all-abstaining placeholder for unusable geometries."""
    empty = np.empty((0, 0))
    return SeriesScreenState(
        xs=empty, ys=empty, sx=empty, sy=empty, px=empty, py=empty,
        spectrum=np.empty(0, dtype=np.complex128),
        query_spectra=np.empty((0, 0), dtype=np.complex128),
        query_degenerate=np.empty(0, dtype=bool),
        sigma=np.empty(0), sigma_ok=np.empty(0, dtype=bool), msig_safe=np.empty(0),
    )


def build_screen_state(values: FloatArray, geometry: ScreenGeometry) -> SeriesScreenState:
    """Precompute one series' screen state (both pair roles).

    Every array is produced by the reference implementations'
    own expressions on the same float64 inputs, so any pair state
    assembled from two of these states reproduces the per-pair screen
    bit-for-bit.

    Args:
        values: the series, length ``geometry.length``.
        geometry: the collection's screen geometry.

    Returns:
        The series' :class:`SeriesScreenState` (empty placeholders when
        the geometry abstains; all NaN when the series holds a
        non-finite sample, which makes every pair it joins abstain).
    """
    series = np.asarray(values, dtype=np.float64).ravel()
    if series.size != geometry.length:
        raise ValueError(
            f"series length {series.size} does not match geometry length {geometry.length}"
        )
    if geometry.abstains:
        return _empty_state(geometry)
    if not np.isfinite(series).all():
        # An all-NaN state marks the series for batched_screen_scores, and
        # NaN arithmetic raises no floating-point warnings, unlike inf.
        series = np.full(geometry.length, np.nan)
    n, m = geometry.length, geometry.window

    # -- windowed-PCC band blocks (sliding_pcc_band's construction) ---- #
    rows = geometry.rows
    lengths = geometry.band_lengths()
    xs = np.zeros((rows, n))
    ys = np.zeros((rows, n))
    for j, d in enumerate(geometry.band):
        lo = max(0, -d)
        length = lengths[j]
        if length:
            xs[j, :length] = series[lo : lo + length]
            ys[j, :length] = series[lo + d : lo + d + length]
    sx = roll_sum_rows(xs, m)
    sxx = roll_sum_rows(xs * xs, m)
    px = np.maximum(sxx - sx * sx / m, 0.0)
    sy = roll_sum_rows(ys, m)
    syy = roll_sum_rows(ys * ys, m)
    py = np.maximum(syy - sy * sy / m, 0.0)

    # -- MASS series side (mass_distance_profile's rolling stats) ------ #
    size = geometry.fft_size
    spectrum = np.fft.rfft(series, size)
    cumsum = np.concatenate([[0.0], np.cumsum(series)])
    cumsum2 = np.concatenate([[0.0], np.cumsum(series * series)])
    seg_sum = cumsum[m:] - cumsum[:-m]
    seg_sum2 = cumsum2[m:] - cumsum2[:-m]
    mu = seg_sum / m
    var = np.maximum(seg_sum2 / m - mu * mu, 0.0)
    sigma = np.sqrt(var)
    sigma_ok = sigma > 1e-12
    msig_safe = np.where(sigma_ok, m * sigma, 1.0)

    # -- MASS query side: one spectrum per probe position -------------- #
    probes = geometry.probe_positions()
    query_spectra = np.zeros((geometry.mass_probes, geometry.spectrum_bins), dtype=np.complex128)
    query_degenerate = np.zeros(geometry.mass_probes, dtype=bool)
    for p, s in enumerate(probes):
        query = series[s : s + m]
        sigma_q = query.std()
        if sigma_q == 0.0:
            # The reference short-circuits to the constant sqrt(2m)
            # profile before normalizing, so no spectrum is needed.
            query_degenerate[p] = True
            continue
        q_norm = (query - query.mean()) / sigma_q
        query_spectra[p] = np.fft.rfft(q_norm[::-1], size)

    return SeriesScreenState(
        xs=xs, ys=ys, sx=sx, sy=sy, px=px, py=py,
        spectrum=spectrum, query_spectra=query_spectra,
        query_degenerate=query_degenerate,
        sigma=sigma, sigma_ok=sigma_ok, msig_safe=msig_safe,
    )


def build_screen_states(
    series: Dict[str, FloatArray], geometry: ScreenGeometry
) -> Dict[str, SeriesScreenState]:
    """Screen states for a whole collection, keyed like ``series``."""
    return {name: build_screen_state(values, geometry) for name, values in series.items()}


def _state_layout(geometry: ScreenGeometry) -> List[Tuple[str, int, int]]:
    """Field layout of one packed state row: (field, offset, float64 slots).

    Complex fields come first so their byte offsets are multiples of 16
    (rows are padded to an even slot count), letting a memory-mapped row
    be re-viewed as complex128 without a copy.  Bool fields travel as
    0.0/1.0 floats.
    """
    rows, n = geometry.rows, geometry.length
    out_w, probes, bins = geometry.out_width, geometry.mass_probes, geometry.spectrum_bins
    sizes = [
        ("spectrum", 2 * bins),
        ("query_spectra", probes * 2 * bins),
        ("xs", rows * n),
        ("ys", rows * n),
        ("sx", rows * out_w),
        ("sy", rows * out_w),
        ("px", rows * out_w),
        ("py", rows * out_w),
        ("sigma", out_w),
        ("msig_safe", out_w),
        ("sigma_ok", out_w),
        ("query_degenerate", probes),
    ]
    layout = []
    offset = 0
    for field_name, size in sizes:
        layout.append((field_name, offset, size))
        offset += size
    return layout


def screen_state_width(geometry: ScreenGeometry) -> int:
    """Float64 slots of one packed state row (padded to an even count)."""
    if geometry.abstains:
        return 0
    _, offset, size = _state_layout(geometry)[-1]
    total = offset + size
    return total + (total % 2)


def pack_screen_state(
    state: SeriesScreenState, geometry: ScreenGeometry, out: FloatArray
) -> None:
    """Flatten one state into a float64 row (the store cache's format).

    The packing is lossless: float64 fields are copied verbatim,
    complex fields as their real/imaginary float64 pairs, bool masks as
    0.0/1.0 -- so :func:`unpack_screen_state` reproduces every float of
    the in-memory state bit-for-bit.
    """
    if geometry.abstains:
        return
    for field_name, offset, size in _state_layout(geometry):
        value = getattr(state, field_name)
        if np.iscomplexobj(value):
            flat = np.ascontiguousarray(value).view(np.float64).ravel()
        else:
            flat = np.asarray(value, dtype=np.float64).ravel()
        out[offset : offset + size] = flat


def unpack_screen_state(row: FloatArray, geometry: ScreenGeometry) -> SeriesScreenState:
    """Rebuild a state from a packed row, zero-copy where possible.

    Float and complex fields are *views* of ``row`` (a memory-mapped
    cache row stays memory-mapped); only the two small bool masks are
    materialized.
    """
    if geometry.abstains:
        return _empty_state(geometry)
    rows, n = geometry.rows, geometry.length
    out_w, probes, bins = geometry.out_width, geometry.mass_probes, geometry.spectrum_bins
    fields: Dict[str, np.ndarray] = {}
    for field_name, offset, size in _state_layout(geometry):
        fields[field_name] = row[offset : offset + size]
    return SeriesScreenState(
        xs=fields["xs"].reshape(rows, n),
        ys=fields["ys"].reshape(rows, n),
        sx=fields["sx"].reshape(rows, out_w),
        sy=fields["sy"].reshape(rows, out_w),
        px=fields["px"].reshape(rows, out_w),
        py=fields["py"].reshape(rows, out_w),
        spectrum=fields["spectrum"].view(np.complex128),
        query_spectra=fields["query_spectra"].view(np.complex128).reshape(probes, bins),
        query_degenerate=fields["query_degenerate"] != 0.0,
        sigma=fields["sigma"],
        sigma_ok=fields["sigma_ok"] != 0.0,
        msig_safe=fields["msig_safe"],
    )


def _pair_cells(geometry: ScreenGeometry) -> int:
    """Cells one pair takes in the largest working array of the kernel."""
    return max(
        geometry.rows * (geometry.length + 1), geometry.mass_probes * geometry.fft_size
    )


def batched_screen_scores(
    states: Sequence[SeriesScreenState],
    pair_indices: Sequence[Tuple[int, int]],
    geometry: ScreenGeometry,
) -> List[float]:
    """Stage-1 screen scores of a block of pairs, batched.

    The block is screened in chunks of at most :data:`_CELL_BUDGET`
    cells per working array, so any block size runs in the same few MB
    and scores identically.

    Args:
        states: per-series screen states (any indexable collection).
        pair_indices: ``(i, j)`` index pairs into ``states``; series
            ``i`` plays the reference's ``x`` role, ``j`` its ``y``.
        geometry: the geometry all states were built with.

    Returns:
        One score per pair, in input order, each bit-identical to
        ``fft_screen_score(series_i, series_j, geometry.window,
        geometry.td_max, geometry.mass_probes)`` -- including the
        ``inf`` abstention when the geometry fits no window or either
        series holds a non-finite sample.
    """
    if geometry.abstains or not pair_indices:
        return [float("inf")] * len(pair_indices)
    # build_screen_state fills a non-finite series' state with NaN, so
    # the first sample of its delay-0 band row marks it.
    finite: Dict[int, bool] = {}
    for pair in pair_indices:
        for k in pair:
            if k not in finite:
                finite[k] = not np.isnan(states[k].xs[geometry.td_max, 0])
    n, m = geometry.length, geometry.window
    rows, out_w = geometry.rows, geometry.out_width
    probes, bins = geometry.mass_probes, geometry.spectrum_bins
    block = len(pair_indices)
    chunk = min(block, max(1, _CELL_BUDGET // _pair_cells(geometry)))
    # Window positions past a band row's valid prefix cover zero padding
    # the reference never sees; they stay at the reference's 0.0 floor.
    valid = geometry.valid_mask()
    flat = float(np.sqrt(2.0 * m))

    # Allocated once per call and reused by every chunk, written in place.
    buffers = (
        np.empty((chunk, rows, n)),
        np.empty((chunk, rows, n)),
        np.zeros((chunk, rows, n + 1)),  # cumsums go to [..., 1:]; column 0 stays 0
        np.empty((chunk, rows, out_w)),
        np.empty((chunk, rows, out_w)),
        np.empty((chunk, rows, out_w)),
        np.empty((chunk, rows, out_w), dtype=bool),
        np.empty((chunk, bins), dtype=np.complex128),
        np.empty((chunk, probes, bins), dtype=np.complex128),
        np.empty((chunk, out_w)),
        np.empty((chunk, out_w), dtype=bool),
        np.empty((chunk, probes), dtype=bool),
    )
    pcc_best = np.empty(block)
    mins = np.empty((block, probes))
    maxs = np.empty((block, probes))

    for lo in range(0, block, chunk):
        pairs = pair_indices[lo : lo + chunk]
        hi = lo + len(pairs)
        left = [states[i] for i, _ in pairs]
        right = [states[j] for _, j in pairs]
        xs, ys, sums, cov, xm, ym, ok, spectra, products, msig, sigma_ok, degenerate = (
            buffer[: len(pairs)] for buffer in buffers
        )

        # -- windowed PCC: only the cross moment is per-pair ----------- #
        np.stack([s.xs for s in left], out=xs)
        np.stack([s.ys for s in right], out=ys)
        np.multiply(xs, ys, out=xs)
        np.cumsum(xs, axis=-1, out=sums[:, :, 1:])
        np.subtract(sums[:, :, m:], sums[:, :, :-m], out=cov)
        np.stack([s.sx for s in left], out=xm)
        np.stack([s.sy for s in right], out=ym)
        np.multiply(xm, ym, out=xm)
        np.divide(xm, m, out=xm)
        np.subtract(cov, xm, out=cov)
        np.stack([s.px for s in left], out=xm)
        np.stack([s.py for s in right], out=ym)
        np.multiply(xm, ym, out=xm)
        np.sqrt(xm, out=xm)
        np.greater(xm, 1e-12, out=ok)
        np.logical_and(ok, valid, out=ok)
        np.divide(cov, xm, out=cov, where=ok)
        np.copyto(cov, 0.0, where=~ok)
        np.abs(cov, out=cov)
        # max |clip(r)| == min(max |r|, 1): clipping commutes with max.
        np.minimum(cov.max(axis=(1, 2)), 1.0, out=pcc_best[lo:hi])

        # -- MASS probes: one irfft over the chunk's (pair, probe) rows - #
        if probes:
            np.stack([s.spectrum for s in right], out=spectra)
            np.stack([s.query_spectra for s in left], out=products)
            # Reference operand order: fft(series) * fft(query).
            np.multiply(spectra[:, None, :], products, out=products)
            qt = np.fft.irfft(products.reshape(-1, bins), geometry.fft_size, axis=1)
            qt = qt[:, m - 1 : n].reshape(len(pairs), probes, out_w)
            np.stack([s.msig_safe for s in right], out=msig)
            np.stack([s.sigma_ok for s in right], out=sigma_ok)
            np.divide(qt, msig[:, None, :], out=qt)
            np.subtract(1.0, qt, out=qt)
            np.multiply(2.0 * m, qt, out=qt)
            np.copyto(qt, 2.0 * m, where=~sigma_ok[:, None, :])
            # sqrt is monotone, so the extremes of the distance profile
            # are the square roots of the extremes of its squares.
            np.sqrt(np.maximum(qt.min(axis=2), 0.0), out=mins[lo:hi])
            np.sqrt(np.maximum(qt.max(axis=2), 0.0), out=maxs[lo:hi])
            np.stack([s.query_degenerate for s in left], out=degenerate)
            mins[lo:hi][degenerate] = flat
            maxs[lo:hi][degenerate] = flat

    scores: List[float] = []
    for b, (i, j) in enumerate(pair_indices):
        if not (finite[i] and finite[j]):
            scores.append(float("inf"))
            continue
        best = float(pcc_best[b])
        # The reference's Python-scalar tail, probe by probe; max()
        # ignores NaN exactly as the per-pair accumulation does.
        for p in range(probes):
            r_hi = 1.0 - float(mins[b, p]) ** 2 / (2.0 * m)
            r_lo = 1.0 - float(maxs[b, p]) ** 2 / (2.0 * m)
            best = max(best, abs(r_hi), abs(r_lo))
        scores.append(best)
    return scores
