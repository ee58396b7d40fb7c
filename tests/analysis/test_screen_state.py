"""Tests for the batched collection-level stage-1 screen.

The contract under test -- the TY121 bit-exactness gate of
``repro.analysis.screen_state``: every score produced by
``batched_screen_scores`` is bit-identical to the per-pair reference
``repro.analysis.cascade.fft_screen_score`` on the same pair, at every
block size and across the kernel's internal chunk boundaries, for odd
collection sizes, through the pack/unpack cache format, and in the
abstaining short-series geometries.
"""

import numpy as np
import pytest

import repro.analysis.screen_state as screen_state
from repro.analysis.cascade import cascade_scan, fft_screen_score
from repro.analysis.screen_state import (
    ScreenGeometry,
    batched_screen_scores,
    build_screen_state,
    build_screen_states,
    pack_screen_state,
    screen_state_width,
    unpack_screen_state,
)
from repro.core.config import TycosConfig


def _collection(count, n, seed=31):
    """A mixed collection: coupled pairs, noise, and degenerate series."""
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(size=n))
    series = {}
    for i in range(count):
        kind = i % 4
        if kind == 0:
            series[f"s{i}"] = np.roll(base, i) + rng.normal(scale=0.1, size=n)
        elif kind == 1:
            series[f"s{i}"] = rng.normal(size=n)
        elif kind == 2:
            series[f"s{i}"] = -base + rng.normal(scale=0.05, size=n)
        else:
            series[f"s{i}"] = np.ones(n)  # zero-variance: degenerate probes
    return series


def _all_pairs(names):
    return [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]


def _reference_scores(series, names, pairs, geometry):
    return [
        fft_screen_score(
            series[names[i]],
            series[names[j]],
            geometry.window,
            geometry.td_max,
            geometry.mass_probes,
        )
        for i, j in pairs
    ]


class TestBitExactness:
    """The gate: batched scores == per-pair fft_screen_score, bit for bit."""

    @pytest.mark.parametrize("count", [6, 7])  # even and odd collections
    def test_all_pairs_match_reference(self, count):
        series = _collection(count, n=160)
        names = list(series)
        geometry = ScreenGeometry(length=160, window=48, td_max=5)
        states = [build_screen_state(series[name], geometry) for name in names]
        pairs = _all_pairs(names)
        got = batched_screen_scores(states, pairs, geometry)
        want = _reference_scores(series, names, pairs, geometry)
        assert got == want

    @pytest.mark.parametrize("block", [1, 3, 7, 100])
    def test_block_size_never_changes_scores(self, block):
        # Block sizes straddling the boundary (the 21-pair workload splits
        # unevenly at 3 and 7, and 100 covers everything in one block)
        # must all produce the identical score list.
        series = _collection(7, n=140)
        names = list(series)
        geometry = ScreenGeometry(length=140, window=40, td_max=4)
        states = [build_screen_state(series[name], geometry) for name in names]
        pairs = _all_pairs(names)
        whole = batched_screen_scores(states, pairs, geometry)
        blocked = []
        for start in range(0, len(pairs), block):
            blocked.extend(
                batched_screen_scores(states, pairs[start : start + block], geometry)
            )
        assert blocked == whole
        assert whole == _reference_scores(series, names, pairs, geometry)

    def test_degenerate_series_in_a_block(self):
        # All-constant series exercise both the sigma_ok=False window mask
        # and the degenerate-query constant-profile branch.
        n = 120
        rng = np.random.default_rng(5)
        series = {
            "flat": np.ones(n),
            "zero": np.zeros(n),
            "noise": rng.normal(size=n),
        }
        names = list(series)
        geometry = ScreenGeometry(length=n, window=32, td_max=3)
        states = [build_screen_state(series[name], geometry) for name in names]
        pairs = _all_pairs(names)
        got = batched_screen_scores(states, pairs, geometry)
        assert got == _reference_scores(series, names, pairs, geometry)

    def test_no_mass_probes_is_pcc_only(self):
        series = _collection(4, n=100)
        names = list(series)
        geometry = ScreenGeometry(length=100, window=30, td_max=2, mass_probes=0)
        states = [build_screen_state(series[name], geometry) for name in names]
        pairs = _all_pairs(names)
        got = batched_screen_scores(states, pairs, geometry)
        assert got == _reference_scores(series, names, pairs, geometry)


class TestChunkBoundaries:
    """Chunks of a pair block score exactly like the per-pair reference.

    The cell budget is shrunk so a short block spans several chunks; the
    degenerate pairs sit on both sides of a chunk boundary.
    """

    N = 120

    def _series(self):
        rng = np.random.default_rng(17)
        walk = np.cumsum(rng.normal(size=self.N))
        stretch = rng.normal(size=self.N)
        stretch[40:90] = 2.5  # sigma_ok false and denom <= 1e-12 inside
        return {
            "walk": walk,
            "stretch": stretch,
            "flat": np.ones(self.N),  # every MASS probe is degenerate
            "lagged": np.roll(walk, 3) + rng.normal(scale=0.1, size=self.N),
            "noise": rng.normal(size=self.N),
        }

    # With 3 pairs per chunk, "stretch" pairs sit at positions 2 | 3 and
    # 5 | 6 (both pair roles), and the ten pairs end in a partial chunk.
    PAIRS = [
        (0, 3), (4, 0), (0, 1), (1, 4), (3, 2),
        (1, 2), (2, 1), (4, 3), (2, 0), (3, 4),
    ]

    def _geometry(self):
        return ScreenGeometry(length=self.N, window=32, td_max=3)

    @pytest.mark.parametrize("pairs_per_chunk", [1, 3])
    def test_chunks_match_reference(self, monkeypatch, pairs_per_chunk):
        geometry = self._geometry()
        budget = pairs_per_chunk * screen_state._pair_cells(geometry)
        monkeypatch.setattr(screen_state, "_CELL_BUDGET", budget)
        series = self._series()
        names = list(series)
        states = [build_screen_state(series[name], geometry) for name in names]
        got = batched_screen_scores(states, self.PAIRS, geometry)
        assert got == _reference_scores(series, names, self.PAIRS, geometry)

    def test_pair_above_budget_is_screened_alone(self, monkeypatch):
        # A budget below one pair's cells still screens (chunk = 1), here
        # on a geometry whose MASS array is the larger per-pair one.
        geometry = ScreenGeometry(length=self.N, window=60, td_max=0, mass_probes=4)
        assert geometry.mass_probes * geometry.fft_size > geometry.rows * (self.N + 1)
        monkeypatch.setattr(screen_state, "_CELL_BUDGET", 1)
        series = self._series()
        names = list(series)
        states = [build_screen_state(series[name], geometry) for name in names]
        got = batched_screen_scores(states, self.PAIRS, geometry)
        assert got == _reference_scores(series, names, self.PAIRS, geometry)

    def test_degenerate_cases_are_present(self):
        # Guard the fixture: the stretch and flat series really take the
        # masked branches the boundary tests are about.
        geometry = self._geometry()
        series = self._series()
        stretch = build_screen_state(series["stretch"], geometry)
        walk = build_screen_state(series["walk"], geometry)
        assert not stretch.sigma_ok.all()
        assert (np.sqrt(stretch.px * walk.py) <= 1e-12).any()
        assert (np.sqrt(walk.px * stretch.py) <= 1e-12).any()
        assert build_screen_state(series["flat"], geometry).query_degenerate.all()


class TestAbstention:
    def test_short_series_abstain_with_inf(self):
        # Series shorter than the window: the reference returns inf for
        # every pair, and so must the whole batched block.
        series = {"a": np.arange(5.0), "b": np.arange(5.0)[::-1], "c": np.ones(5)}
        geometry = ScreenGeometry(length=5, window=50, td_max=2)
        assert geometry.abstains
        states = build_screen_states(series, geometry)
        pairs = [(0, 1), (0, 2), (1, 2)]
        got = batched_screen_scores(list(states.values()), pairs, geometry)
        assert got == [float("inf")] * 3
        assert got == _reference_scores(series, list(series), pairs, geometry)

    def test_window_below_two_abstains(self):
        geometry = ScreenGeometry(length=50, window=1, td_max=2)
        assert geometry.abstains
        states = build_screen_states({"a": np.ones(50), "b": np.ones(50)}, geometry)
        got = batched_screen_scores(list(states.values()), [(0, 1)], geometry)
        assert got == [float("inf")]

    def test_empty_pair_block(self):
        geometry = ScreenGeometry(length=50, window=10, td_max=1)
        assert batched_screen_scores([], [], geometry) == []


class TestPackedFormat:
    def test_pack_unpack_round_trips_scores(self):
        series = _collection(5, n=130)
        names = list(series)
        geometry = ScreenGeometry(length=130, window=36, td_max=3)
        width = screen_state_width(geometry)
        fresh = [build_screen_state(series[name], geometry) for name in names]
        matrix = np.zeros((len(names), width), dtype=np.float64)
        for row, state in enumerate(fresh):
            pack_screen_state(state, geometry, matrix[row])
        unpacked = [unpack_screen_state(matrix[row], geometry) for row in range(len(names))]
        pairs = _all_pairs(names)
        assert batched_screen_scores(unpacked, pairs, geometry) == batched_screen_scores(
            fresh, pairs, geometry
        )

    def test_packed_fields_round_trip_bitwise(self):
        geometry = ScreenGeometry(length=90, window=20, td_max=2)
        state = build_screen_state(
            np.cumsum(np.random.default_rng(8).normal(size=90)), geometry
        )
        row = np.zeros(screen_state_width(geometry))
        pack_screen_state(state, geometry, row)
        back = unpack_screen_state(row, geometry)
        assert np.array_equal(back.xs, state.xs)
        assert np.array_equal(back.spectrum, state.spectrum)
        assert np.array_equal(back.query_spectra, state.query_spectra)
        assert np.array_equal(back.query_degenerate, state.query_degenerate)
        assert np.array_equal(back.sigma_ok, state.sigma_ok)
        assert np.array_equal(back.msig_safe, state.msig_safe)

    def test_abstaining_geometry_has_zero_width(self):
        assert screen_state_width(ScreenGeometry(length=5, window=50, td_max=2)) == 0


class TestGeometryValidation:
    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError, match="length"):
            ScreenGeometry(length=0, window=10, td_max=1)
        with pytest.raises(ValueError, match="td_max"):
            ScreenGeometry(length=10, window=5, td_max=-1)
        with pytest.raises(ValueError, match="mass_probes"):
            ScreenGeometry(length=10, window=5, td_max=1, mass_probes=-1)

    def test_rejects_mismatched_series_length(self):
        geometry = ScreenGeometry(length=100, window=10, td_max=1)
        with pytest.raises(ValueError, match="does not match"):
            build_screen_state(np.ones(99), geometry)


class TestCascadeIntegration:
    """The batched stage 1 slots into cascade_scan without changing it."""

    def _config(self):
        return TycosConfig(
            sigma=0.5, s_min=24, s_max=48, td_max=6, jitter=1e-6, seed=1,
            significance_permutations=5,
        )

    def test_block_size_never_changes_the_report(self):
        series = _collection(6, n=240, seed=9)
        reports = [
            cascade_scan(series, self._config(), screen_window=120, screen_block=block)
            for block in (1, 4, 256)
        ]
        first = reports[0]
        for report in reports[1:]:
            assert report.findings == first.findings
            assert report.skipped == first.skipped
            assert report.pairs_pruned_fft == first.pairs_pruned_fft
            assert report.pairs_pruned_nmi == first.pairs_pruned_nmi

    def test_pooled_screen_matches_serial(self):
        series = _collection(6, n=240, seed=9)
        serial = cascade_scan(series, self._config(), screen_window=120)
        pooled = cascade_scan(
            series,
            self._config(),
            screen_window=120,
            screen_block=4,
            n_jobs=2,
            force_parallel=True,
        )
        assert pooled.findings == serial.findings
        assert pooled.skipped == serial.skipped
        assert pooled.pairs_pruned_fft == serial.pairs_pruned_fft

    def test_phase_seconds_recorded(self):
        series = _collection(4, n=240, seed=9)
        report = cascade_scan(series, self._config(), screen_window=120)
        assert set(report.phase_seconds) == {"screen", "search"}
        assert all(v >= 0.0 for v in report.phase_seconds.values())
        assert "phase screen" not in report.to_text()
        assert "phase screen" in report.to_text(include_timings=True)

    def test_rejects_bad_screen_block(self):
        series = _collection(4, n=240, seed=9)
        with pytest.raises(ValueError, match="screen_block"):
            cascade_scan(series, self._config(), screen_block=0)
