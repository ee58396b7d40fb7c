"""Tests of the benchmark's graders, span arithmetic, metric names and verdicts.

Run from the repository root: ``python3 -m pytest tycosbench/tests``.
"""

import json
import re
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from compare import verdict
from layers import PER_LAYER
from run import _child_pids, stop_children
from spans import MissingTargetError, Span, Target, Tracer, check_accounting, self_times
from truth import grade_pairs, grade_windows

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")

PLANTED = [(100, 249, 20), (400, 549, -15)]


def test_windows_at_planted_delays_pass():
    grade = grade_windows([(110, 150, 20), (420, 470, -15)], PLANTED, min_recall=1.0)
    assert grade.failed == 0
    assert grade.recall == 1.0 and grade.precision == 1.0


def test_wrong_delay_window_fails():
    windows = [(110, 150, 20)] * 9 + [(420, 470, -15), (420, 470, -14)]
    grade = grade_windows(windows, PLANTED, min_recall=0.5)
    assert grade.failed == 1
    assert grade.precision == pytest.approx(10 / 11)
    assert "at another delay" in grade.problems[0]


def test_window_grazing_a_planted_span_is_background():
    # 8 of 32 samples inside (400, 549, -15): background, not a wrong delay.
    grade = grade_windows([(110, 150, 20)] * 9 + [(542, 573, -7)], PLANTED, 0.5)
    assert grade.failed == 0 and grade.precision == pytest.approx(0.9)


def test_background_windows_count_against_precision():
    hits = [(110, 150, 20), (420, 470, -15)]
    few = grade_windows(hits * 5 + [(300, 340, 20)], PLANTED, 1.0, min_precision=0.8)
    assert few.failed == 0 and few.precision == pytest.approx(10 / 11)
    many = grade_windows(hits + [(300, 340, 20)], PLANTED, 1.0, min_precision=0.8)
    assert many.failed == 1 and "background" in many.problems[0]


def test_low_recall_fails():
    grade = grade_windows([(110, 150, 20)], PLANTED, min_recall=1.0)
    assert grade.failed == 1 and grade.recall == 0.5


def test_missing_planted_pair_fails():
    planted = [("a", "b"), ("a", "c"), ("b", "c")]
    grade = grade_pairs([("a", "b"), ("c", "a")], planted, scanned=10)
    assert grade.attempted == 10
    assert grade.failed == 1
    assert grade.recall == pytest.approx(2 / 3)
    assert grade.precision == 1.0


def test_spurious_pair_fails():
    grade = grade_pairs([("a", "b"), ("x", "y")], [("b", "a")], scanned=10)
    assert grade.failed == 1 and grade.precision == 0.5


def _tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]
    return [
        Span("root", "t:root", 0.0, 10.0, -1),
        Span("x", "t:a", 1.0, 4.0, 0),
        Span("y", "t:b", 5.0, 9.0, 0),
        Span("x", "t:c", 6.0, 7.0, 2),
    ]


def test_self_times_of_hand_built_tree():
    assert self_times(_tree()) == [3.0, 3.0, 3.0, 1.0]
    duration, unattributed = check_accounting(_tree())
    assert (duration, unattributed) == (10.0, 3.0)


def test_overlapping_children_are_covered_once():
    spans = [
        Span("root", "t:root", 0.0, 10.0, -1),
        Span("x", "t:a", 1.0, 5.0, 0),
        Span("x", "t:b", 3.0, 6.0, 0),
    ]
    assert self_times(spans)[0] == 5.0


def test_accounting_needs_one_root():
    spans = _tree() + [Span("root", "t:other", 11.0, 12.0, -1)]
    with pytest.raises(ValueError):
        check_accounting(spans)


def test_metric_names_are_well_formed():
    spec = json.loads(BENCHMARK.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_per_layer_table_matches_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


def test_tracer_wraps_imported_names_and_restores(tmp_path):
    from importlib import import_module

    from repro.core.window import TimeDelayWindow

    nb_mod = import_module("repro.core.neighborhood")
    tycos_mod = import_module("repro.core.tycos")

    original = nb_mod.neighborhood
    tracer = Tracer([Target("nb", "repro.core.neighborhood", "neighborhood", keep=True)], tmp_path)
    tracer.install()
    try:
        assert tycos_mod.neighborhood is nb_mod.neighborhood is not original
        with tracer.root("test"):
            tycos_mod.neighborhood(TimeDelayWindow(10, 20, 0), 1, 1, 100, 4, 40, 5)
    finally:
        tracer.uninstall()
    assert tycos_mod.neighborhood is nb_mod.neighborhood is original
    assert [s.label for s in tracer.spans] == [
        "tycosbench:test",
        "repro.core.neighborhood:neighborhood",
    ]
    check_accounting(tracer.spans)


def test_missing_target_fails_with_its_name(tmp_path):
    tracer = Tracer([Target("tycos", "repro.core.tycos", "Tycos.no_such_method")], tmp_path)
    with pytest.raises(MissingTargetError, match="Tycos.no_such_method"):
        tracer.install()


def test_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert verdict(parent, slower, "lower", 0.1)["verdict"] == "worse"
    assert verdict(parent, parent, "lower", 0.1)["verdict"] == "unchanged"
    noisy = [5.0, 15.0] * 5
    assert verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(parent, faster, "lower", 0.1, more_failures=True)["verdict"] == "unresolved"


def test_stop_children_leaves_no_process():
    block = shared_memory.SharedMemory(create=True, size=8)  # starts the resource tracker
    block.close()
    block.unlink()
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert _child_pids()
    stop_children()
    assert _child_pids() == []
    assert sleeper.poll() is not None
