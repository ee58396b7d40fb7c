"""Every function the benchmark's tracer wraps still exists.

``tycosbench`` times each layer by wrapping program functions named in
its target table (``tycosbench/layers.py``).  A renamed or removed
target makes a traced benchmark run stop with ``MissingTargetError``;
this test reports the same breakage in the ordinary test suite.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "tycosbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from layers import TARGETS  # noqa: E402
from spans import _resolve  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.label)
def test_tracer_target_resolves(target):
    owner, attr, raw = _resolve(target)
    assert attr == target.qualname.split(".")[-1]
