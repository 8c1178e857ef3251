"""The benchmark's trace points name attributes the lab still has.

``perfbench/run.py --trace 1`` wraps each (module, attribute) pair of
``perfbench/jobs.py`` ``SPAN_POINTS``; a refactor that drops or renames
one of those attributes fails here, in the unit tests, rather than only
in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import jobs  # noqa: E402


def test_every_span_point_resolves():
    missing = [(module, attr) for module, attr, _ in jobs.SPAN_POINTS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
