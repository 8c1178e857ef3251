"""The benchmark's trace points name attributes the lab still has.

``perfbench/run.py --trace 1`` wraps each (module, attribute) pair of
``perfbench/jobs.py`` ``SPAN_POINTS``; a refactor that drops or renames
one of those attributes fails here, in the unit tests, rather than only
in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import jobs  # noqa: E402


def test_every_span_point_resolves():
    missing = [(module, attr) for module, attr, _ in jobs.SPAN_POINTS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_dense_decomposition_goes_through_the_traced_solver(monkeypatch):
    # perfbench's opcalc.spectral_decompose.d2-8 / .d32 / .d64 spans wrap
    # the module attribute; decomposition() must look it up at call time
    from hconvexlab import opcalc
    calls = []
    solve = opcalc.spectral_decompose

    def counting(A):
        calls.append(A.dim)
        return solve(A)
    monkeypatch.setattr(opcalc, "spectral_decompose", counting)
    rng = np.random.default_rng(0)
    for dim in (4, 32):
        a = rng.standard_normal((dim, dim))
        opcalc.SymmetricMatrix(a + a.T).decomposition()
    opcalc.SymmetricMatrix.diagonal([2.0, 1.0, 3.0]).decomposition()
    assert calls == [4, 32]
