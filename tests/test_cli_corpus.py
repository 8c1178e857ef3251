"""Frozen output of the subcommands that evaluate chains and operator
Jensen bounds, over a fixed corpus.

Each case runs ``hconvexlab <command>`` in-process and hashes its exit code,
its stdout (JSON reports without their wall-time fields, CSV as written) and
its stderr.  The corpus holds diagonal and dense matrices, odd values and
rows that raise, so that any change to how a row is evaluated, refused or
reported shows here.  numpy warnings are silenced: they name source lines.
"""

import hashlib
import json
import math
import warnings

import pytest

from hconvexlab.cli import main
from hconvexlab.reporting import canonical_json, strip_wall_time

INF, NAN = math.inf, math.nan

NEGLOG = {"family": "neglog", "params": {}}
SQUARE = {"family": "square", "params": {}}
EXP = {"family": "exp", "params": {}}
LOGIT = {"family": "logit", "params": {}}
EXPW = {"family": "exp_weight", "params": {"alpha": 2.0, "beta": 2.16}}
IDW = {"family": "identity_weight", "params": {}}
POWW = {"family": "power_weight", "params": {"beta": 0.5}}
NARROW_EXPW = dict(EXPW, domain={"lo": 0.6, "hi": 1.0})
DENSE2 = [[2.0, 1.0], [1.0, 2.0]]
DENSE3 = [[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]]
DENSE20 = [[(1.0 if i == j else 0.01 * ((i + j) % 5)) for j in range(20)]
           for i in range(20)]
PIN_X = [0.7071067811865476, 0.7071067811865476]


def _refine(inequality, alpha, v, samples, p=None):
    out = {"inequality": inequality, "alpha": alpha, "v": v,
           "samples": samples}
    if p is not None:
        out["p"] = p
    return out


REFINE = [
    _refine("kyfan", 2.0, 0.5, [
        {"a": [0.45, 0.5], "q": [0.5, 0.5]},
        {"a": [0.1, 0.2, 0.3], "q": [0.2, 0.3, 0.5]},
        {"a": [0.25], "q": [1.0]},
        {"a": [0.3, 0.4], "q": [0.5, 0.5], "b": [1.0, 2.0]}]),
    _refine("kyfan", 2.0, 0.5, [{"a": [0.3, 0.6], "q": [0.5, 0.5]}]),
    _refine("kyfan", 2.0, 0.5, [{"a": [0.3, 0.4], "q": [0.5, 0.6]}]),
    _refine("kyfan", 2.0, 0.5, [{"a": [0.3, 0.4], "q": [1.5, -0.5]}]),
    _refine("kyfan", 2.0, 0.5, [{"a": [0.3, 0.4], "q": [1.0]}]),
    _refine("kyfan", 2.0, 0.5, [{"a": [], "q": []}]),
    _refine("kyfan", 2.0, 0.5, [{"a": [0.3, NAN], "q": [0.5, 0.5]}]),
    _refine("kyfan", 2.0, 0.5, [{"a": [0.3, 0.4], "q": [0.5, 0.5],
                                 "b": [1.0, INF]}]),
    _refine("kyfan", 2.0, 0.5, [{"a": [5e-324, 5e-324], "q": [0.5, 0.5]}]),
    _refine("kyfan", 0.0, 0.5, [{"a": [0.3, 0.3], "q": [0.5, 0.5]}]),
    _refine("kyfan", -1e308, 0.3, [{"a": [0.2, 0.3], "q": [0.5, 0.5]}]),
    _refine("kyfan", NAN, 0.5, [{"a": [0.2, 0.3], "q": [0.5, 0.5]}]),
    _refine("amgm", 2.0, 0.8, [
        {"a": [0.64, 0.8], "q": [0.5, 0.5]},
        {"a": [1e300, 1e-300], "q": [0.5, 0.5]},
        {"a": [2.0, 3.0, 4.0], "q": [0.25, 0.25, 0.5]}]),
    _refine("amgm", 2.0, 0.8, [{"a": [-1.0, 0.5], "q": [0.5, 0.5]}]),
    _refine("amgm", -0.25, 0.8, [{"a": [0.5, 0.75], "q": [0.5, 0.5]}]),
    _refine("amgm", 1e-300, 0.8, [{"a": [0.5, 0.75], "q": [0.5, 0.5]}]),
    _refine("amgm", 2.0, INF, [{"a": [0.5, 0.75], "q": [0.5, 0.5]}]),
    _refine("chrystal", 2.0, 1.0, [
        {"a": [3.0], "b": [2.9], "q": [1.0]},
        {"a": [1.0, 2.0], "b": [1.5, 2.5], "q": [0.5, 0.5]},
        {"a": [0.9, 1.0, 1.1], "b": [0.8, 1.2, 1.0], "q": [0.2, 0.3, 0.5]}]),
    _refine("chrystal", 1.0, 800.0, [
        {"a": [1.0, 2.0], "b": [1.5, 2.5], "q": [0.5, 0.5]}]),
    _refine("chrystal", -1.5 + 1e-10, 1.0, [
        {"a": [1.0, 2.0], "b": [1.5, 2.5], "q": [0.5, 0.5]}]),
    _refine("chrystal", 2.0, 1.0, [
        {"a": [1.0, 2.0], "b": [-1.5, 2.5], "q": [0.5, 0.5]}]),
    _refine("chrystal", 2.0, 1.0, [
        {"a": [1e-300, 2.0], "b": [1e300, 2.5], "q": [0.5, 0.5]}]),
    _refine("chrystal", 2.0, 1.0, [
        {"a": [1.0, 2.0], "b": [1.5], "q": [0.5, 0.5]}]),
    _refine("holder_mccarthy", 1.0, 0.8, [
        {"matrix": {"diagonal": [0.64, 0.8]}, "x": [0.6, 0.8]},
        {"matrix": [[0.64, 0.0], [0.0, 0.8]], "x": [0.6, 0.8]},
        {"matrix": DENSE2, "x": [0.6, 0.8]},
        {"matrix": DENSE3, "x": [1.0, 2.0, -1.0]},
        {"matrix": {"diagonal": [0.3, 0.5, 0.7]}, "x": [3.0, 0.0, 4.0]}],
        p=2.0),
    _refine("holder_mccarthy", 2.0, 0.7, [
        {"matrix": DENSE3, "x": [0.1, 0.2, 0.3]},
        {"matrix": {"diagonal": [1e-300, 0.5]}, "x": [0.6, 0.8]}], p=2.5),
    _refine("holder_mccarthy", 1.0, 0.8, [
        {"matrix": {"diagonal": [0.64, 0.8]}, "x": [0.6, 0.8]}], p=1.0),
    _refine("holder_mccarthy", 1.0, 0.8, [
        {"matrix": {"diagonal": [-0.5, 0.8]}, "x": [0.6, 0.8]}], p=2.0),
    _refine("holder_mccarthy", 1.0, 0.8, [
        {"matrix": [[1.0, 2.0], [2.0, 1.0]], "x": [0.6, 0.8]}], p=2.0),
    _refine("holder_mccarthy", 1.0, 0.8, [
        {"matrix": {"diagonal": [0.64, 0.8]}, "x": [0.6, 0.8, 0.0]}],
        p=2.0),
    _refine("holder_mccarthy", 1.0, 0.8, [
        {"matrix": {"diagonal": [1e200, 2e200]}, "x": [0.6, 0.8]}], p=2.0),
    _refine("holder_mccarthy", 0.0, 0.8, [
        {"matrix": {"diagonal": [0.5, 0.5]}, "x": [0.6, 0.8]}], p=2.0),
    _refine("holder_mccarthy", 1.0, 0.8, [
        {"matrix": {"diagonal": [0.64, 0.8]}, "x": [0.0, 0.0]}], p=2.0),
    _refine("holder_mccarthy", 1e-300, 1e300, [
        {"matrix": {"diagonal": [1e-300, 1e150]}, "x": [0.6, 0.8]}], p=2.0),
]


def _jensen(f, h, matrix, mode, x=PIN_X, lam=None):
    out = {"f": f, "matrix": matrix, "x": x, "mode": mode}
    if h is not None:
        out["h"] = h
    if lam is not None:
        out["lam"] = lam
    return out


JENSEN = [
    _jensen(NEGLOG, EXPW, {"diagonal": [0.64, 0.8]}, mode, lam=lam)
    for mode, lam in (("classical", None), ("per-lambda", 0.9),
                      ("per-lambda", 0.99), ("infimum", None),
                      ("half-bound", None), ("classical", 0.3))
] + [
    _jensen(NEGLOG, EXPW, [[0.64, 0.0], [0.0, 0.8]], "infimum"),
    _jensen(NEGLOG, EXPW, [[0.7, 0.05], [0.05, 0.6]], "per-lambda",
            lam=0.75),
    _jensen(SQUARE, None, DENSE2, "classical", x=[0.6, 0.8]),
    _jensen(SQUARE, None, DENSE3, "classical", x=[1.0, 2.0, -1.0]),
    _jensen(EXP, IDW, DENSE3, "half-bound", x=[0.0, 0.0, 1.0]),
    _jensen(EXP, POWW, {"diagonal": [0.1, 0.5, 0.9]}, "infimum",
            x=[0.5, 0.5, 0.5]),
    _jensen(SQUARE, EXPW, DENSE20, "infimum", x=[1.0] * 20),
    _jensen(LOGIT, EXPW, {"diagonal": [0.1, 0.4]}, "half-bound",
            x=[0.8, 0.6]),
    _jensen(NEGLOG, EXPW, {"diagonal": [0.64, 0.8]}, "per-lambda"),
    _jensen(NEGLOG, EXPW, {"diagonal": [0.64, 0.8]}, "per-lambda", lam=1.5),
    _jensen(NEGLOG, None, {"diagonal": [0.64, 0.8]}, "infimum"),
    _jensen(NEGLOG, EXPW, {"diagonal": [-0.64, 0.8]}, "classical"),
    _jensen(NEGLOG, EXPW, DENSE2, "classical", x=[0.6, 0.8]),
    _jensen(LOGIT, EXPW, {"diagonal": [0.1, 0.7]}, "classical"),
    _jensen(NEGLOG, EXPW, {"diagonal": [0.64, 0.8]}, "classical",
            x=[1.0, 0.0, 0.0]),
    _jensen(EXP, None, {"diagonal": [800.0, 1.0]}, "classical"),
    _jensen(EXP, None, [[800.0, 1.0], [1.0, 1.0]], "classical"),
    _jensen(NEGLOG, NARROW_EXPW, {"diagonal": [0.64, 0.8]}, "half-bound"),
    _jensen(NEGLOG, NARROW_EXPW, {"diagonal": [0.64, 0.8]}, "per-lambda",
            lam=0.3),
    _jensen(NEGLOG, EXPW, {"diagonal": [5e-324, 1e308]}, "half-bound",
            x=[1.0, 1e-300]),
]

SWEEP = [
    {"f": NEGLOG, "h": EXPW, "matrix": {"diagonal": [0.64, 0.8]},
     "x": PIN_X, "grid": 49},
    {"f": NEGLOG, "h": EXPW, "matrix": {"diagonal": [0.64, 0.8]},
     "x": PIN_X, "grid": 1},
    {"f": NEGLOG, "h": IDW, "matrix": [[0.7, 0.05], [0.05, 0.6]],
     "x": [0.6, 0.8], "grid": 9},
    {"f": SQUARE, "h": EXPW, "matrix": DENSE3, "x": [1.0, 2.0, -1.0],
     "grid": 17},
    {"f": NEGLOG, "h": EXPW, "matrix": {"diagonal": [-0.64, 0.8]},
     "x": PIN_X, "grid": 9},
    {"f": NEGLOG, "h": NARROW_EXPW, "matrix": {"diagonal": [0.64, 0.8]},
     "x": PIN_X, "grid": 9},
    {"f": EXP, "h": EXPW, "matrix": {"diagonal": [800.0, 1.0]},
     "x": PIN_X, "grid": 3},
]

FALSIFY = [
    ["--target", target, "--samples", "300", "--seed", "7",
     "--margin-kind", kind]
    for target in ("kyfan", "amgm", "chrystal", "holder-mccarthy")
    for kind in ("refined", "outer")
] + [
    ["--config", {"target": "chrystal", "samples": 200, "seed": 5,
                  "region": {"v": [690.0, 720.0]}}],
    ["--config", {"target": "holder-mccarthy", "samples": 200, "seed": 3,
                  "region": {"p": [1.5, 60.0], "v": [0.1, 50.0]}}],
    ["--config", {"target": "kyfan", "samples": 200, "seed": 2,
                  "region": {"v": [0.3, 0.9], "n": [1, 9]}}],
]

CORPUS = {
    "refine": [["--config", cfg] for cfg in REFINE]
    + [["--config", cfg, "--format", "csv"] for cfg in REFINE[:3]],
    "jensen": [["--config", cfg] for cfg in JENSEN],
    "sweep": [["--config", cfg] for cfg in SWEEP],
    "falsify": [argv + ["--format", "csv"] for argv in FALSIFY],
}

# sha256 over repr((exit code, stdout, stderr)) of the cases in order, on
# x86-64 Linux, CPython 3.11, numpy 2.4, mpmath 1.3
CORPUS_DIGESTS = {
    "refine":
        "5e3772c5be06a3d1e033618b6581b5f6d3196a3a12e95315de96bd852865387a",
    "jensen":
        "4a191ae36c36a044f091b35783295ccbe0ef14e7686a08446de461141f3ecf74",
    "sweep":
        "879ad9f0f7b22bd98834601d9911e2ac726712a03786d732a3ec31c55168fceb",
    "falsify":
        "60e448455a5ab7c11ab4f8eefb35f0b241243f9a3dc75876b145816080bac536",
}


def _output(text: str) -> str:
    """A JSON report without its wall-time fields, or the text as it is."""
    try:
        return canonical_json(strip_wall_time(json.loads(text)))
    except ValueError:
        return text


@pytest.mark.parametrize("command", list(CORPUS))
def test_cli_output_matches_corpus_digests(tmp_path, capsys, monkeypatch,
                                           command):
    monkeypatch.delenv("HCONVEXLAB_THREADS", raising=False)
    digest = hashlib.sha256()
    for k, argv in enumerate(CORPUS[command]):
        argv = list(argv)
        if "--config" in argv:
            at = argv.index("--config") + 1
            path = tmp_path / f"{command}-{k}.json"
            path.write_text(json.dumps(argv[at]))
            argv[at] = str(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([command] + argv)
        out, err = capsys.readouterr()
        digest.update(repr((code, _output(out), err)).encode())
    assert digest.hexdigest() == CORPUS_DIGESTS[command]
