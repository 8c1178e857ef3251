"""Command-line interface: subcommands, configs, exit codes, reports."""

import csv
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hconvexlab import funclib
from hconvexlab.cli import main, parse_instance
from hconvexlab.errors import ConfigError
from hconvexlab.falsify import RULES, TARGETS, draw_instance
from hconvexlab.funclib import TRIPLE_NAMES, TRIPLES
from hconvexlab.opcalc import JENSEN_MODES, SymmetricMatrix, UnitVector
from hconvexlab.refined import CHAINS, hm_chain
from hconvexlab.streams import stream

CERT_CONFIG = {
    "f": {"family": "neglog", "params": {}},
    "g": {"family": "kyfan_gate", "params": {"alpha": 2.0}},
    "h": {"family": "exp_weight", "params": {"alpha": 2.0, "beta": 2.16}},
    "v": 0.45,
    "grid": [64, 64],
}

CUBIC_GATED = {
    "f": {"family": "cubic", "params": {}},
    "g": {"family": "piecewise_gate", "params": {}},
    "h": {"family": "identity_weight", "params": {}},
    "v": 2.0,
    "grid": [128, 128],
}

PINNED_JENSEN = {
    "f": {"family": "neglog", "params": {}},
    "h": {"family": "exp_weight", "params": {"alpha": 2.0, "beta": 2.16}},
    "matrix": {"diagonal": [0.64, 0.8]},
    "x": [0.7071067811865476, 0.7071067811865476],
}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_pass_and_envelope(tmp_path):
    cfg = _write(tmp_path, "c.json", CERT_CONFIG)
    code, report = _run(tmp_path, "certify", "--config", cfg)
    assert code == 0
    assert report["command"] == "certify"
    assert report["tool"]["name"] == "hconvexlab"
    assert report["result"]["verdict"] == "Certified"
    assert report["wall_time_s"] > 0.0
    assert report["tolerances"] == {"violation_tolerance": 1e-10}


def test_certify_violation_exits_two(tmp_path):
    cfg = _write(tmp_path, "c.json", dict(
        CUBIC_GATED,
        g={"family": "constant_gate", "params": {"value": 0.0}}, v=1.0))
    code, report = _run(tmp_path, "certify", "--config", cfg)
    assert code == 2
    assert report["result"]["verdict"] == "Violated"
    assert report["result"]["min_value"] < -1e-10
    assert report["result"]["arg_min"]["u"] == 0.0


def test_certify_gated_cubic_passes(tmp_path):
    cfg = _write(tmp_path, "c.json", CUBIC_GATED)
    code, report = _run(tmp_path, "certify", "--config", cfg)
    assert code == 0
    assert report["result"]["verdict"] == "Certified"


def test_flags_override_config(tmp_path):
    cfg = _write(tmp_path, "c.json", CERT_CONFIG)
    # config says v=0.45; the command line moves the anchor
    code, report = _run(tmp_path, "certify", "--config", cfg, "--v", "0.3")
    assert report["config"]["v"] == 0.3
    assert code == 0


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", dict(CERT_CONFIG, extra=1))
    code, report = _run(tmp_path, "certify", "--config", cfg)
    assert code == 1 and report is None
    assert "unknown keys" in capsys.readouterr().err


def test_missing_required_key_is_an_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {k: v for k, v in CERT_CONFIG.items() if k != "h"})
    code, _ = _run(tmp_path, "certify", "--config", cfg)
    assert code == 1
    assert "missing key" in capsys.readouterr().err


def test_unreadable_config_is_an_error(tmp_path, capsys):
    code, _ = _run(tmp_path, "certify", "--config",
                   str(tmp_path / "nope.json"))
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err


def test_bad_function_family_is_an_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", dict(
        CERT_CONFIG, f={"family": "fictional", "params": {}}))
    code, _ = _run(tmp_path, "certify", "--config", cfg)
    assert code == 1


# ---------------------------------------------------------------------------
# jcoeff / jensen / sweep
# ---------------------------------------------------------------------------

def test_jcoeff_subcommand(tmp_path):
    cfg = _write(tmp_path, "j.json", {
        "h": {"family": "exp_weight", "params": {"alpha": 2.0, "beta": 2.16}},
        "interval": {"lo": 0.0, "hi": 1.0, "lo_open": True, "hi_open": True}})
    code, report = _run(tmp_path, "jcoeff", "--config", cfg)
    assert code == 0
    assert abs(report["result"]["value"] - 2.0 / 2.16) < 2e-9
    assert report["result"]["boundary_limit"]


def test_jensen_negative_margin_exits_two(tmp_path):
    cfg = _write(tmp_path, "j.json", dict(PINNED_JENSEN, mode="infimum"))
    code, report = _run(tmp_path, "jensen", "--config", cfg)
    assert code == 2
    assert report["result"]["margin"] < 0.0


def test_jensen_classical_exits_zero(tmp_path):
    cfg = _write(tmp_path, "j.json", {
        "f": {"family": "square", "params": {}},
        "matrix": [[2.0, 1.0], [1.0, 2.0]],
        "x": [0.6, 0.8], "mode": "classical"})
    code, report = _run(tmp_path, "jensen", "--config", cfg)
    assert code == 0
    assert report["result"]["margin"] >= 0.0


def test_jensen_vector_whose_norm_overflowed_is_an_error(tmp_path, capsys):
    cfg = _write(tmp_path, "j.json", dict(PINNED_JENSEN, mode="infimum",
                                          x=[1e308, 1e308]))
    code, report = _run(tmp_path, "jensen", "--config", cfg)
    assert (code, report) == (1, None)
    assert capsys.readouterr().err.startswith("error: jensen.x: ")


def test_jensen_unknown_mode_is_an_error(tmp_path, capsys):
    cfg = _write(tmp_path, "j.json", dict(PINNED_JENSEN, mode="psychic"))
    code, _ = _run(tmp_path, "jensen", "--config", cfg)
    assert code == 1


def test_sweep_profile(tmp_path):
    cfg = _write(tmp_path, "s.json", dict(PINNED_JENSEN, grid=49))
    code, report = _run(tmp_path, "sweep", "--config", cfg)
    assert code == 2  # the per-lambda margin dips negative near lambda = 1
    prof = report["result"]
    assert prof["factor_decreasing"]
    assert prof["min_margin"] < 0.0
    assert len(prof["points"]) == 49


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def test_refine_json_and_exit_code(tmp_path):
    cfg = _write(tmp_path, "r.json", {
        "inequality": "amgm", "alpha": 2.0, "v": 0.8,
        "samples": [{"a": [0.64, 0.8], "q": [0.5, 0.5]}]})
    code, report = _run(tmp_path, "refine", "--config", cfg)
    assert code == 2  # feasible chain with a negative refined margin
    row = report["result"][0]
    assert row["feasible"]
    assert row["margins"]["rhs_minus_mid"] < 0.0


def test_refine_csv_output(tmp_path):
    cfg = _write(tmp_path, "r.json", {
        "inequality": "kyfan", "alpha": 2.0, "v": 0.5,
        "samples": [{"a": [0.45, 0.5], "q": [0.5, 0.5]}]})
    out = tmp_path / "rows.csv"
    code = main(["refine", "--config", cfg, "--format", "csv",
                 "--out", str(out)])
    assert code == 0  # infeasible sample: not a countable violation
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("inequality,n,alpha,gamma,beta,lhs,mid,rhs,"
                        "margin1,margin2,feasible")
    assert lines[1].split(",")[-1] == "false"


def test_refine_holder_mccarthy_reads_diagonal_and_dense_matrices(tmp_path):
    x = [0.6, 0.8]
    expected = hm_chain(SymmetricMatrix.diagonal([0.64, 0.8]), UnitVector(x),
                        2.0, 1.0, 0.8).to_json()
    for matrix in ({"diagonal": [0.64, 0.8]}, [[0.64, 0.0], [0.0, 0.8]]):
        cfg = _write(tmp_path, "hm.json", {
            "inequality": "holder_mccarthy", "alpha": 1.0, "v": 0.8, "p": 2.0,
            "samples": [{"matrix": matrix, "x": x}]})
        code, report = _run(tmp_path, "refine", "--config", cfg)
        assert code == 2  # a feasible chain with a negative margin
        assert report["result"] == [expected]


@pytest.mark.parametrize("config, missing", [
    ({"inequality": "holder_mccarthy", "alpha": 1.0, "v": 0.8,
      "samples": [{"matrix": [[0.64, 0.0], [0.0, 0.8]], "x": [0.6, 0.8]}]},
     "'p'"),
    ({"inequality": "holder_mccarthy", "alpha": 1.0, "v": 0.8, "p": None,
      "samples": [{"matrix": [[0.64, 0.0], [0.0, 0.8]], "x": [0.6, 0.8]}]},
     "'p'"),
    ({"inequality": "holder_mccarthy", "alpha": 1.0, "v": 0.8, "p": 2.0,
      "samples": [{"matrix": [[0.64, 0.0], [0.0, 0.8]]}]}, "'x'"),
    ({"inequality": "amgm", "alpha": 2.0, "v": 0.8,
      "samples": [{"a": [0.64, 0.8]}]}, "'q'"),
    ({"inequality": "chrystal", "alpha": 2.0, "v": 1.0,
      "samples": [{"a": [3.0], "q": [1.0]}]}, "'b'"),
])
def test_refine_missing_input_is_an_error(tmp_path, capsys, config, missing):
    cfg = _write(tmp_path, "r.json", config)
    assert main(["refine", "--config", cfg]) == 1
    assert f"missing key {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"inequality": "amgm", "alpha": [2.0], "v": 0.8,
     "samples": [{"a": [0.64, 0.8], "q": [0.5, 0.5]}]},
    {"inequality": "amgm", "alpha": 2.0, "v": 0.8, "samples": 5},
    {"inequality": "amgm", "alpha": 2.0, "v": 0.8,
     "samples": [{"a": 5, "q": [1.0]}]},
])
def test_refine_wrongly_typed_value_is_an_error(tmp_path, capsys, config):
    cfg = _write(tmp_path, "r.json", config)
    assert main(["refine", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: refine.")


def test_refine_chrystal_far_anchor_is_data_not_overflow(tmp_path):
    # (1 + e^v)^expo is beyond the doubles here; the gate value is its log
    cfg = _write(tmp_path, "r.json", {
        "inequality": "chrystal", "alpha": 1.0, "v": 800.0,
        "samples": [{"a": [1.0, 2.0], "b": [1.5, 2.5], "q": [0.5, 0.5]}]})
    code, report = _run(tmp_path, "refine", "--config", cfg)
    assert code == 0
    row = report["result"][0]
    assert row["flags"]["anchor_in_range"] and not row["feasible"]
    # the gate value 1.5 * 800 = 1200 lies above every log-ratio and value
    assert not row["flags"]["logratios_in_interval"]
    assert not row["flags"]["values_in_interval"]


def test_refine_unknown_inequality_is_an_error(tmp_path, capsys):
    cfg = _write(tmp_path, "r.json", {
        "inequality": "holder-mccarthy", "alpha": 1.0, "v": 0.8,
        "samples": []})
    assert main(["refine", "--config", cfg]) == 1
    assert "unknown inequality" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# typed config values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command, config, key", [
    ("certify", dict(CERT_CONFIG, v=[0.45]), "certify.v"),
    ("certify", dict(CERT_CONFIG, grid=64), "certify.grid"),
    ("certify", dict(CERT_CONFIG, grid=[64, 64.5]), "certify.grid"),
    ("jcoeff", {"h": PINNED_JENSEN["h"], "samples": [4096],
                "interval": {"lo": 0.0, "hi": 1.0}}, "jcoeff.samples"),
    ("jensen", dict(PINNED_JENSEN, mode="per-lambda", lam=[0.5]),
     "jensen.lam"),
    ("sweep", dict(PINNED_JENSEN, grid="many"), "sweep.grid"),
    ("falsify", {"target": "amgm", "samples": 10, "seed": 1,
                 "witness_cap": [8]}, "falsify.witness_cap"),
    ("falsify", {"target": "amgm", "samples": [10], "seed": 1},
     "falsify.samples"),
    ("falsify", {"target": "amgm", "samples": 10, "seed": 1.5},
     "falsify.seed"),
    ("replay", {"index": [0]}, "replay.index"),
    ("jensen", dict(PINNED_JENSEN, mode="classical", x={"a": 1}),
     "jensen.x"),
    ("sweep", dict(PINNED_JENSEN, x={"a": 1}), "sweep.x"),
    ("falsify", {"target": ["amgm"], "samples": 10, "seed": 1},
     "falsify.target"),
])
def test_wrongly_typed_value_is_an_error(tmp_path, capsys, command, config,
                                         key):
    if command == "replay":
        config = dict(config, report=_write(
            tmp_path, "report.json", {"result": {"witnesses": []}}))
    cfg = _write(tmp_path, "c.json", config)
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: expected ")


def test_replay_report_must_be_a_path(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"report": ["x"]})
    assert main(["replay", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(
        "error: replay.report: expected ")


def test_certify_grid_past_the_cap_is_an_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", dict(CERT_CONFIG, grid=[2049, 2049]))
    assert main(["certify", "--config", cfg]) == 1
    assert "above the cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# falsify / replay
# ---------------------------------------------------------------------------

def test_falsify_and_replay_round_trip(tmp_path):
    out = tmp_path / "campaign.json"
    code = main(["falsify", "--target", "amgm", "--samples", "200",
                 "--seed", "7", "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["seed"] == 7
    result = report["result"]
    assert result["outcome"] == "confirmed witness"
    stats = result["witness_stats"]
    assert stats["candidates"] == stats["confirmed"] + sum(
        stats["demotions"].values())

    witness = result["witnesses"][0]
    code, replay = _run(tmp_path, "replay", "--report", str(out),
                        "--index", str(witness["index"]))
    assert code == 2
    assert replay["result"]["matches"] == {"margin_double": True,
                                           "margin_confirmed": True}


def test_falsify_csv_rows_are_the_witness_chains(tmp_path):
    out = tmp_path / "campaign.json"
    rows = tmp_path / "rows.csv"
    for target in ("chrystal", "holder-mccarthy"):
        argv = ["falsify", "--target", target, "--samples", "100",
                "--seed", "7"]
        main(argv + ["--out", str(out)])
        main(argv + ["--format", "csv", "--out", str(rows)])
        witnesses = json.loads(out.read_text())["result"]["witnesses"]
        with open(rows, newline="") as fh:
            table = list(csv.DictReader(fh))
        assert len(table) == len(witnesses) > 0
        for row, w in zip(table, witnesses):
            extras = w["extras"]
            assert row["inequality"] == target.replace("-", "_")
            inputs = w["inputs"]
            assert int(row["n"]) == inputs.get("n", inputs.get("dim"))
            assert [float(row[k]) for k in ("lhs", "mid", "rhs")] \
                == extras["chain"]
            assert [float(row["margin1"]), float(row["margin2"])] \
                == extras["margins"]
            assert float(row["beta"]) == extras["beta"]
            assert row["feasible"] == str(extras["feasible"]).lower()


def test_falsify_rejects_a_bad_worker_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HCONVEXLAB_THREADS", "lots")
    code = main(["falsify", "--target", "amgm", "--samples", "10",
                 "--seed", "1", "--out", str(tmp_path / "c.json")])
    assert code == 1
    assert "HCONVEXLAB_THREADS" in capsys.readouterr().err


def test_falsify_no_witness_exits_zero(tmp_path):
    out = tmp_path / "half.json"
    code = main(["falsify", "--target", "half-bound", "--samples", "100",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["result"]["witness_stats"]["confirmed"] == 0


def test_falsify_reruns_are_byte_identical(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["falsify", "--target", "best-possible", "--samples", "150",
              "--seed", "11", "--out", str(out)])
        rep = json.loads(out.read_text())
        # drop the only fields allowed to vary between runs
        rep.pop("wall_time_s")
        rep["result"].pop("elapsed_s")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_falsify_bad_region_is_an_error(tmp_path, capsys):
    cfg = _write(tmp_path, "f.json", {
        "target": "amgm", "samples": 10, "seed": 1,
        "region": {"bogus": [0, 1]}})
    code, _ = _run(tmp_path, "falsify", "--config", cfg)
    assert code == 1
    assert "unknown region keys" in capsys.readouterr().err


def test_replay_inline_witness(tmp_path):
    out = tmp_path / "campaign.json"
    main(["falsify", "--target", "kyfan", "--samples", "100", "--seed", "5",
          "--out", str(out)])
    witness = json.loads(out.read_text())["result"]["witnesses"][0]
    cfg = _write(tmp_path, "w.json", {"witness": witness})
    code, report = _run(tmp_path, "replay", "--config", cfg)
    assert code == 2
    assert report["result"]["matches"]["margin_double"]


def test_replay_of_best_possible_at_negative_lam_is_an_error(tmp_path,
                                                             capsys):
    # lam ** (beta - 1) would be a complex margin
    cfg = _write(tmp_path, "w.json", {"witness": {"inputs": {
        "target": "best-possible", "a": 0.5, "beta": 0.5, "lam": -1.0}}})
    assert main(["replay", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(
        "error: best-possible: lam=-1.0 is negative")


def test_instance_keys_follow_the_target():
    # lam and p are the only keys a region may leave undrawn, "entries"
    # stands in for "diag", and the sizes may be left out
    kyfan = draw_instance(stream(1, 0), "kyfan", RULES["kyfan"].region)
    operator = draw_instance(stream(1, 0), "half-bound",
                             RULES["half-bound"].region)
    dense = dict(operator, entries=[[0.5, 0.0], [0.0, 0.25]])
    del dense["diag"]
    for inputs in ({k: t for k, t in kyfan.items() if k != "n"},
                   dict(operator, lam=0.5), dense):
        assert parse_instance(inputs, "w") == inputs
    for key, value in (("lam", 0.5), ("dim", 3), ("entries", [[1.0]])):
        with pytest.raises(ConfigError, match=f"w: unknown keys .'{key}'"):
            parse_instance(dict(kyfan, **{key: value}), "w")
    with pytest.raises(ConfigError, match="w: missing key 'x'"):
        parse_instance({k: t for k, t in operator.items() if k != "x"}, "w")


# ---------------------------------------------------------------------------
# Contract: every config is a result, an error line or a refusal
# ---------------------------------------------------------------------------

_EXTREME = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                            math.inf, -math.inf, math.nan])
_POSITIVE = st.floats(0.05, 3.0)
_NUMBER = st.one_of(_EXTREME, _POSITIVE, st.floats(-3.0, 3.0),
                    st.integers(-1, 6))
_WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                   st.just([]), st.just({}), st.just([[]]), st.just([None]))
_NUMBERS = st.lists(_NUMBER, min_size=1, max_size=3)
# sizes stay small: a grid, sample count or dim is at most 6 unless an odd
# value replaces it, which the caps refuse before anything is allocated
_SMALL = st.integers(1, 6)
_GRID = st.lists(st.integers(1, 6), min_size=2, max_size=2)
_INTERVAL = st.one_of(
    st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2).map(sorted),
    st.lists(_NUMBER, min_size=2, max_size=2)).flatmap(
        lambda ends: st.fixed_dictionaries(
            {"lo": st.just(ends[0]), "hi": st.just(ends[1])}, optional={
                "lo_open": st.booleans(), "hi_open": st.booleans()}))


def _function(families):
    return st.sampled_from(families).flatmap(lambda family: st.fixed_dictionaries({
        "family": st.just(family),
        "params": st.fixed_dictionaries({
            name: st.one_of(_POSITIVE, _NUMBER)
            for name in funclib._FAMILIES[family].param_names})},
        optional={"domain": _INTERVAL}))


_WEIGHT = _function(["exp_weight", "power_weight", "identity_weight"])
_GATE = _function(["kyfan_gate", "power_gate", "chrystal_gate", "root_gate",
                   "constant_gate", "cosine_gate", "piecewise_gate"])
_TARGET = _function(["logit", "neglog", "softplus", "power", "cubic",
                     "expdecay", "square", "exp", "abs", "affine"])
_MATRIX = st.one_of(
    st.fixed_dictionaries({"diagonal": _NUMBERS}),
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(_NUMBER, min_size=n, max_size=n), min_size=n, max_size=n)))


@st.composite
def _refine(draw):
    """A refine config whose rows hold the chain's keys, n values each."""
    inequality = draw(st.sampled_from(list(CHAINS)))
    n = draw(st.integers(1, 3))
    values = st.lists(st.one_of(st.floats(0.01, 0.5), _NUMBER), min_size=n,
                      max_size=n)
    keys = {"a": values, "b": values, "x": values, "matrix": st.builds(
        lambda d: {"diagonal": d}, values), "q": st.one_of(
            st.just([1.0 / n] * n), values)}
    rows = st.fixed_dictionaries({key: keys[key] for key in
                                  CHAINS[inequality].row_keys})
    config = {"inequality": inequality, "alpha": draw(_NUMBER),
              "v": draw(_NUMBER), "samples": draw(st.one_of(
                  rows, st.lists(rows, min_size=1, max_size=2)))}
    if TRIPLES[inequality].needs_p:
        config["p"] = draw(_NUMBER)
    return config



@st.composite
def _region(draw, target):
    """Some of the target's region keys, each an ordered pair or a name,
    or else a value of a wrong type or an odd number."""
    out = {}
    for key in draw(st.sets(st.sampled_from(sorted(RULES[target].region)))):
        if key == "triple":
            valid = st.sampled_from(TRIPLE_NAMES)
        elif key == "weight":
            valid = st.sampled_from(["exp_weight", "identity_weight"])
        else:
            valid = (_GRID if key in ("n", "dim", "grid") else st.lists(
                _NUMBER, min_size=2, max_size=2)).map(sorted)
        out[key] = draw(st.one_of(valid, valid, _WRONG, _EXTREME,
                                  st.lists(_NUMBER, max_size=3)))
    return out


@st.composite
def _falsify(draw):
    target = draw(st.sampled_from(TARGETS))
    config = {"target": target, "samples": draw(_SMALL),
              "seed": draw(st.integers(0, 6)), "region": draw(_region(target))}
    config.update(draw(st.fixed_dictionaries({}, optional={
        "margin_kind": st.sampled_from(["refined", "outer"]),
        "witness_cap": st.integers(0, 6)})))
    return config


@st.composite
def _witness(draw):
    """A drawn instance, one of whose values may be odd or of a wrong
    type, as a witness."""
    target = draw(st.sampled_from([t for t in TARGETS
                                   if t != "certificates"]))
    inputs = draw_instance(stream(1, draw(st.integers(0, 40))), target,
                           RULES[target].region)
    key = draw(st.sampled_from(sorted(inputs)))
    inputs[key] = draw(st.one_of(st.just(inputs[key]), _WRONG, _NUMBER,
                                 _NUMBERS))
    return {"inputs": inputs, **draw(st.fixed_dictionaries({}, optional={
        "margin_kind": st.sampled_from(["refined", "outer"]),
        "margin_double": _NUMBER, "index": _SMALL}))}


CONFIGS = {
    "certify": st.one_of(st.fixed_dictionaries(
        {"f": _TARGET, "g": _GATE, "h": _WEIGHT, "v": _NUMBER},
        optional={"grid": _GRID, "ambient": _INTERVAL}), st.builds(
            lambda config, v, grid: dict(config, v=v, grid=grid),
            st.sampled_from([CERT_CONFIG, CUBIC_GATED]),
            st.one_of(st.floats(0.0, 2.0), _NUMBER), _GRID)),
    "jcoeff": st.fixed_dictionaries({"h": _WEIGHT, "interval": _INTERVAL},
                                    optional={"samples": _SMALL}),
    "jensen": st.fixed_dictionaries(
        {"f": st.one_of(st.just(PINNED_JENSEN["f"]), _TARGET),
         "matrix": _MATRIX, "x": _NUMBERS,
         "mode": st.sampled_from(JENSEN_MODES)},
        optional={"h": st.one_of(st.just(PINNED_JENSEN["h"]), _WEIGHT),
                  "lam": _NUMBER}),
    "refine": _refine(),
    "falsify": _falsify(),
    "replay": st.fixed_dictionaries({"witness": _witness()}),
    "sweep": st.fixed_dictionaries(
        {"f": st.one_of(st.just(PINNED_JENSEN["f"]), _TARGET),
         "h": st.one_of(st.just(PINNED_JENSEN["h"]), _WEIGHT),
         "matrix": _MATRIX, "x": _NUMBERS}, optional={"grid": _SMALL}),
}


@st.composite
def _config(draw, command):
    """A config of the command's keys; in half of them one value is
    replaced by a value of a wrong type or an odd number (None: missing)."""
    config = draw(CONFIGS[command])
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(config)))
        config[key] = draw(st.one_of(_WRONG, _EXTREME))
    return config


# odd values overflow in numpy on purpose here; what the test checks is
# the exit code
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", list(CONFIGS))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_config_exits_with_a_code(tmp_path, capsys, monkeypatch,
                                        command, data):
    # in-process, one worker: no config may raise out of main
    monkeypatch.delenv("HCONVEXLAB_THREADS", raising=False)
    cfg = _write(tmp_path, "c.json", data.draw(_config(command)))
    assert main([command, "--config", cfg]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
