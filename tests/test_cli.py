"""Command-line interface: subcommands, configs, exit codes, reports."""

import csv
import json

import pytest

from hconvexlab.cli import main
from hconvexlab.opcalc import SymmetricMatrix, UnitVector
from hconvexlab.refined import hm_chain

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


def test_refine_unknown_inequality_is_an_error(tmp_path, capsys):
    cfg = _write(tmp_path, "r.json", {
        "inequality": "holder-mccarthy", "alpha": 1.0, "v": 0.8,
        "samples": []})
    assert main(["refine", "--config", cfg]) == 1
    assert "unknown inequality" in capsys.readouterr().err


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
