"""The scripts under scripts/, each run in-process on tiny arguments."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_lambda_prints_the_profile(capsys):
    assert _script("sweep_lambda").main(["--grid", "9"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last == ("# min margin 0.0482828704086154 at lam=0.9; "
                    "sign changes: 0")


def test_certify_triples_certifies_a_draw_of_each_triple(capsys):
    assert _script("certify_triples").main(
        ["--draws", "1", "--grid", "16"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split()[:3] for row in rows] == [
        [name, "1", "1"] for name in
        ("kyfan", "amgm", "chrystal", "holder_mccarthy")]


@pytest.mark.parametrize("target, confirmed", [("amgm", 98),
                                               ("half-bound", 0)])
def test_run_campaigns_writes_a_report_per_target(tmp_path, capsys, target,
                                                  confirmed):
    code = _script("run_campaigns").main(
        ["--targets", target, "--samples", "256", "--outdir", str(tmp_path)])
    assert code == (2 if confirmed else 0)
    report = json.loads((tmp_path / f"{target}-refined-7.json").read_text())
    assert report["witness_stats"]["confirmed"] == confirmed
    assert report["counts"]["counted"] == 256
    out = capsys.readouterr().out
    assert f"-> {tmp_path / f'{target}-refined-7.json'}" in out
    # time in milliseconds and the campaign's throughput, counted / time
    header = out.splitlines()[0].split()
    assert header[:3] == ["target", "time", "samples/s"]
    row = out.splitlines()[1].split()
    assert row[1].endswith("ms") and float(row[2]) > 0
