import json
import runpy
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_single_trajectory_smoke(tmp_path, monkeypatch, capsys):
    script = runpy.run_path(str(SCRIPTS / "run_single_trajectory.py"))
    out = tmp_path / "trajectory.csv"
    monkeypatch.setattr(sys, "argv", ["run_single_trajectory.py", "--t-final", "1",
                                      "--out", str(out)])
    assert script["main"]() == 0
    lines = out.read_text().splitlines()
    preamble = [line for line in lines if line.startswith("#")]
    assert "# t_final = 1.0" in preamble and "# unraveling = jump" in preamble
    header = lines[len(preamble)]
    assert header == "t,outcome,fx,fy,fz,sx,sy,sz,p_filt,p_smooth"
    data = np.array([[float(x) for x in line.split(",")]
                     for line in lines[len(preamble) + 1:]])
    assert data.shape == (1001, 10)
    assert np.nansum(data[:, 1]) == 1.0  # exactly one detection
    assert np.all(data[:, 8:] <= 1.0 + 1e-12)


def test_bench_pairs_quick(tmp_path):
    script = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    root = str(SCRIPTS.parent)
    assert script["main"](["--parent", root, "--change", root, "--tag", "smoke",
                           "--pairs", "simulate_records=2", "--quick",
                           "--out-dir", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("BENCH_*_smoke.json")
    doc = json.loads(path.read_text())
    assert list(doc) == ["tag", "what", "machine", "pairs", "summary"]
    assert [p["first"] for p in doc["pairs"]] == ["parent", "change"]
    assert doc["pairs"][0]["seed"] != doc["pairs"][1]["seed"]
    summary = doc["summary"]["simulate_records"]
    assert summary["pairs"] == 2 and summary["failed"]["parent"] == 0
    row = summary["traj_steps_per_s"]
    assert row["parent_q1"] <= row["parent_median"] <= row["parent_q3"]
    assert 0 <= row["change_wins"] <= 2
    assert row["ratio_change_over_parent"] == row["change_median"] / row["parent_median"]
