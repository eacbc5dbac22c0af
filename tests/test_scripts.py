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
