import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

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
    assert summary["digests_equal"] == 2  # one checkout on both sides
    row = summary["traj_steps_per_s"]
    assert row["parent_q1"] <= row["parent_median"] <= row["parent_q3"]
    assert 0 <= row["change_wins"] <= 2
    assert row["ratio_change_over_parent"] == row["change_median"] / row["parent_median"]
    assert all(summary[m["name"]]["verdict"] in ("worse", "improved", "unresolved",
                                                 "within_bound")
               for m in _end_to_end().values())


def _end_to_end():
    bench = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in bench["end_to_end"]}


_PARENT_10 = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]


@pytest.mark.parametrize("metric, parent, change, expected", [
    # 30% slower and 30% less throughput, against bounds of 0.25
    ("latency_p50_s", [1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "worse"),
    ("traj_steps_per_s", [1.0, 1.0, 1.0, 1.0], [0.7, 0.7, 0.7, 0.7], "worse"),
    # the parent's quartiles span 37.5% of its median
    ("latency_p50_s", [0.5, 1.0, 1.0, 2.0], [0.9, 1.0, 1.1, 1.2], "unresolved"),
    # ... unless every change run beats every parent run; four pairs are
    # too few to claim a gain
    ("latency_p50_s", [0.5, 1.0, 1.0, 2.0], [0.4, 0.4, 0.4, 0.4], "within_bound"),
    ("latency_p50_s", [1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], "within_bound"),
    # 9 or 10 of 10 wins, and the medians differ by more than the parent's
    # q3 - q1
    ("traj_steps_per_s", _PARENT_10, [1.2] * 10, "improved"),
    ("latency_p50_s", _PARENT_10, [0.8] * 10, "improved"),
    ("traj_steps_per_s", _PARENT_10, [1.2] * 9 + [0.9], "improved"),
    # 8 of 10 wins is short of nine tenths
    ("traj_steps_per_s", _PARENT_10, [1.2] * 8 + [0.9] * 2, "within_bound"),
    # 10 of 10 wins, but by less than the parent's q3 - q1 (0.015)
    ("traj_steps_per_s", _PARENT_10, [p + 0.01 for p in _PARENT_10], "within_bound"),
])
def test_bench_pairs_verdict(metric, parent, change, expected):
    script = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    pairs = [{"workload": "w", **{side: {"metrics": {metric: {"value": v}},
                                         "failed": 0, "attempted": 1}
                                  for side, v in (("parent", a), ("change", c))},
              "ops_sha256": {"parent": "", "change": ""}}
             for a, c in zip(parent, change)]
    assert script["summarize"](pairs, _end_to_end())["w"][metric]["verdict"] == expected
