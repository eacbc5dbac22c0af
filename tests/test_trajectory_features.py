"""Qualitative single-trajectory features on one-detection records.

A record with exactly one click late in the run is the showcase for
smoothing: before the click the smoothed state knows no emission has
happened yet, stays purer than the filtered state, and carries visibly
revived Rabi oscillations. Records are selected by rejection over seeded
trajectories, so these tests are deterministic.
"""

import numpy as np
import pytest

from qsmooth import smoothing
from qsmooth.cli import main
from qsmooth.dynamics import ModelParams


def _amplitude(x):
    return float(x.max() - x.min())


@pytest.fixture(scope="module")
def single_jump_result():
    # trajectory 14 of seed 0 is the first single-detection record
    p = ModelParams(omega=5.0, nbar=0.5, unraveling="jump",
                    dt=1e-3, t_final=7.5, seed=0)
    res = smoothing.smooth_trajectory(p, traj_index=14)
    assert np.sum(res.record) == 1
    return res


class TestLibraryLevel:
    def test_smoothed_purer_before_the_jump(self, single_jump_result):
        res = single_jump_result
        t_jump = res.times[np.flatnonzero(res.record)[0]]
        pre = res.times < t_jump
        gap = res.purity_smoothed[pre] - res.purity_filtered[pre]
        assert gap.min() > -0.01
        assert gap.mean() > 0.1

    def test_rabi_oscillations_revived(self, single_jump_result):
        res = single_jump_result
        t_jump = res.times[np.flatnonzero(res.record)[0]]
        win = (res.times > t_jump - 1.5) & (res.times < t_jump - 0.1)
        fx = 2 * res.filtered[win, 1, 0].real
        sx = 2 * res.smoothed[win, 1, 0].real
        assert _amplitude(sx) > 1.4          # nearly the full swing
        assert _amplitude(sx) > 3 * _amplitude(fx)

    def test_jump_record_stays_in_xz_plane(self, single_jump_result):
        res = single_jump_result
        fy = 2 * res.filtered[:, 1, 0].imag
        sy = 2 * res.smoothed[:, 1, 0].imag
        assert np.max(np.abs(fy)) < 1e-12
        assert np.max(np.abs(sy)) < 1e-12

    def test_smoothed_sometimes_less_pure_after_the_jump(self, single_jump_result):
        res = single_jump_result
        t_jump = res.times[np.flatnonzero(res.record)[0]]
        post = res.times > t_jump
        gap = res.purity_smoothed[post] - res.purity_filtered[post]
        assert gap.min() < 0.0


class TestCliLevel:
    def test_simulate_emits_figure_ready_record(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        code = main(["simulate", "--unraveling", "jump", "--omega", "5",
                     "--nbar", "0.5", "--seed", "79", "--out", str(out)])
        assert code == 0
        rows = []
        header = None
        with open(out) as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                if header is None:
                    header = line.strip().split(",")
                    continue
                rows.append([float(x) for x in line.strip().split(",")])
        data = np.array(rows)
        col = {name: i for i, name in enumerate(header)}

        clicks = np.nonzero(data[1:, col["outcome"]] >= 0.5)[0]
        assert len(clicks) == 1
        t_jump = data[1 + clicks[0], col["t"]]
        assert 3.5 < t_jump < 6.5

        t = data[:, col["t"]]
        gap = data[:, col["p_smooth"]] - data[:, col["p_filt"]]
        pre = t < t_jump
        late = (t > t_jump - 1.5) & (t < t_jump)
        assert gap[pre].mean() > 0.05
        assert gap[late].min() > 0.04
        sx = data[late, col["sx"]]
        fx = data[late, col["fx"]]
        assert _amplitude(sx) > 1.4
        assert _amplitude(sx) > 2 * _amplitude(fx)
        assert np.max(np.abs(data[:, col["fy"]])) < 1e-12
