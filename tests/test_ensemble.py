import dataclasses

import numpy as np
import pytest

from qsmooth import smoothing
from qsmooth.checks import future_enumeration
from qsmooth.dynamics import ModelParams
from qsmooth.ensemble import EnsembleResult, EnsembleSpec, run_ensemble
from qsmooth.qmath import ZeroTraceError


def params(**kw):
    base = dict(omega=5.0, nbar=0.5, dt=1e-3, t_final=1.0, seed=21)
    base.update(kw)
    return ModelParams(**base)


def _zero_filtered_states(monkeypatch, entries):
    """Zero the filtered state at each (time index, trajectory) entry.

    The sandwich of a zero state is zero, so exactly these entries get a
    zero smoothed weight, however the statistics are batched.
    """
    import qsmooth.ensemble as ens
    original = ens.filter_batch

    def zeroed(p, ops, traj_indices):
        outcomes, noise, states, log_weight = original(p, ops, traj_indices)
        rows = list(traj_indices)
        for time, traj in entries:
            if traj in rows:
                states[rows.index(traj), time] = 0.0
        return outcomes, noise, states, log_weight

    monkeypatch.setattr(ens, "filter_batch", zeroed)


class TestSpecValidation:
    def test_positive_trajectories(self):
        with pytest.raises(ValueError):
            EnsembleSpec(params=params(), n_traj=0)



class TestRunEnsemble:
    def test_single_trajectory_matches_direct_run(self):
        p = params(t_final=0.5)
        res = run_ensemble(EnsembleSpec(params=p, n_traj=1))
        direct = smoothing.smooth_trajectory(p, 0)
        assert np.allclose(res.avg_purity_filtered, direct.purity_filtered, atol=1e-12)
        assert np.allclose(res.avg_purity_smoothed, direct.purity_smoothed, atol=1e-12)
        assert np.all(np.isnan(res.se_purity_filtered))
        assert np.all(np.isnan(res.se_purity_smoothed))

    def test_bit_identical_reruns(self):
        spec = EnsembleSpec(params=params(t_final=0.4), n_traj=40,
                            steady_window=(0.2, 0.4))
        a = run_ensemble(spec)
        b = run_ensemble(spec)
        for field in ("avg_purity_filtered", "avg_purity_smoothed",
                      "mean_bloch_filtered", "mean_bloch_smoothed",
                      "se_purity_smoothed"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.purity_gain_mean == b.purity_gain_mean

    def test_chunking_invisible(self):
        # 40 trajectories span several chunks when the chunk size shrinks;
        # results must not change.
        import qsmooth.ensemble as ens
        spec = EnsembleSpec(params=params(t_final=0.3), n_traj=40)
        full = run_ensemble(spec)
        old = ens._CHUNK
        try:
            ens._CHUNK = 7
            chunked = run_ensemble(spec)
        finally:
            ens._CHUNK = old
        assert np.allclose(full.avg_purity_smoothed,
                           chunked.avg_purity_smoothed, atol=1e-13)
        assert np.allclose(full.mean_bloch_filtered,
                           chunked.mean_bloch_filtered, atol=1e-13)

    def test_zero_smoothed_weight_names_time_and_trajectory(self, monkeypatch):
        # trajectory 8 is the second row of the second chunk: the error must
        # name the global trajectory index, not the row
        import qsmooth.ensemble as ens
        _zero_filtered_states(monkeypatch, [(50, 8)])
        monkeypatch.setattr(ens, "_CHUNK", 7)
        p = params(t_final=0.05)
        with pytest.raises(ZeroTraceError, match=r"time index 50, trajectory 8\b"):
            run_ensemble(EnsembleSpec(params=p, n_traj=10))

    @pytest.mark.parametrize("entries, same_block, expected", [
        ([(20, 2), (45, 6)], False, "time index 45, trajectory 6"),
        ([(44, 2), (46, 7), (46, 5)], True, "time index 46, trajectory 5"),
    ], ids=["different blocks", "one block"])
    def test_latest_bad_time_then_lowest_trajectory(self, monkeypatch, entries,
                                                    same_block, expected):
        # the per-step walk stopped at the latest bad time, and the lowest
        # trajectory there; statistics in blocks of time steps must agree
        import qsmooth.ensemble as ens
        p = params(t_final=0.05)
        blocks = {(p.n_steps - t) // ens._BLOCK for t, _ in entries}
        assert (len(blocks) == 1) == same_block
        _zero_filtered_states(monkeypatch, entries)
        with pytest.raises(ZeroTraceError, match=expected + r"\b"):
            run_ensemble(EnsembleSpec(params=p, n_traj=10))

    def test_blocking_invisible(self, monkeypatch):
        # 251 time points fill no whole number of 7- or default-size blocks,
        # and 520 trajectories span a full chunk and a remainder
        import qsmooth.ensemble as ens
        spec = EnsembleSpec(params=params(t_final=0.25), n_traj=520,
                            steady_window=(0.1, 0.25))
        n_times = spec.params.n_steps + 1
        assert n_times % 7 and n_times % ens._BLOCK and spec.n_traj > ens._CHUNK
        runs = []
        for block in (1, 7, ens._BLOCK):
            monkeypatch.setattr(ens, "_BLOCK", block)
            runs.append(run_ensemble(spec))
        for field in dataclasses.fields(EnsembleResult):
            for other in runs[1:]:
                assert np.array_equal(getattr(runs[0], field.name),
                                      getattr(other, field.name)), field.name

    def test_standard_error_exact_where_trajectories_agree(self):
        # every trajectory starts in rho0; 640 spans one full chunk and a
        # remainder
        p = params(t_final=0.02, seed=1)
        res = run_ensemble(EnsembleSpec(params=p, n_traj=640))
        assert res.se_purity_filtered[0] == 0.0

    def test_standard_error_scaling(self):
        p = params(t_final=0.6)
        se_small = run_ensemble(EnsembleSpec(params=p, n_traj=200)).se_purity_smoothed
        se_large = run_ensemble(EnsembleSpec(params=p, n_traj=800)).se_purity_smoothed
        ratio = np.mean(se_large[1:] / se_small[1:])
        assert 0.4 < ratio < 0.6

    def test_mean_bloch_converges_to_unconditional(self):
        for unraveling in ("jump", "homodyne_y"):
            p = params(unraveling=unraveling, t_final=1.0, seed=5)
            res = run_ensemble(EnsembleSpec(params=p, n_traj=400))
            tol = 4.0 / np.sqrt(400) + 5.0 * p.dt
            assert np.max(np.abs(res.mean_bloch_filtered - res.uncond_bloch)) < tol
            assert np.max(np.abs(res.mean_bloch_smoothed - res.uncond_bloch)) < tol

    def test_window_statistics(self):
        p = params(t_final=1.0)
        res = run_ensemble(EnsembleSpec(params=p, n_traj=64,
                                        steady_window=(0.5, 1.0)))
        assert res.window == (0.5, 1.0)
        assert np.isfinite(res.purity_gain_mean)
        assert np.isfinite(res.purity_gain_se)
        assert res.max_smoothed_trace_defect < 1e-12
        assert res.min_smoothed_eigenvalue >= -1e-10


class TestCriterion2Enumerate:
    def test_zero_future_steps(self):
        assert future_enumeration(params(dt=1e-2), 5, 0)[0] < 1e-15

    def test_small_enumeration_defect(self):
        p = params(dt=1e-2, seed=3)
        assert future_enumeration(p, past_steps=5, future_steps=3)[0] < 1e-10

    def test_rejects_homodyne(self):
        with pytest.raises(ValueError):
            future_enumeration(params(unraveling="homodyne_x"), 2, 2)
