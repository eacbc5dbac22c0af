import numpy as np
import pytest

from qsmooth import smoothing
from qsmooth.checks import future_enumeration
from qsmooth.dynamics import ModelParams
from qsmooth.ensemble import EnsembleSpec, run_ensemble
from qsmooth.qmath import ZeroTraceError


def params(**kw):
    base = dict(omega=5.0, nbar=0.5, dt=1e-3, t_final=1.0, seed=21)
    base.update(kw)
    return ModelParams(**base)


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
        # zero the sandwich of the second row of the second chunk only: the
        # error must name the global trajectory index, not the row
        import qsmooth.ensemble as ens
        sandwich = smoothing.qubit_sandwich

        def zero_row(r, e):
            out = sandwich(r, e)
            if len(r) == 3:
                out[1] = 0.0
            return out

        monkeypatch.setattr(smoothing, "qubit_sandwich", zero_row)
        monkeypatch.setattr(ens, "_CHUNK", 7)
        p = params(t_final=0.05)
        with pytest.raises(ZeroTraceError, match=r"time index 50, trajectory 8"):
            run_ensemble(EnsembleSpec(params=p, n_traj=10))

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

    def test_scale_invariance(self):
        p = params(dt=1e-2, seed=4)
        d1, _ = future_enumeration(p, 5, 3)
        d2, _ = future_enumeration(p, 5, 3, effect_scale=3.7)
        assert abs(d1 - d2) < 1e-12

    def test_rejects_homodyne(self):
        with pytest.raises(ValueError):
            future_enumeration(params(unraveling="homodyne_x"), 2, 2)
