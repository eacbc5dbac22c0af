import numpy as np
import pytest
from gw_enumeration import gw_enumerate

from qsmooth import channels, dynamics, qmath, smoothing
from qsmooth.dynamics import (
    ModelParams,
    build_step_operators,
    filter_trajectory,
    stack_products,
    to_matrix,
    to_vector,
)
from qsmooth.qmath import ZeroTraceError, dag, mm
from qsmooth.smoothing import DegenerateWeightsError, gw_smooth

PURE_GROUND = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def params(**kw):
    base = dict(omega=5.0, nbar=0.5, unraveling="jump", dt=1e-2,
                t_final=0.1, seed=5, rho0=PURE_GROUND)
    base.update(kw)
    return ModelParams(**base)


class TestTrueStateStep:
    @pytest.mark.parametrize("bob_unraveling", ["jump", "homodyne_x"])
    @pytest.mark.parametrize("eta", [1.0, 0.6])
    def test_step_matches_kraus_form(self, bob_unraveling, eta):
        # rho -> U M_y B_z R(rho), with R the undetected-emission channel
        p = params(eta=eta, nbar=0.5)
        ops = build_step_operators(p)
        a = np.sqrt(p.gamma * p.nbar) * qmath.SIGMA_PLUS
        ata = mm(dag(a), a) * p.dt
        if eta < 1.0:
            k2 = ops.k[2]
            residual = [qmath.hermitian_sqrt(np.eye(2) - mm(dag(k2), k2)), k2]
        else:
            residual = [np.eye(2)]
        alice, bob = smoothing._true_state_operators(p, bob_unraveling)
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = mm(g, dag(g))
            rho /= np.trace(rho).real
            y = float(rng.integers(0, 2))
            if bob_unraveling == "jump":
                z = float(rng.integers(0, 2))
                b = np.sqrt(p.dt) * a if z else qmath.hermitian_sqrt(np.eye(2) - ata)
            else:
                z = rng.normal(0.0, 1.0 / np.sqrt(p.dt))
                b = np.eye(2) - 0.5 * ata + 0.125 * mm(ata, ata) + z * p.dt * a
            lead = mm(ops.u, mm(ops.measurement_op(y), b))
            ref = channels.apply(channels.CPMap(tuple(mm(lead, r) for r in residual)), rho)
            u = stack_products(smoothing._true_state_stack(alice, bob, y),
                               to_vector(rho)[:, None])
            out = to_matrix(bob.combine(u, [z])[:, 0])
            assert np.max(np.abs(out - ref)) < 1e-13


class TestEnumerated:
    def test_pure_true_states_make_gw_equal_pf(self):
        p = params()
        fr = filter_trajectory(p)
        res, _ = gw_enumerate(fr.record, p)
        assert np.max(np.abs(res.gw - res.gw_pf)) < 1e-9

    def test_unobserved_sum_recovers_filtered(self):
        p = params()
        fr = filter_trajectory(p)
        alice = to_matrix(gw_enumerate(fr.record, p)[1])
        alice_norm = alice / np.einsum("tii->t", alice).real[:, None, None]
        assert np.max(np.abs(alice_norm - to_matrix(fr.coords))) < 1e-12

    def test_final_time_returns_filtered(self):
        p = params()
        fr = filter_trajectory(p)
        res, _ = gw_enumerate(fr.record, p)
        final = to_matrix(fr.coords[-1])
        assert np.max(np.abs(res.gw[-1] - final)) < 1e-10
        assert np.max(np.abs(res.gw_pf[-1] - final)) < 1e-10

    def test_mixed_initial_state_separates_estimators(self):
        p = params(rho0=np.diag([0.5, 0.5]).astype(complex), seed=3)
        fr = filter_trajectory(p)
        res, _ = gw_enumerate(fr.record, p)
        # with impure true states the two conditionings genuinely differ
        assert np.max(np.abs(res.gw - res.gw_pf)) > 1e-6
        # observation only (an expectation, not an invariant): applying the
        # closed-form smoothing to each true state tends to give the purer
        # mixture
        pur = lambda x: np.einsum("tij,tji->t", x, x).real.mean()
        print(f"\nmean purity: recovery-smoothed mixture {pur(res.gw_pf):.4f} "
              f"vs plain mixture {pur(res.gw):.4f}")

    def test_branch_the_record_rules_out_gets_zero_weight(self):
        # from |g>, a click at step 0 needs the absorption the second
        # observer sees in the same step: the branch without it has zero trace
        p = params(nbar=1.0, dt=2e-2, t_final=12 * 2e-2)
        record = np.zeros(12)
        record[0] = 1.0
        res, alice = gw_enumerate(record, p)
        filtered = to_matrix(alice[-1] / (np.sqrt(2.0) * alice[-1, 0]))
        for states in (res.gw, res.gw_pf):
            assert np.all(np.isfinite(states))
            assert np.max(np.abs(np.einsum("tii->t", states).real - 1.0)) < 1e-12
            assert np.max(np.abs(states[-1] - filtered)) < 1e-10

    def test_impossible_record_raises(self):
        # with no drive and no absorption, two clicks in a row leave the
        # emitter no time to be re-excited: no state can produce the record
        p = params(omega=0.0, nbar=0.0, t_final=0.05)
        record = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
        with np.errstate(all="raise"), pytest.raises(ZeroTraceError, match="time index 1"):
            gw_enumerate(record, p)


class TestMonteCarlo:
    def test_converges_to_enumeration(self):
        p = params()
        fr = filter_trajectory(p)
        exact, _ = gw_enumerate(fr.record, p)
        mc1 = gw_smooth(fr.record, p, "jump", n_bob=1000, seed=123)
        mc4 = gw_smooth(fr.record, p, "jump", n_bob=4000, seed=123)
        e1 = np.max(np.abs(mc1.gw - exact.gw))
        e4 = np.max(np.abs(mc4.gw - exact.gw))
        assert e4 < e1
        assert e4 < 0.8 * e1  # ~1/sqrt(n) shrinkage at this fixed seed

    def test_trivial_bob_reduces_to_single_observer(self):
        # nbar = 0 removes the absorption channel entirely: every true
        # trajectory coincides with the (pure) filtered one.
        p = params(nbar=0.0, t_final=0.2, seed=7)
        fr = filter_trajectory(p)
        single = smoothing.smooth_trajectory(p).smoothed
        res = gw_smooth(fr.record, p, "jump", n_bob=16, seed=1)
        assert np.max(np.abs(res.gw - single)) < 1e-9
        assert np.max(np.abs(res.gw_pf - single)) < 1e-9

    def test_deterministic_given_seed(self):
        p = params()
        fr = filter_trajectory(p)
        a = gw_smooth(fr.record, p, "jump", n_bob=200, seed=11)
        b = gw_smooth(fr.record, p, "jump", n_bob=200, seed=11)
        assert np.array_equal(a.gw, b.gw)
        assert np.array_equal(a.ess, b.ess)

    def test_bob_homodyne_runs_and_matches_loosely(self):
        p = params(t_final=0.05)
        fr = filter_trajectory(p)
        exact, _ = gw_enumerate(fr.record, p)
        res = gw_smooth(fr.record, p, "homodyne_x", n_bob=3000, seed=9)
        # Bob's unraveling choice changes the estimator in general, but on
        # a 5-step horizon with pure true states both reduce to the same
        # mixture up to Monte-Carlo and O(dt^2) discretization error.
        assert np.max(np.abs(res.gw - exact.gw)) < 0.05
        assert res.ess.min() > 100

    def test_degenerate_weights_raise(self):
        p = params()
        fr = filter_trajectory(p)
        with pytest.raises(DegenerateWeightsError):
            gw_smooth(fr.record, p, "jump", n_bob=1, seed=0)

    def test_impossible_record_raises(self):
        # at eta = 0 the monitored channel never clicks
        p = params(eta=0.0, t_final=0.05)
        record = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        with np.errstate(all="raise"), pytest.raises(ZeroTraceError, match="time index 2"):
            gw_smooth(record, p, "jump", n_bob=50, seed=1)

    def test_impossible_second_observer_click_raises(self, monkeypatch):
        # sigma+ annihilates the excited state, so an absorption click on
        # |e> leaves a true state of zero weight
        p = params(omega=0.0, t_final=0.03, rho0=qmath.EXCITED)
        sample = dynamics.sample_outcomes

        def click(ops, u, r, noise):
            _, summary = sample(ops, u, r, noise)
            return np.ones(len(noise)), summary

        monkeypatch.setattr(dynamics, "sample_outcomes", click)
        with pytest.raises(ZeroTraceError, match=r"step 0, trajectory 0"):
            gw_smooth(np.zeros(3), p, "jump", n_bob=4, seed=0)

    @pytest.mark.parametrize("n_bob", [0, -2])
    def test_no_samples_is_value_error(self, n_bob):
        p = params()
        fr = filter_trajectory(p)
        with pytest.raises(ValueError, match="n_bob must be at least 1"):
            gw_smooth(fr.record, p, "jump", n_bob=n_bob, seed=0)

    def test_record_off_the_grid_is_value_error(self):
        p = params()
        fr = filter_trajectory(p)
        with pytest.raises(ValueError, match="record has 9 steps but the grid has 10"):
            gw_smooth(fr.record[:-1], p, "jump", n_bob=4, seed=0)

    def test_fractional_seed_is_value_error(self):
        p = params()
        fr = filter_trajectory(p)
        with pytest.raises(ValueError, match="got 1.5"):
            gw_smooth(fr.record, p, "jump", n_bob=50, seed=1.5)

    def test_states_physical(self):
        p = params(rho0=np.diag([0.4, 0.6]).astype(complex))
        fr = filter_trajectory(p)
        res = gw_smooth(fr.record, p, "jump", n_bob=500, seed=2)
        for series in (res.gw, res.gw_pf):
            assert qmath.min_eigenvalue_stack(series).min() >= -1e-10
            traces = np.einsum("tii->t", series).real
            assert np.max(np.abs(traces - 1.0)) < 1e-10
