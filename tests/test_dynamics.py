import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsmooth import channels, dynamics, qmath
from qsmooth.dynamics import (
    BASIS,
    UNRAVELINGS,
    InvalidParamsError,
    ModelParams,
    StepOperators,
    build_step_operators,
    draw_noise,
    filter_batch,
    filter_trajectory,
    stack_products,
    to_matrix,
    to_vector,
    unconditional_series,
)
from qsmooth.qmath import EXCITED, GROUND, ZeroTraceError, dag, mm, trace_of


def params(**kw):
    base = dict(omega=5.0, nbar=0.5, dt=1e-3, t_final=7.5, seed=0)
    base.update(kw)
    return ModelParams(**base)


def one_step(**kw):
    """Params of a one-step grid."""
    return params(t_final=kw.get("dt", 1e-3), **kw)


def _liouville(p, rho):
    """Right-hand side of the optical Bloch equations, written directly."""
    h = 0.5 * p.omega * qmath.SIGMA_Y
    out = -1j * (mm(h, rho) - mm(rho, h))
    for rate, op in ((p.gamma * (p.nbar + 1.0), qmath.SIGMA_MINUS),
                     (p.gamma * p.nbar, qmath.SIGMA_PLUS)):
        ll = np.sqrt(rate) * op
        lld = mm(dag(ll), ll)
        out += mm(ll, mm(rho, dag(ll))) - 0.5 * (mm(lld, rho) + mm(rho, lld))
    return out


class TestModelParams:
    @pytest.mark.parametrize("bad", [
        dict(dt=0.0),
        dict(dt=-1e-3),
        dict(t_final=1e-4),
        dict(eta=1.5),
        dict(eta=-0.1),
        dict(nbar=-0.2),
        dict(gamma=0.0),
        dict(unraveling="heterodyne"),
        dict(dt=0.9),  # gamma (nbar+1) dt would reach 1.35
        dict(omega=np.inf),
        dict(nbar=np.nan),
        dict(unraveling="homodyne_x", phi=np.nan),
        dict(t_final=np.nan),
        dict(seed=1.5),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidParamsError):
            params(**bad)

    def test_rejects_bad_rho0(self):
        with pytest.raises(InvalidParamsError):
            params(rho0=np.array([[1.0, 0.5], [0.1, 0.0]]))
        with pytest.raises(InvalidParamsError):
            params(rho0=np.diag([2.0, -1.0]).astype(complex))
        with pytest.raises(InvalidParamsError, match="non-finite"):
            params(rho0=np.diag([np.nan, 0.0]))
        with pytest.raises(InvalidParamsError, match=r"must be 2x2, got \(3, 3\)"):
            params(rho0=np.eye(3) / 3)
        with pytest.raises(InvalidParamsError, match="trace 1.2 is not 1"):
            params(rho0=np.diag([0.6, 0.6]))

    def test_phi_resolution(self):
        assert params(unraveling="homodyne_x").phi == 0.0
        assert params(unraveling="homodyne_y").phi == pytest.approx(np.pi / 2)
        assert params(unraveling="homodyne_x", phi=0.3).phi == 0.3

    def test_grid(self):
        p = params(dt=1e-3, t_final=7.5)
        assert p.n_steps == 7500
        assert p.times[0] == 0.0
        assert p.times[-1] == pytest.approx(7.5)

    def test_default_initial_state_is_ground(self):
        assert np.allclose(params().rho0, GROUND)


class TestStepOperators:
    def test_no_drive_gives_identity_unitary(self):
        ops = build_step_operators(params(omega=0.0))
        assert np.max(np.abs(ops.u - np.eye(2))) < 1e-14

    def test_unitarity(self):
        ops = build_step_operators(params())
        assert np.max(np.abs(mm(dag(ops.u), ops.u) - np.eye(2))) < 1e-12

    def test_no_absorption_channel_at_zero_nbar(self):
        ops = build_step_operators(params(nbar=0.0))
        assert np.max(np.abs(ops.k[1])) == 0.0
        assert np.max(np.abs(ops.k[0] - np.eye(2))) < 1e-14

    def test_k_completeness_exact(self):
        ops = build_step_operators(params(dt=1e-2))
        assert ops.dissipation_map().completeness_defect() < 1e-12

    def test_jump_physical_completeness_exact(self):
        ops = build_step_operators(params(dt=1e-2))
        m0, m1 = ops.m0, ops.m1
        total = mm(dag(m0), m0) + mm(dag(m1), m1)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12

    def test_homodyne_ostensible_completeness_scales_quadratically(self):
        # E_y[M^dag M] - 1 under the ostensible Gaussian, evaluated in
        # closed form: the residual must shrink ~dt^2.
        resid = {}
        for dt in (1e-2, 1e-3):
            ops = build_step_operators(params(unraveling="homodyne_x", dt=dt))
            y2 = ops.ctc * dt
            a = np.eye(2) - 0.5 * y2 + 0.125 * mm(y2, y2)
            resid[dt] = np.max(np.abs(mm(a, a) + y2 - np.eye(2)))
        ratio = resid[1e-2] / resid[1e-3]
        assert 50.0 < ratio < 200.0
        assert resid[1e-2] < 0.75 * (np.linalg.norm(
            build_step_operators(params(dt=1e-2)).ctc, 2) * 1e-2) ** 2

    def test_efficiency_splits_emission(self):
        p = params(eta=0.6)
        ops = build_step_operators(p)
        assert len(ops.k) == 3
        # detected + undetected rates recombine to gamma (nbar + 1)
        detected = trace_of(ops.ctc).real
        undetected = trace_of(mm(dag(ops.k[2]), ops.k[2])).real / p.dt
        assert detected + undetected == pytest.approx(p.gamma * (p.nbar + 1.0))
        assert ops.unconditional_map().completeness_defect() < 1e-12


class TestUnconditional:
    def test_dark_state_fixed_point(self):
        out = to_matrix(unconditional_series(one_step(omega=0.0, nbar=0.0)))[1]
        assert np.max(np.abs(out - GROUND)) < 1e-14

    def test_trace_preserved(self):
        out = to_matrix(unconditional_series(one_step(rho0=qmath.bloch_state(0.3, -0.2, 0.1))))[1]
        assert trace_of(out).real == pytest.approx(1.0, abs=1e-12)

    def test_thermal_steady_state(self):
        # Omega = 0 steady state has <sz> = -1/(2 nbar + 1)
        p = params(omega=0.0, nbar=0.5, t_final=20.0)
        final = to_matrix(unconditional_series(p))[-1]
        sz = (final[0, 0] - final[1, 1]).real
        assert abs(sz - (-0.5)) < 1e-3

    def test_step_halving_oracle(self):
        # First-order split: compare against the same scheme at dt/10.
        coarse = to_matrix(unconditional_series(params(dt=2.5e-4)))
        fine = to_matrix(unconditional_series(params(dt=2.5e-5)))
        dev = np.max(np.abs(coarse[-1] - fine[-1]))
        assert dev < 1e-4

    def test_one_step_matches_euler_of_master_equation(self):
        # Independent oracle: the explicit Liouvillian of the driven
        # thermal qubit; one discretized step agrees to O(dt^2).
        rho = qmath.bloch_state(0.3, -0.1, 0.2)
        p = one_step(rho0=rho)
        euler = rho + p.dt * _liouville(p, rho)
        step = to_matrix(unconditional_series(p))[1]
        assert np.max(np.abs(step - euler)) < 10.0 * p.dt ** 2

    def test_full_horizon_matches_rk4_oracle(self):
        # RK4 on the exact generator at a 10x finer step, fully
        # independent of the operator-product discretization. The generator
        # is linear, so it runs on coordinates: column b of its real matrix
        # is the generator applied to basis element b.
        p = params()
        gen = np.stack([to_vector(_liouville(p, g)) for g in BASIS], axis=-1)
        x = to_vector(p.rho0)
        h = 1e-4
        for _ in range(int(round(p.t_final / h))):
            k1 = gen @ x
            k2 = gen @ (x + 0.5 * h * k1)
            k3 = gen @ (x + 0.5 * h * k2)
            k4 = gen @ (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ours = to_matrix(unconditional_series(p))[-1]
        assert np.max(np.abs(ours - to_matrix(x))) < 5e-4


class TestSampleStep:
    """The outcome distribution of one filter step, over many trajectories."""

    def test_dark_state_never_clicks(self):
        p = one_step(omega=0.0, nbar=0.0)
        outcomes, _, _ = filter_batch(p, build_step_operators(p), range(50))
        assert np.all(outcomes == 0.0)

    def test_impossible_click_raises_with_indices(self, monkeypatch):
        # no drive, no thermal photons, ground state: a click has zero
        # probability, so forcing one leaves a state of zero weight
        p = one_step(omega=0.0, nbar=0.0, rho0=GROUND)
        sample = dynamics.sample_outcomes

        def click(ops, u, r, noise):
            _, summary = sample(ops, u, r, noise)
            return np.ones(len(noise)), summary

        monkeypatch.setattr(dynamics, "sample_outcomes", click)
        with pytest.raises(ZeroTraceError, match=r"step 0, trajectory 3"):
            filter_batch(p, build_step_operators(p), [3, 4])

    def test_excited_state_click_probability(self):
        p = one_step(rho0=EXCITED)
        ops = build_step_operators(p)
        rho_k = channels.apply(ops.dissipation_map(), EXCITED)
        p1 = p.dt * trace_of(mm(ops.ctc, rho_k)).real / trace_of(rho_k).real
        # evaluates exactly to gamma (nbar + 1) dt: the absorption channel
        # cannot act on the excited state
        assert p1 == pytest.approx(p.gamma * (p.nbar + 1.0) * p.dt, rel=1e-12)
        n = 20000
        outcomes, _, _ = filter_batch(p, ops, range(n))
        se = np.sqrt(p1 * (1 - p1) / n)
        assert abs(outcomes.mean() - p1) < 3 * se

    def test_homodyne_mean_current(self):
        p = one_step(unraveling="homodyne_x", rho0=qmath.bloch_state(0.6, 0.0, 0.2))
        n = 100_000
        outcomes, _, _ = filter_batch(p, build_step_operators(p), range(n))
        target = np.sqrt(p.gamma * (p.nbar + 1.0)) * 0.6
        se = (1.0 / np.sqrt(p.dt)) / np.sqrt(n)
        assert abs(outcomes.mean() - target) < 3 * se

    def test_homodyne_outcomes_finite(self):
        p = one_step(unraveling="homodyne_y")
        outcomes, _, _ = filter_batch(p, build_step_operators(p), [0])
        assert np.all(np.isfinite(outcomes))


class TestTransferCore:
    """One forward and one backward step of the core against the Kraus maps."""

    @pytest.mark.parametrize("unraveling", UNRAVELINGS)
    @pytest.mark.parametrize("eta", [1.0, 0.6])
    @pytest.mark.parametrize("nbar", [0.0, 0.5])
    def test_steps_match_conditional_map(self, unraveling, eta, nbar):
        p = params(unraveling=unraveling, eta=eta, nbar=nbar)
        ops = build_step_operators(p)
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = mm(g, dag(g))
            rho /= trace_of(rho).real
            e = mm(dag(g), g)
            e /= np.abs(e).max()
            if unraveling != "jump":  # a current drawn at three times its typical size
                y = 3.0 * rng.normal(0.0, 1.0 / np.sqrt(p.dt))
            else:
                y = float(rng.integers(0, 2))
            fmap = ops.conditional_map(y)
            fwd = ops.combine(stack_products(ops.forward, to_vector(rho)[:, None]), [y])
            bwd = ops.combine(stack_products(ops.backward, to_vector(e)[:, None]), [y])
            assert np.max(np.abs(to_matrix(fwd[:, 0])
                                 - channels.apply(fmap, rho))) < 1e-13
            assert np.max(np.abs(to_matrix(bwd[:, 0])
                                 - channels.adjoint_apply(fmap, e))) < 1e-13

    def test_basis_is_orthonormal_and_hermitian(self):
        gram = np.einsum("aij,bji->ab", BASIS, BASIS)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-15
        assert np.array_equal(BASIS, dag(BASIS))
        assert not BASIS.flags.writeable

    @pytest.mark.parametrize("unraveling", UNRAVELINGS)
    def test_non_qubit_operators_rejected(self, unraveling):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        with pytest.raises(ValueError, match=r"2x2, got shape \(3, 3\)"):
            StepOperators.from_operators(g + dag(g), g, [g], 1e-3, unraveling)
        ops = build_step_operators(params(unraveling=unraveling))
        with pytest.raises(ValueError, match=r"2x2, got shape \(2, 3\)"):
            StepOperators(u=ops.u, k=ops.k, c=np.zeros((2, 3)), dt=1e-3, unraveling=unraveling)

    def test_unknown_unraveling_rejected(self):
        ops = build_step_operators(params())
        with pytest.raises(ValueError, match="unraveling must be one of .* got 'bogus'"):
            StepOperators(u=ops.u, k=ops.k, c=ops.c, dt=1e-3, unraveling="bogus")


class TestClickSparseForward:
    """The photon-counting forward step computes S_1 r only where a click
    happened; it must give the bits of the full product."""

    @pytest.fixture
    def forced_clicks(self, monkeypatch):
        # a click wherever the trajectory's own uniform draw is below 0.3:
        # about a third of the steps, mixed across columns at every step
        sample = dynamics.sample_outcomes

        def often(ops, u, r, noise):
            _, summary = sample(ops, u, r, noise)
            return (noise < 0.3).astype(float), summary

        monkeypatch.setattr(dynamics, "sample_outcomes", often)

    def test_columns_match_single_runs_and_dense_steps(self, forced_clicks):
        p = params(t_final=0.02, seed=2)
        ops = build_step_operators(p)
        outcomes, states, logw = filter_batch(p, ops, range(12))
        clicks = outcomes.sum(axis=1)
        assert np.any((clicks > 0) & (clicks < 12))  # steps with a mix of columns
        for col in range(12):
            one = filter_trajectory(p, traj_index=col, ops=ops)
            assert np.array_equal(outcomes[:, col], one.record)
            assert np.array_equal(states[:, :, col], one.coords)
            assert np.array_equal(logw[:, col], one.log_weight)
        for s, y in enumerate(outcomes):
            dense = ops.combine(stack_products(ops.forward, states[s]), y)
            w = np.sqrt(2.0) * dense[0]
            assert np.array_equal(states[s + 1], dense / w)
            assert np.array_equal(logw[s + 1], logw[s] + np.log(w))


class TestFilterTrajectory:
    def test_dark_state_constant(self):
        p = params(omega=0.0, nbar=0.0, t_final=0.5)
        fr = filter_trajectory(p)
        assert not np.any(fr.record)
        assert np.max(np.abs(to_matrix(fr.coords) - GROUND)) < 1e-12
        assert np.max(np.abs(fr.log_weight)) < 1e-12

    def test_unnormalized_trace_is_product_of_step_probabilities(self):
        p = params(dt=1e-2, t_final=2.0, seed=5)
        ops = build_step_operators(p)
        fr = filter_trajectory(p)
        log_prob = 0.0
        for s in range(p.n_steps):
            rho_k = channels.apply(ops.dissipation_map(), to_matrix(fr.coords[s]))
            p1 = p.dt * trace_of(mm(ops.ctc, rho_k)).real / trace_of(rho_k).real
            step_p = p1 if fr.record[s] >= 0.5 else 1.0 - p1
            log_prob += np.log(step_p)
            assert abs(fr.log_weight[s + 1] - log_prob) < 1e-10

    def test_single_detection_records_exist(self):
        p = params(seed=0)
        ops = build_step_operators(p)
        outcomes, _, _ = filter_batch(p, ops, range(32))
        detections = (outcomes >= 0.5).sum(axis=0)
        assert np.any(detections == 1)

    def test_bit_identical_reruns(self):
        p = params(t_final=0.5, seed=9)
        a = filter_trajectory(p)
        b = filter_trajectory(p)
        assert np.array_equal(a.record, b.record)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.log_weight, b.log_weight)

    def test_batch_member_matches_single(self):
        for unraveling in ("jump", "homodyne_x"):
            p = params(unraveling=unraveling, t_final=0.3, seed=4)
            ops = build_step_operators(p)
            outcomes, states, logw = filter_batch(p, ops, range(8))
            single = filter_trajectory(p, traj_index=5, ops=ops)
            assert np.array_equal(outcomes[:, 5], single.record)
            assert np.array_equal(states[:, :, 5], single.coords)

    def test_filtered_states_stay_physical(self):
        for unraveling in ("jump", "homodyne_x", "homodyne_y"):
            p = params(unraveling=unraveling, t_final=1.0, seed=11)
            fr = filter_trajectory(p)
            states = to_matrix(fr.coords)
            assert qmath.min_eigenvalue_stack(states).min() >= -1e-10
            traces = np.einsum("tii->t", states).real
            assert np.max(np.abs(traces - 1.0)) < 1e-12

    def test_unnormalized_view(self):
        # exp(log_weight) * states is the plain, unnormalized Kraus
        # propagation of rho0 along the record
        p = params(dt=1e-2, t_final=0.2, seed=3)
        ops = build_step_operators(p)
        fr = filter_trajectory(p, ops=ops)
        raw = np.asarray(p.rho0)
        for s, y in enumerate(fr.record):
            raw = channels.apply(ops.conditional_map(y), raw)
            unnormalized = np.exp(fr.log_weight[s + 1]) * to_matrix(fr.coords[s + 1])
            assert np.max(np.abs(unnormalized - raw)) / np.abs(raw).max() < 1e-12

    def test_batch_memory_stays_near_its_output(self):
        # the filter keeps no full-horizon buffers beyond the noise it draws
        p = params(t_final=1.0, seed=1)
        ops = build_step_operators(p)
        tracemalloc.start()
        try:
            out = filter_batch(p, ops, range(512))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in out)
        assert peak <= 1.25 * returned

    def test_distinct_streams(self):
        s0, s1 = draw_noise(0, [0, 1], 4, "jump", 1e-3).T
        (d0,) = draw_noise(0, [0], 4, "jump", 1e-3, domain=1).T
        assert not np.allclose(s0, s1)
        assert not np.allclose(s0, d0)


def reference_noise(master_seed, indices, n, unraveling, dt, domain=0):
    """`draw_noise` seeded stream by stream: column i draws from PCG64 seeded
    by SeedSequence(entropy=master_seed, spawn_key=(domain, indices[i]))."""
    noise = np.empty((n, len(indices)))
    for col, i in enumerate(indices):
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(domain, i))
        rng = np.random.Generator(np.random.PCG64(ss))
        noise[:, col] = rng.random(n) if unraveling == "jump" \
            else rng.normal(0.0, np.sqrt(dt), size=n)
    return noise


@st.composite
def index_sets(draw):
    """One index, or a shuffled set with 0, 2^32 - 1 and repeats."""
    word = st.integers(0, 2 ** 32 - 1)
    if draw(st.booleans()):
        return [draw(word)]
    rest = draw(st.lists(word, max_size=4))
    return draw(st.permutations([0, 2 ** 32 - 1, 0] + rest + rest[:1]))


class TestDrawNoise:
    # seeds at the word-count edges of SeedSequence's entropy (1, 2, 3, 4
    # and more than 4 words; four or more get no padding), domains of one
    # and two words
    @given(seed=st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 96,
                                           2 ** 128 - 1, 2 ** 128]),
                          st.integers(0, 2 ** 160)),
           domain=st.one_of(st.sampled_from([0, 1, 2 ** 32 - 1]),
                            st.integers(2 ** 32, 2 ** 64)),
           indices=index_sets(), n=st.sampled_from([0, 1, 7]),
           unraveling=st.sampled_from(["jump", "homodyne_x"]))
    @example(seed=2 ** 128 + 5, domain=2 ** 33, indices=[2 ** 32 - 1, 0], n=3,
             unraveling="homodyne_x")
    @example(seed=10 ** 40, domain=1, indices=[0], n=0, unraveling="jump")
    @settings(max_examples=100, deadline=None)
    def test_matches_per_stream_seeding(self, seed, domain, indices, n, unraveling):
        got = draw_noise(seed, indices, n, unraveling, 2e-3, domain)
        want = reference_noise(seed, indices, n, unraveling, 2e-3, domain)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("index", [-1, 2 ** 32, 2 ** 64 + 1])
    def test_rejects_index_outside_one_word(self, index):
        # a uint32 cast would wrap it onto another trajectory's stream
        with pytest.raises(ValueError, match=f"trajectory index {index} "):
            draw_noise(0, [3, index, 4], 5, "jump", 1e-3)

    @pytest.mark.parametrize("seed, domain", [(-1, 0), (-2 ** 40, 0), (0, -1)])
    def test_rejects_negative_seed_or_domain(self, seed, domain):
        # keeping only the low word would alias -1 onto 2^32 - 1 and
        # -2^40 onto 0
        with pytest.raises(ValueError, match="non-negative"):
            draw_noise(seed, [0, 1], 3, "jump", 1e-3, domain)


class TestEnsembleMeanConsistency:
    def test_short_horizon_mean_matches_unconditional(self):
        n_traj = 300
        for unraveling in ("jump", "homodyne_x"):
            p = params(unraveling=unraveling, t_final=1.5, seed=77)
            ops = build_step_operators(p)
            _, states, _ = filter_batch(p, ops, range(n_traj))
            mean = to_matrix(states.mean(axis=2))
            uncond = to_matrix(unconditional_series(p))
            tol = 4.0 / np.sqrt(n_traj) + 5.0 * p.dt
            assert np.max(np.abs(mean - uncond)) < tol
