import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsmooth import channels, checks, qmath, smoothing
from qsmooth.dynamics import (
    BASIS,
    ModelParams,
    build_step_operators,
    filter_trajectory,
    stack_products,
    to_matrix,
    to_vector,
    vector_trace,
)
from qsmooth.qmath import EXCITED, GROUND, ZeroTraceError, dag, mm, trace_of
from qsmooth.smoothing import (
    petz_fuchs,
    petz_fuchs_recursive,
    petz_fuchs_series,
    qubit_sandwich,
    qubit_statistics,
    retrofilter,
    smooth_trajectory,
    swv_purity_series,
    swv_state,
)

EPS = np.finfo(float).eps


def params(**kw):
    base = dict(omega=5.0, nbar=0.5, dt=1e-3, t_final=7.5, seed=0)
    base.update(kw)
    return ModelParams(**base)


def random_state(rng, full_rank=True):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = mm(g, dag(g))
    if full_rank:
        rho += 0.05 * np.eye(2)
    return rho / trace_of(rho).real


def random_effect(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    e = mm(g, dag(g)) + 0.05 * np.eye(2)
    return e / np.linalg.norm(e, 2)


def _vector(draw, n, scale=2.0):
    elems = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(elems, min_size=n, max_size=n)))


@st.composite
def qubit_states(draw):
    """Unnormalized qubit states: general, pure, maximally mixed or rank one
    plus a small multiple of the identity."""
    kind = draw(st.sampled_from(["general", "pure", "mixed", "near_rank_one"]))
    re, im = _vector(draw, 4), _vector(draw, 4)
    g = (re + 1j * im).reshape(2, 2)
    v = g[0]
    if kind == "mixed" or np.linalg.norm(v) == 0.0:
        rho = np.eye(2, dtype=complex)
    elif kind == "general":
        rho = mm(g, dag(g))
    else:
        rho = np.outer(v, v.conj())
        if kind == "near_rank_one":
            rho = rho + draw(st.floats(1e-16, 1e-6)) * np.eye(2)
    if trace_of(rho).real < 1e-6:
        rho = np.eye(2, dtype=complex)
    return draw(st.floats(1e-3, 1e3)) * rho


@st.composite
def qubit_effects(draw):
    g = (_vector(draw, 4) + 1j * _vector(draw, 4)).reshape(2, 2)
    return mm(g, dag(g))


# lmin / lmax = 5.8e-14 after normalization, next to the rank floor
NEAR_RANK_ONE = mm(np.array([[1, 1.25 + 0.5j], [1e-6 + 1j, -0.5 + 1.25j]]),
                   dag(np.array([[1, 1.25 + 0.5j], [1e-6 + 1j, -0.5 + 1.25j]])))


class TestQubitSandwich:
    @given(qubit_states(), qubit_effects())
    @settings(max_examples=300, deadline=None)
    @example(NEAR_RANK_ONE, np.eye(2, dtype=complex))
    @example(np.eye(2, dtype=complex), EXCITED)
    def test_matches_matrix_route(self, rho, effect):
        norm = rho / trace_of(rho).real
        root = qmath.sqrt_psd_stack(norm[None])[0]
        ref = to_vector(mm(root, mm(effect, root)))
        out = qubit_sandwich(to_vector(rho)[:, None],
                             to_vector(effect)[:, None])[:, 0]
        scale = max(1.0, np.abs(effect).max())
        # must hold unconditionally: Tr[sqrt(rho) E sqrt(rho)] = Tr[rho E],
        # and the sandwich is PSD
        pairing = trace_of(mm(norm, effect)).real
        assert abs(vector_trace(out) - pairing) < 1e-10 * scale
        m = np.einsum("a,aij->ij", out, BASIS)
        assert qmath.min_eigenvalue(m) >= -1e-10 * scale
        # The routes agree as well as their roots do, which is only well
        # posed away from rank one (see test_closed_form_sqrt_matches_eigh)
        w = np.linalg.eigvalsh(norm)
        if w[0] <= 0.0 or 2.0 * EPS * w[-1] / np.sqrt(w[0]) >= 1e-12:
            return
        assert np.max(np.abs(out - ref)) < 1e-12 * scale

    @given(qubit_states())
    @settings(max_examples=200, deadline=None)
    def test_statistics_match_matrix_routines(self, rho):
        norm = rho / trace_of(rho).real
        s = to_vector(norm)
        purity, bloch, low, defect = qubit_statistics(s[:, None])
        assert abs(purity[0] - trace_of(mm(norm, norm)).real) < 1e-12
        ref = [2.0 * norm[1, 0].real, 2.0 * norm[1, 0].imag, (norm[0, 0] - norm[1, 1]).real]
        assert np.max(np.abs(bloch[:, 0] - ref)) < 1e-12
        assert abs(low[0] - qmath.min_eigenvalue_stack(norm[None])[0]) < 1e-12
        assert abs(defect[0] - abs(trace_of(norm).real - 1.0)) < 1e-15
        # the trace defect reads the input, it is not zero by construction
        assert qubit_statistics(1.5 * s[:, None])[3][0] == pytest.approx(0.5, abs=1e-15)

    def test_batch_member_matches_single(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
        r = to_vector(mm(g, dag(g)))
        g = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
        e = to_vector(mm(g, dag(g)))
        wide, one = qubit_sandwich(r.T, e.T), qubit_sandwich(r[5:6].T, e[5:6].T)
        assert np.array_equal(wide[:, 5], one[:, 0])
        s = wide / vector_trace(wide)
        for a, b in zip(qubit_statistics(s), qubit_statistics(s[:, 5:6])):
            assert np.array_equal(a[..., 5], b[..., 0])

    def test_ground_against_excited_has_zero_weight(self):
        out = qubit_sandwich(to_vector(GROUND)[:, None],
                             to_vector(EXCITED)[:, None])
        assert vector_trace(out)[0] <= 1e-300
        assert np.max(np.abs(out)) <= 1e-300

    def test_zero_state_gives_zero_row(self):
        out = qubit_sandwich(np.zeros((4, 1)), to_vector(np.eye(2))[:, None])
        assert np.all(out == 0.0)


class TestCoordinateSeries:
    @given(qubit_states(), qubit_effects(), st.one_of(st.none(), st.floats(1e-7, 1e-1)))
    @settings(max_examples=300, deadline=None)
    @example(NEAR_RANK_ONE, np.eye(2, dtype=complex), 1e-6)
    def test_swv_matches_matrix_route(self, rho, effect, small):
        if small is not None:
            # the projector on rho's smaller eigenvector plus a little of
            # the drawn effect: Tr[rho E] is small for near-pure rho
            v = np.linalg.eigh(rho)[1][:, 0]
            effect = np.outer(v, v.conj()) + small * effect
        tr = trace_of(mm(rho, effect)).real
        if tr <= 1e-300:  # no weight to normalize by: the matrix route refuses
            with pytest.raises(ZeroTraceError):
                swv_state(rho, effect)
            return
        kappa = np.linalg.norm(rho) * np.linalg.norm(effect) / tr
        assume(kappa < 1e9)
        ref = swv_state(rho, effect)
        ref_purity = trace_of(mm(ref, ref)).real
        ref_low = qmath.min_eigenvalue(ref)
        purity, low = swv_purity_series(to_vector(rho)[:, None],
                                        to_vector(effect)[:, None])
        # Both routes divide by Tr[rho E], whose relative rounding error is
        # a few eps times kappa = |rho| |E| / Tr[rho E], and the purity goes
        # as its inverse square: 1e-12 up to kappa = 100, then growing with it
        tol = 1e-12 * max(1.0, 1e-2 * kappa)
        assert abs(purity[0] - ref_purity) <= tol * max(1.0, ref_purity)
        assert abs(low[0] - ref_low) <= tol * max(1.0, abs(ref_low))

    def test_zero_weight_names_time_index(self):
        r = np.repeat(to_vector(GROUND)[:, None], 6, axis=1)
        e = np.repeat(to_vector(np.eye(2))[:, None], 6, axis=1)
        e[:, 3] = to_vector(EXCITED)
        with pytest.raises(ZeroTraceError, match=r"time index 3, trajectory 0\b"):
            petz_fuchs_series(r, e)
        with pytest.raises(ZeroTraceError, match=r"time index 13, trajectory 7\b"):
            petz_fuchs_series(r, e, time0=10, traj0=7)
        # every other column smooths to the ground state
        keep = [0, 1, 2, 4, 5]
        out = petz_fuchs_series(r[:, keep], e[:, keep])
        assert np.max(np.abs(out - r[:, keep])) < 1e-15


class TestRetrofilter:
    def test_final_effect_is_identity(self):
        p = params(t_final=0.2)
        fr = filter_trajectory(p)
        eff = retrofilter(fr.record, p)
        assert np.allclose(to_matrix(eff.coords[-1]), np.eye(2))
        assert eff.log_scale[-1] == 0.0

    @pytest.mark.parametrize("unraveling", ["jump", "homodyne_x", "homodyne_y"])
    def test_pairing_constant(self, unraveling):
        p = params(unraveling=unraveling, t_final=2.0, seed=7)
        res = smooth_trajectory(p)
        lp = res.log_pairing
        assert (lp.max() - lp.min()) / abs(lp.mean()) < 1e-8

    def test_effects_stay_psd(self):
        p = params(t_final=1.0, seed=3)
        fr = filter_trajectory(p)
        eff = retrofilter(fr.record, p)
        assert qmath.min_eigenvalue_stack(to_matrix(eff.coords)).min() >= -1e-10

    def test_rescaling_bookkeeping(self):
        # effects are rescaled on every step; undoing the bookkeeping must
        # give the plain pullback through the Kraus maps
        for unraveling in ("jump", "homodyne_x"):
            p = params(unraveling=unraveling, t_final=0.05, seed=1)
            ops = build_step_operators(p)
            fr = filter_trajectory(p)
            eff = retrofilter(fr.record, p)
            raw = np.eye(2, dtype=complex)
            for i in range(p.n_steps - 1, -1, -1):
                fmap = ops.conditional_map(fr.record[i])
                raw = channels.adjoint_apply(fmap, raw)
                assert eff.log_scale[i] != 0.0
                unnormalized = np.exp(eff.log_scale[i]) * to_matrix(eff.coords[i])
                dev = np.max(np.abs(unnormalized - raw)) / np.abs(raw).max()
                assert dev < 1e-12

    # photon-counting click patterns over 8 columns: drawn, every column
    # clicks, none does, and a mix
    CLICKS = {"all": np.ones(8), "none": np.zeros(8),
              "mixed": (np.arange(8) % 3 == 1).astype(float)}

    def test_backward_batch_member_matches_single(self):
        for unraveling, clicks in [("homodyne_x", None), ("jump", None),
                                   *(("jump", c) for c in self.CLICKS)]:
            p = params(unraveling=unraveling)
            ops = build_step_operators(p)
            rng = np.random.default_rng(6)
            effects = rng.normal(size=(8, 4)).T
            outcomes = rng.normal(0.0, 30.0, size=8) if unraveling != "jump" \
                else rng.integers(0, 2, size=8).astype(float)
            if clicks is not None:
                outcomes = self.CLICKS[clicks]
            batch, scale = smoothing._adjoint_step_batch(ops, outcomes, effects)
            for col in range(8):
                one, one_scale = smoothing._adjoint_step_batch(
                    ops, outcomes[col:col + 1], effects[:, col:col + 1])
                assert np.array_equal(batch[:, col], one[:, 0])
                assert scale[col] == one_scale[0]

    @pytest.mark.parametrize("clicks", list(CLICKS))
    def test_click_sparse_step_equals_dense(self, clicks):
        # S_1^T on the click columns only, against the full product
        ops = build_step_operators(params())
        rng = np.random.default_rng(8)
        g = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
        effects = to_vector(mm(g, dag(g))).T
        outcomes = self.CLICKS[clicks]
        out, scale = smoothing._adjoint_step_batch(ops, outcomes, effects)
        dense = ops.combine(stack_products(ops.backward, effects), outcomes)
        assert np.array_equal(scale, vector_trace(dense) / 2)
        assert np.array_equal(out, dense / scale)

    def test_zero_effect_stays_zero(self):
        ops = build_step_operators(params(eta=0.0))
        effects = np.tile(to_vector(np.eye(2))[:, None], (1, 2))
        with np.errstate(all="raise"):
            out, scale = smoothing._adjoint_step_batch(ops, np.array([0.0, 1.0]), effects)
        assert scale[0] > 0.0 and np.all(out[:, 1] == 0.0) and scale[1] == 0.0

    def test_impossible_record_raises(self):
        # at eta = 0 no state can produce a click
        p = params(eta=0.0, dt=1e-2, t_final=0.05)
        record = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        with np.errstate(all="raise"), pytest.raises(ZeroTraceError, match="time index 2"):
            retrofilter(record, p)

    def test_impossible_records_caught_at_roundoff(self):
        # Without drive or thermal photons only one photon can ever be
        # emitted from the ground state, so a record with two clicks is
        # impossible. The Kraus-form pullback is then exactly zero, while
        # the transfer matrices leave round-off behind.
        n_impossible = n_possible = 0
        for eta, dt in itertools.product((0.3, 0.5, 1.0), (0.05, 0.3, 0.5, 0.9)):
            p = params(omega=0.0, nbar=0.0, eta=eta, dt=dt, t_final=6 * dt)
            ops = build_step_operators(p)
            for bits in itertools.product((0.0, 1.0), repeat=6):
                raw = np.eye(2, dtype=complex)
                for y in reversed(bits):
                    raw = channels.adjoint_apply(ops.conditional_map(y), raw)
                record = np.array(bits)
                if np.all(raw == 0.0):
                    n_impossible += 1
                    with pytest.raises(ZeroTraceError):
                        retrofilter(record, p)
                else:
                    n_possible += 1
                    retrofilter(record, p)
        assert (n_impossible, n_possible) == (684, 84)

    def test_dark_record_commutes_and_smoothing_is_trivial(self):
        p = params(omega=0.0, nbar=0.0, t_final=0.3)
        ops = build_step_operators(p)
        res = smooth_trajectory(p)
        assert not np.any(res.record)
        for eff in to_matrix(res.effect_coords):
            comm = mm(eff, ops.m0) - mm(ops.m0, eff)
            assert np.max(np.abs(comm)) < 1e-12
        assert np.max(np.abs(res.smoothed - res.filtered)) < 1e-12


class TestPetzFuchs:
    def test_identity_effect_returns_filtered(self):
        rng = np.random.default_rng(0)
        rho = random_state(rng)
        assert np.max(np.abs(petz_fuchs(rho, np.eye(2)) - rho)) < 1e-12

    def test_pure_filtered_state_unchanged(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            out = petz_fuchs(rho, random_effect(rng))
            assert np.max(np.abs(out - rho)) < 1e-10

    def test_diagonal_reduces_to_classical_product(self):
        probs = np.array([0.3, 0.7])
        vals = np.array([0.9, 0.2])
        out = petz_fuchs(np.diag(probs).astype(complex), np.diag(vals).astype(complex))
        expected = probs * vals
        expected = expected / expected.sum()
        assert np.max(np.abs(out - np.diag(expected))) < 1e-12

    def test_zero_filtered_state_raises(self):
        with pytest.raises(ZeroTraceError, match="zero trace"):
            petz_fuchs(np.zeros((2, 2), dtype=complex), np.eye(2))

    def test_zero_overlap_raises(self):
        with pytest.raises(ZeroTraceError):
            petz_fuchs(np.diag([1.0, 0.0]).astype(complex),
                       np.diag([0.0, 1.0]).astype(complex))

    def test_output_is_normalized_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            out = petz_fuchs(random_state(rng, full_rank=False), random_effect(rng))
            assert trace_of(out).real == pytest.approx(1.0, abs=1e-12)
            assert qmath.min_eigenvalue(out) >= -1e-10

    def test_series_matches_pointwise(self):
        p = params(t_final=0.3, seed=5)
        res = smooth_trajectory(p)
        for i in (0, 57, p.n_steps):
            single = petz_fuchs(res.filtered[i], to_matrix(res.effect_coords[i]))
            assert np.max(np.abs(single - res.smoothed[i])) < 1e-12


class TestRecursion:
    def test_single_step_equals_closed_form(self):
        p = params(dt=1e-2, t_final=1e-2, seed=2)
        res = smooth_trajectory(p)
        rec = petz_fuchs_recursive(res.filtered, res.record, p)
        assert np.max(np.abs(res.smoothed - rec)) < 1e-12

    @pytest.mark.parametrize("unraveling", ["jump", "homodyne_x"])
    def test_ten_step_record(self, unraveling):
        p = params(unraveling=unraveling, dt=1e-2, t_final=0.1, seed=8)
        res = smooth_trajectory(p)
        rec = petz_fuchs_recursive(res.filtered, res.record, p)
        assert np.max(np.abs(res.smoothed - rec)) < 1e-8

    def test_pure_reversible_segment(self):
        # nbar = 0 keeps every filtered state pure; smoothing cannot
        # improve on it, so the recursion returns the forward states.
        p = params(nbar=0.0, t_final=0.5, seed=4)
        fr = filter_trajectory(p)
        states = to_matrix(fr.coords)
        rec = petz_fuchs_recursive(states, fr.record, p)
        assert np.max(np.abs(rec - states)) < 1e-9

    @pytest.mark.parametrize("n_record", [4, 11])
    def test_record_length_must_match_states(self, n_record):
        # the 11 filtered states belong to a 10-step record
        p = params(dt=1e-2, t_final=0.1, seed=8)
        res = smooth_trajectory(p)
        with pytest.raises(ValueError, match=f"record has {n_record} steps but there are "
                                             "11 filtered states"):
            petz_fuchs_recursive(res.filtered, np.zeros(n_record), p)

    def test_purifying_record_shares_the_rank_floor(self):
        # nbar = 0 and eta = 1 purify the state within a few 0.9 steps; the
        # closed form and the recursion must drop the same small eigenvalues
        p = params(omega=1.1, nbar=0.0, eta=1.0, unraveling="homodyne_y", dt=0.9,
                   t_final=22.5, rho0=qmath.bloch_state(0.0, 0.0, 0.0), seed=41737)
        defect, tol = checks.closed_vs_recursive(p)
        assert defect < tol

    def test_full_length_record(self):
        # the full default horizon, including effect rescalings
        p = params(t_final=7.5, seed=12)
        res = smooth_trajectory(p)
        rec = petz_fuchs_recursive(res.filtered, res.record, p)
        assert np.max(np.abs(res.smoothed - rec)) < 1e-8


class TestSwv:
    def test_commuting_inputs_match_petz_fuchs(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        e = np.diag([0.8, 0.1]).astype(complex)
        assert np.max(np.abs(swv_state(rho, e) - petz_fuchs(rho, e))) < 1e-12

    def test_identity_effect(self):
        rng = np.random.default_rng(3)
        rho = random_state(rng)
        out = swv_state(rho, np.eye(2))
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_double_commutator_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            rho = random_state(rng)
            e = random_effect(rng)
            pf = petz_fuchs(rho, e)
            swv = swv_state(rho, e)
            root = qmath.hermitian_sqrt(rho)
            comm = mm(e, root) - mm(root, e)
            dc = mm(comm, root) - mm(root, comm)
            tr = trace_of(mm(rho, e)).real
            assert np.max(np.abs(pf - (swv - dc / (2.0 * tr)))) < 1e-10

    def test_unit_trace_and_reported_eigenvalue(self):
        # the smallest eigenvalue the coordinate series reports is the state's
        rng = np.random.default_rng(5)
        rho, e = random_state(rng), random_effect(rng)
        out = swv_state(rho, e)
        assert trace_of(out).real == pytest.approx(1.0, abs=1e-12)
        _, low = swv_purity_series(to_vector(rho)[:, None], to_vector(e)[:, None])
        assert low[0] == pytest.approx(qmath.min_eigenvalue(out), abs=1e-12)


class TestSmoothTrajectory:
    def test_final_smoothed_equals_filtered(self):
        res = smooth_trajectory(params(t_final=0.5, seed=6))
        assert np.max(np.abs(res.smoothed[-1] - res.filtered[-1])) < 1e-12

    def test_every_smoothed_state_physical(self):
        for unraveling in ("jump", "homodyne_x", "homodyne_y"):
            res = smooth_trajectory(params(unraveling=unraveling, t_final=1.0, seed=10))
            assert qmath.min_eigenvalue_stack(res.smoothed).min() >= -1e-10
            traces = np.einsum("tii->t", res.smoothed).real
            assert np.max(np.abs(traces - 1.0)) < 1e-12

    def test_purity_series_consistent(self):
        res = smooth_trajectory(params(t_final=0.3, seed=2))
        assert res.purity_filtered[0] == pytest.approx(1.0)
        i = 150
        rho = res.smoothed[i]
        assert res.purity_smoothed[i] == pytest.approx(trace_of(mm(rho, rho)).real, abs=1e-12)


class TestLongHorizon:
    def test_twenty_gamma_inverse_record_stays_stable(self):
        # 20000 steps: several effect rescalings, no under/overflow, the
        # pairing stays constant and every state stays physical.
        p = params(t_final=20.0, seed=3)
        res = smooth_trajectory(p)
        lp = res.log_pairing
        assert np.all(np.isfinite(res.effect_coords))
        assert (lp.max() - lp.min()) / abs(lp.mean()) < 1e-8
        assert qmath.min_eigenvalue_stack(res.smoothed).min() >= -1e-10


class TestThreeLevelSupport:
    def test_estimators_work_beyond_qubits(self):
        # the operator algebra is dimension agnostic even though only the
        # qubit model is wired to a sampler
        rng = np.random.default_rng(8)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = mm(g, dag(g))
        rho /= trace_of(rho).real
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        eff = mm(g, dag(g))
        out = petz_fuchs(rho, eff)
        assert out.shape == (3, 3)
        assert trace_of(out).real == pytest.approx(1.0, abs=1e-12)
        assert qmath.min_eigenvalue(out) >= -1e-10


class TestNonUnitEfficiency:
    def test_smoothing_stays_consistent_below_unit_eta(self):
        # eta < 1 routes part of the emission into the unmeasured Kraus
        # list; filtering and smoothing must stay physical and paired.
        for unraveling in ("jump", "homodyne_x"):
            p = params(unraveling=unraveling, eta=0.6, t_final=1.0, seed=17)
            res = smooth_trajectory(p)
            lp = res.log_pairing
            assert (lp.max() - lp.min()) / abs(lp.mean()) < 1e-8
            assert qmath.min_eigenvalue_stack(res.smoothed).min() >= -1e-10
            assert np.max(np.abs(res.smoothed[-1] - res.filtered[-1])) < 1e-12

    def test_lower_eta_recovers_less_purity(self):
        gains = {}
        for eta in (1.0, 0.3):
            p = params(eta=eta, t_final=1.5, seed=23)
            from qsmooth.ensemble import EnsembleSpec, run_ensemble
            res = run_ensemble(EnsembleSpec(params=p, n_traj=200,
                                            steady_window=(0.75, 1.5)))
            gains[eta] = res.purity_gain_mean
        assert gains[1.0] > gains[0.3] > 0.0


class TestCriterion2MonteCarloHomodyne:
    def test_future_average_recovers_filtered(self):
        # Continuous outcomes cannot be enumerated; sample futures from the
        # actual record distribution and average the smoothed states.
        p = params(unraveling="homodyne_x", dt=1e-2, t_final=0.3, seed=13)
        past_steps = 10
        n_fut = 400
        ops = build_step_operators(p)
        fr = filter_trajectory(p.replace(t_final=past_steps * p.dt))
        rho_f = to_matrix(fr.coords[-1])

        from qsmooth.dynamics import filter_batch
        p_fut = p.replace(t_final=(p.n_steps - past_steps) * p.dt,
                          rho0=rho_f, seed=555)
        outcomes, _, _ = filter_batch(p_fut, ops, range(n_fut))  # (steps, futures)
        # effect pullback per sampled future, reusing the recorded outcomes
        acc = np.zeros((2, 2), dtype=complex)
        for i in range(n_fut):
            eff = retrofilter(outcomes[:, i], p_fut)
            acc += petz_fuchs(rho_f, to_matrix(eff.coords[0]))
        mean = acc / n_fut
        tol = 4.0 / np.sqrt(n_fut)
        assert np.max(np.abs(mean - rho_f)) < tol
