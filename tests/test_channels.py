import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmooth import qmath
from qsmooth.channels import CPMap, DimMismatchError, adjoint_apply, apply, compose, petz_recover
from qsmooth.qmath import EXCITED, GROUND, SIGMA_MINUS, dag, mm, trace_of


def identity_map(dim):
    return CPMap((np.eye(dim, dtype=complex),))


def _rng_matrix(rng, d=2):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_cpmap(rng, d=2, n_kraus=2, trace_preserving=True):
    ks = [_rng_matrix(rng, d) for _ in range(n_kraus)]
    if trace_preserving:
        total = sum(mm(dag(k), k) for k in ks)
        root = qmath.pinv_sqrt(total)
        ks = [mm(k, root) for k in ks]
    return CPMap(tuple(ks))


def random_state(rng, d=2, full_rank=True):
    g = _rng_matrix(rng, d)
    rho = mm(g, dag(g))
    if full_rank:
        rho = rho + 0.05 * np.eye(d)
    return rho / trace_of(rho).real


def duality_gap(cpmap, rho, x):
    """Tr[X E(rho)] - Tr[E^dag(X) rho]; zero for exact arithmetic."""
    lhs = trace_of(mm(x, apply(cpmap, rho)))
    rhs = trace_of(mm(adjoint_apply(cpmap, x), rho))
    return complex(lhs - rhs)


def random_unitary(rng, d=2):
    h = _rng_matrix(rng, d)
    h = h + dag(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ dag(v)


class TestApply:
    def test_identity_kraus(self):
        rho = random_state(np.random.default_rng(0))
        out = apply(identity_map(2), rho)
        assert np.allclose(out, rho)

    def test_sigma_minus_decays_excited(self):
        out = apply(CPMap((SIGMA_MINUS,)), EXCITED)
        assert np.allclose(out, GROUND)

    def test_trace_is_sum_of_terms(self):
        rng = np.random.default_rng(1)
        m = random_cpmap(rng, trace_preserving=False)
        rho = random_state(rng)
        expected = sum(trace_of(mm(k, mm(rho, dag(k)))) for k in m.kraus)
        assert trace_of(apply(m, rho)) == pytest.approx(expected, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            apply(identity_map(2), np.eye(3, dtype=complex))


class TestAdjoint:
    def test_identity_effect_through_tp_map(self):
        m = random_cpmap(np.random.default_rng(2))
        out = adjoint_apply(m, np.eye(2, dtype=complex))
        assert np.max(np.abs(out - np.eye(2))) < 1e-12

    def test_sigma_minus_pullback(self):
        out = adjoint_apply(CPMap((SIGMA_MINUS,)), GROUND)
        assert np.allclose(out, EXCITED)

    def test_duality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_cpmap(rng, trace_preserving=False)
            rho = random_state(rng)
            x = mm(g := _rng_matrix(rng), dag(g))
            assert abs(duality_gap(m, rho, x)) < 1e-12


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(4)
        m = random_cpmap(rng)
        rho = random_state(rng)
        both = compose(identity_map(2), m)
        assert np.allclose(apply(both, rho), apply(m, rho))

    def test_unitary_product(self):
        rng = np.random.default_rng(5)
        u1, u2 = random_unitary(rng), random_unitary(rng)
        both = compose(CPMap((u2,)), CPMap((u1,)))
        assert len(both.kraus) == 1
        assert np.max(np.abs(both.kraus[0] - mm(u2, u1))) < 1e-12

    def test_action_equals_sequential(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m1 = random_cpmap(rng, trace_preserving=False)
            m2 = random_cpmap(rng, trace_preserving=False)
            rho = random_state(rng)
            lhs = apply(compose(m2, m1), rho)
            rhs = apply(m2, apply(m1, rho))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimMismatchError, match="share dimension"):
            compose(identity_map(2), identity_map(3))


class TestPetzRecover:
    def test_reverses_unitary(self):
        rng = np.random.default_rng(7)
        u = random_unitary(rng)
        m = CPMap((u,))
        gamma = random_state(rng)
        rho0 = random_state(rng)
        rec = petz_recover(m, gamma, apply(m, rho0))
        assert np.max(np.abs(rec - rho0)) < 1e-10

    def test_identity_map_projects_on_support(self):
        rng = np.random.default_rng(8)
        gamma = random_state(rng, full_rank=True)
        x = random_state(rng)
        out = petz_recover(identity_map(2), gamma, x)
        assert np.max(np.abs(out - x)) < 1e-10

    def test_fixed_point(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = random_cpmap(rng)
            gamma = random_state(rng)
            rec = petz_recover(m, gamma, apply(m, gamma))
            assert np.max(np.abs(rec - gamma)) < 1e-10

    def test_composability_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            m1 = random_cpmap(rng)
            m2 = random_cpmap(rng)
            gamma = random_state(rng)
            x = random_state(rng)
            sigma = apply(m1, gamma)
            two_step = petz_recover(m1, gamma, petz_recover(m2, sigma, x))
            direct = petz_recover(compose(m2, m1), gamma, x)
            assert np.max(np.abs(two_step - direct)) < 1e-9

    def test_composability_chain(self):
        rng = np.random.default_rng(11)
        for chain_len in (3, 4, 5):
            maps = [random_cpmap(rng) for _ in range(chain_len)]
            gamma = random_state(rng)
            x = random_state(rng)
            priors = [gamma]
            for m in maps[:-1]:
                priors.append(apply(m, priors[-1]))
            stepwise = x
            for m, pr in zip(reversed(maps), reversed(priors)):
                stepwise = petz_recover(m, pr, stepwise)
            combined = maps[0]
            for m in maps[1:]:
                combined = compose(m, combined)
            direct = petz_recover(combined, gamma, x)
            assert np.max(np.abs(stepwise - direct)) < 1e-9

    def test_outputs_stay_psd(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = random_cpmap(rng, trace_preserving=False)
            out = petz_recover(m, random_state(rng), random_state(rng))
            assert qmath.min_eigenvalue(out) >= -1e-10

    def test_scale_invariant_in_prior(self):
        rng = np.random.default_rng(13)
        m = random_cpmap(rng)
        gamma = random_state(rng)
        x = random_state(rng)
        a = petz_recover(m, gamma, x)
        b = petz_recover(m, 1e-6 * gamma, x)
        assert np.max(np.abs(a - b)) < 1e-9


class TestThreeLevelMaps:
    def test_petz_fixed_point_dim3(self):
        rng = np.random.default_rng(14)
        m = random_cpmap(rng, d=3, n_kraus=3)
        gamma = random_state(rng, d=3)
        rec = petz_recover(m, gamma, apply(m, gamma))
        assert np.max(np.abs(rec - gamma)) < 1e-10

    def test_duality_dim3(self):
        rng = np.random.default_rng(15)
        m = random_cpmap(rng, d=3, trace_preserving=False)
        rho = random_state(rng, d=3)
        g = _rng_matrix(rng, 3)
        assert abs(duality_gap(m, rho, mm(g, dag(g)))) < 1e-10


class TestCPMapValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CPMap(())

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimMismatchError):
            CPMap((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))

    def test_rejects_nonfinite(self):
        bad = np.array([[np.inf, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError):
            CPMap((bad,))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_duality_property(seed):
    rng = np.random.default_rng(seed)
    m = random_cpmap(rng, n_kraus=rng.integers(1, 4), trace_preserving=False)
    rho = random_state(rng)
    g = _rng_matrix(rng)
    x = mm(g, dag(g))
    assert abs(duality_gap(m, rho, x)) < 1e-11
