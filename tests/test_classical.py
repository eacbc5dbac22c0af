import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from path_enumeration import enumerate_joint

from qsmooth import classical
from qsmooth.classical import (
    ConditionalKernel,
    UnknownOutcomeError,
    UnreachableOutcomeError,
    cl_filter_step,
    cl_retrofilter_step,
    cl_reverse_map,
    cl_smooth_bayes,
    cl_smooth_retro_step,
)


def two_outcome_identity_kernel(lik=(0.9, 0.2)):
    """Identity backaction with outcome-0 likelihoods lik, outcome 1 the rest."""
    lik = np.asarray(lik, dtype=float)
    return ConditionalKernel({0: np.diag(lik), 1: np.diag(1.0 - lik)})


def random_kernel(rng, n_states=3, n_outcomes=2):
    raw = rng.random((n_outcomes, n_states, n_states)) + 0.05
    col = raw.sum(axis=(0, 1))
    return ConditionalKernel({y: raw[y] / col[None, :] for y in range(n_outcomes)})


class TestKernelValidation:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            ConditionalKernel({0: np.eye(2) * 0.7})

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            ConditionalKernel({0: np.array([[1.1, 0], [-0.1, 1.0]])})

    def test_unknown_outcome(self):
        k = two_outcome_identity_kernel()
        with pytest.raises(UnknownOutcomeError):
            cl_filter_step(k, 7, np.array([1.0, 0.0]))


class TestFilterStep:
    def test_pure_markov_propagation(self):
        # single outcome with likelihood one everywhere: plain chain step
        phi = np.array([[0.8, 0.3], [0.2, 0.7]])
        k = ConditionalKernel({0: phi})
        out = cl_filter_step(k, 0, np.array([0.5, 0.5]))
        assert np.allclose(out, phi @ [0.5, 0.5])

    def test_bayes_product(self):
        k = two_outcome_identity_kernel((0.9, 0.2))
        out = cl_filter_step(k, 0, np.array([0.5, 0.5]))
        assert np.allclose(out, [0.45, 0.10])

    def test_weight_is_path_sum(self):
        rng = np.random.default_rng(0)
        k = random_kernel(rng, n_states=2)
        prior = np.array([0.6, 0.4])
        record = [0, 1, 0]
        state = prior
        for y in record:
            state = cl_filter_step(k, y, state)
        joint = enumerate_joint(k, record, prior, t=len(record))
        assert state.sum() == pytest.approx(joint.sum(), abs=1e-12)
        assert np.allclose(state, joint, atol=1e-12)


class TestPathEnumeration:
    def test_matches_path_loop(self):
        # the vectorized oracle multiplies and sums in the loop's order
        rng = np.random.default_rng(5)
        k = random_kernel(rng)
        prior = rng.random(3) + 0.1
        record = [1, 0, 0, 1, 1]
        for t in range(len(record) + 1):
            ref = np.zeros(3)
            for path in itertools.product(range(3), repeat=len(record) + 1):
                w = prior[path[0]]
                for s, y in enumerate(record):
                    w *= k.matrix(y)[path[s + 1], path[s]]
                ref[path[t]] += w
            assert np.array_equal(enumerate_joint(k, record, prior, t), ref)


class TestRetrofilterStep:
    def test_uniform_through_likelihood_free_kernel(self):
        phi = np.array([[0.8, 0.3], [0.2, 0.7]])
        k = ConditionalKernel({0: phi})
        out = cl_retrofilter_step(k, 0, np.ones(2))
        assert np.allclose(out, np.ones(2))

    def test_pairing_invariance(self):
        rng = np.random.default_rng(1)
        k = random_kernel(rng, n_states=2)
        prior = np.array([0.5, 0.5])
        record = [0, 1, 1, 0]
        filt = classical.filter_series(k, record, prior)
        eff = classical.retrofilter_series(k, record)
        pairings = np.einsum("ti,ti->t", filt, eff)
        assert np.max(np.abs(pairings - pairings[0])) < 1e-14

    def test_worked_example_against_enumeration(self):
        # identity dynamics, outcome-0 likelihoods (0.9, 0.2), E' = (1, 0)
        k = two_outcome_identity_kernel((0.9, 0.2))
        out = cl_retrofilter_step(k, 0, np.array([1.0, 0.0]))
        # oracle: sum over future paths of p(path, y=0 | x) weighted by E'
        oracle = np.zeros(2)
        for x in range(2):
            for x2 in range(2):
                oracle[x] += k.matrix(0)[x2, x] * np.array([1.0, 0.0])[x2]
        assert np.allclose(out, oracle)
        assert np.allclose(out, [0.9, 0.0])


class TestSmoothBayes:
    def test_uniform_effect(self):
        state = np.array([0.3, 0.7])
        assert np.allclose(cl_smooth_bayes(state, np.ones(2)), state)

    def test_concentrating_effect(self):
        out = cl_smooth_bayes(np.array([0.3, 0.7]), np.array([1.0, 0.0]))
        assert out[1] == 0.0 and out[0] == pytest.approx(0.3)

    def test_equals_enumerated_joint(self):
        rng = np.random.default_rng(2)
        k = random_kernel(rng, n_states=2)
        prior = np.array([0.25, 0.75])
        record = [1, 0, 0, 1]
        smoothed = classical.smooth_bayes_series(k, record, prior)
        for t in range(len(record) + 1):
            joint = enumerate_joint(k, record, prior, t)
            assert np.max(np.abs(smoothed[t] - joint)) < 1e-12


class TestReverseMap:
    def test_inverse_permutation(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        k = ConditionalKernel({0: swap})
        r = cl_reverse_map(k, 0, np.array([0.3, 0.7]))
        assert np.allclose(r, swap)

    def test_column_stochastic_on_reachable(self):
        rng = np.random.default_rng(3)
        k = random_kernel(rng)
        r = cl_reverse_map(k, 1, rng.random(3) + 0.1)
        assert np.allclose(r.sum(axis=0), 1.0, atol=1e-12)

    def test_unreachable_raises_when_used(self):
        k = ConditionalKernel({0: np.array([[1.0, 1.0], [0.0, 0.0]])})
        prior = np.array([0.5, 0.5])
        with pytest.raises(UnreachableOutcomeError):
            cl_smooth_retro_step(k, 0, prior, np.array([0.2, 0.8]))

    def test_backward_route_equals_bayes(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            k = random_kernel(rng, n_states=3)
            prior = rng.random(3) + 0.1
            record = list(rng.integers(0, 2, size=5))
            bayes = classical.smooth_bayes_series(k, record, prior)
            retro = classical.smooth_retro_series(k, record, prior)
            bayes = bayes / bayes.sum(axis=1)[:, None]
            retro = retro / retro.sum(axis=1)[:, None]
            assert np.max(np.abs(bayes - retro)) < 1e-10


class TestCriterion2Analog:
    def test_future_average_recovers_filtered(self):
        rng = np.random.default_rng(5)
        k = random_kernel(rng, n_states=2)
        prior = np.array([0.4, 0.6])
        past = [0, 1]
        filt = classical.filter_series(k, past, prior)[-1]
        future_steps = 4
        acc = np.zeros(2)
        total = 0.0
        for bits in np.ndindex(*([2] * future_steps)):
            eff = np.ones(2)
            for y in reversed(bits):
                eff = cl_retrofilter_step(k, y, eff)
            w = float(eff @ filt)  # p(future | past) * norm(filt)
            smoothed = cl_smooth_bayes(filt, eff)
            if smoothed.sum() > 0:
                acc += w * smoothed / smoothed.sum()
            total += w
        assert total == pytest.approx(filt.sum(), abs=1e-12)
        assert np.max(np.abs(acc / total - filt / filt.sum())) < 1e-10


@st.composite
def kernels_and_records(draw):
    n_states = draw(st.integers(2, 4))
    steps = draw(st.integers(1, 6))
    raw = draw(st.lists(
        st.floats(0.05, 1.0), min_size=2 * n_states * n_states,
        max_size=2 * n_states * n_states))
    raw = np.array(raw).reshape(2, n_states, n_states)
    col = raw.sum(axis=(0, 1))
    kernel = ConditionalKernel({0: raw[0] / col[None, :], 1: raw[1] / col[None, :]})
    record = draw(st.lists(st.integers(0, 1), min_size=steps, max_size=steps))
    prior_raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n_states, max_size=n_states))
    return kernel, record, np.array(prior_raw)


@given(kernels_and_records())
@settings(max_examples=60, deadline=None)
def test_route_equivalence_property(case):
    kernel, record, prior = case
    bayes = classical.smooth_bayes_series(kernel, record, prior)
    retro = classical.smooth_retro_series(kernel, record, prior)
    scale = max(bayes.max(), 1e-30)
    assert np.max(np.abs(bayes - retro)) / scale < 1e-10
    for t in range(len(record) + 1):
        joint = enumerate_joint(kernel, record, prior, t)
        assert np.max(np.abs(bayes[t] - joint)) / scale < 1e-10
