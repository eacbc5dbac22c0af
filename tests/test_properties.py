"""The smoothed state's invariants over the valid parameter space.

Draws cover all three unravelings, nbar and eta at their edges (nbar = 0,
eta in {0, 1}) and inside, dt up to 0.95 of the bound max(|c^dag c|,
|sum L^dag L|) dt < 1, pure and mixed initial states, and horizons of 1
to 40 steps. Future enumeration runs the drawn model with photon
counting, after 0 to 5 past steps and over 0 to 6 future steps. The
classical reduction draws the same rates, steps and horizons with no drive
and a diagonal initial state. Petz composability draws the seed of its
random channel pairs, priors and inputs.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmooth import checks, qmath, smoothing
from qsmooth.dynamics import UNRAVELINGS, InvalidParamsError, ModelParams
from qsmooth.ensemble import EnsembleSpec, run_ensemble


def _max_rate(nbar, eta):
    """The largest eigenvalue of c^dag c and of sum L^dag L, in units of
    gamma: the detected emission eta (nbar+1) on |e>, the absorption nbar on
    |g> and the undetected emission (1-eta) (nbar+1) on |e>."""
    return max(eta * (nbar + 1.0), nbar, (1.0 - eta) * (nbar + 1.0))


# (nbar, eta)
RATES = st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                  st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))


def _rates_and_step(draw):
    """(nbar, eta, dt) drawn over the valid space."""
    nbar, eta = draw(RATES)
    dt = draw(st.floats(0.01, 0.95)) / _max_rate(nbar, eta)
    return nbar, eta, dt


@st.composite
def models(draw):
    nbar, eta, dt = _rates_and_step(draw)
    direction = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = np.linalg.norm(direction)
    if norm < 1e-3:
        direction, norm = np.array([0.0, 0.0, -1.0]), 1.0
    radius = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    return ModelParams(
        omega=draw(st.floats(0.0, 10.0)), nbar=nbar, eta=eta,
        unraveling=draw(st.sampled_from(UNRAVELINGS)), dt=dt,
        t_final=draw(st.integers(1, 40)) * dt,
        rho0=qmath.bloch_state(*(radius / norm * direction)),
        seed=draw(st.integers(0, 2 ** 31 - 1)))


@st.composite
def diagonal_models(draw):
    """Undriven photon counting from a diagonal state: the dynamics never
    leave the diagonal, so smoothing is classical."""
    nbar, eta, dt = _rates_and_step(draw)
    return ModelParams(
        omega=0.0, nbar=nbar, eta=eta, unraveling="jump", dt=dt,
        t_final=draw(st.integers(1, 40)) * dt,
        rho0=qmath.bloch_state(0.0, 0.0, draw(st.floats(-1.0, 1.0))),
        seed=draw(st.integers(0, 2 ** 31 - 1)))


@given(RATES)
@settings(max_examples=100, deadline=None)
def test_step_bound_is_the_largest_rate(rates):
    # dt = 1 / rate itself lands within an ulp of the bound, on either side
    nbar, eta = rates
    rate = _max_rate(nbar, eta)
    ModelParams(omega=1.0, nbar=nbar, eta=eta, dt=0.99 / rate)
    with pytest.raises(InvalidParamsError, match="dt too large"):
        ModelParams(omega=1.0, nbar=nbar, eta=eta, dt=(1.0 + 1e-12) / rate)


@given(models())
@settings(max_examples=100, deadline=None)
def test_smoothing_invariants(p):
    res = smoothing.smooth_trajectory(p)
    assert checks.pairing_spread(res.log_pairing) < 1e-8
    assert qmath.min_eigenvalue_stack(res.smoothed).min() >= -1e-10
    assert np.max(np.abs(np.einsum("tii->t", res.smoothed).real - 1.0)) <= 1e-12
    assert np.max(np.abs(res.smoothed[-1] - res.filtered[-1])) <= 1e-12
    # one record and a batch of one take the same route, bit for bit
    ens = run_ensemble(EnsembleSpec(params=p, n_traj=1))
    assert np.array_equal(ens.avg_purity_filtered, res.purity_filtered)
    assert np.array_equal(ens.avg_purity_smoothed, res.purity_smoothed)
    assert np.array_equal(ens.mean_bloch_filtered, np.sqrt(2.0) * res.filtered_coords[:, 1:])
    assert np.array_equal(ens.mean_bloch_smoothed, np.sqrt(2.0) * res.smoothed_coords[:, 1:])


@given(models(), st.integers(0, 5), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_future_average_recovers_filtered(p, past, future):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # eta = 0 futures click with probability 0
        defect, tol = checks.future_enumeration(p.replace(unraveling="jump"), past, future)
    assert defect < tol


def test_future_enumeration_caps_future_steps():
    with pytest.raises(ValueError, match=r"future_steps must lie in \[0, 16\]"):
        checks.future_enumeration(ModelParams(omega=1.0, nbar=0.5), future_steps=17)


@given(diagonal_models())
@settings(max_examples=100, deadline=None)
def test_diagonal_dynamics_reduce_to_classical_smoothing(p):
    defect, tol = checks.classical_reduction(p)
    assert defect < tol


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)  # about 0.15 s an example
def test_petz_maps_compose(seed):
    defect, tol = checks.petz_composability(ModelParams(omega=5.0, nbar=0.5, seed=seed))
    assert defect < tol
