"""Backward effect propagation and the smoothed-state estimators.

The retrofiltered effect starts from the identity at the final time and is
pulled back through the adjoints of the same per-step conditional maps
that generated the filtered trajectory. The central estimator is the
closed form

    rho_S(t)  =  sqrt(rho_F(t)) E_R(t) sqrt(rho_F(t)) / Tr[...],

which is also available as a backward recursion through the Petz recovery
map of each step (the two agree on the support of the filtered state).
Alongside it live the smoothed weak-valued state and a two-observer
estimator that mixes "true" states conditioned on a second, unobserved
record. Every record path pulls effects back through `backward_walk` and
smooths on qubit coordinates; `gw_smooth` pushes its true states forward
through `dynamics.forward_walk`. `petz_fuchs`, `swv_state` and
`petz_fuchs_recursive` are the matrix references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, qmath
from .dynamics import (
    SQRT2,
    ModelParams,
    StepOperators,
    build_step_operators,
    draw_noise,
    filter_trajectory,
    forward_walk,
    matrix_property,
    model_operators,
    stack_products,
    to_matrix,
    to_vector,
    vector_trace,
)
from .qmath import IDENTITY2, ZERO_TRACE_TOL, ZeroTraceError, mm, trace_of


class DegenerateWeightsError(RuntimeError):
    """Importance weights collapsed onto fewer than two samples."""


@dataclass(eq=False)
class EffectSeries:
    """Retrofiltered effects on the grid, trace-rescaled for stability.

    `coords` (n+1, 4) are the effects in `BASIS`; exp(log_scale[i]) times
    the effect of coords[i] is the raw pulled-back effect. The rescaling
    cancels in every normalized smoothed state.
    """

    coords: np.ndarray
    log_scale: np.ndarray


# A click column whose pulled-back trace row is within this many round-offs
# of its terms is zero: no state can produce the click.
_CLICK_ROUNDOFF = 1024.0


def _adjoint_step_batch(ops: StepOperators, outcomes_col, effects):
    """One backward step E <- F_y^dag[E] per column, as e <- S_y^T e.

    `effects` are coordinate columns (4, N). Photon counting applies S_0^T
    to every column and S_1^T only to the columns that click, with the bits
    of the full product. Each result is rescaled to the identity's trace,
    Tr E = 2, so records of any length stay inside floating-point range;
    returns (effects, the factors divided out). A zero F_y^dag[E] (no state
    can produce y, e.g. a click at eta = 0) stays zero.

    Only a click can pull an effect back to zero: M_0, K_0, U and the
    homodyne M_y are invertible. So a click column whose trace row is at
    most `_CLICK_ROUNDOFF` eps sum_j |S_1^T|_0j |e_j|, the size of its
    round-off, is set to exactly zero.
    """
    if ops.unraveling != "jump":
        e = ops.combine(stack_products(ops.backward, effects), outcomes_col)
    else:
        e = stack_products(ops.backward[:4], effects)
        clicks = (outcomes_col >= 0.5).nonzero()[0]
        if clicks.size:
            s1t, hit = ops.backward[4:], effects[:, clicks]
            pulled = stack_products(s1t, hit)
            roundoff = _CLICK_ROUNDOFF * np.finfo(float).eps * (np.abs(s1t[0]) @ np.abs(hit))
            pulled[:, pulled[0] <= roundoff] = 0.0
            e[:, clicks] = pulled
    scale = vector_trace(e) / 2
    return np.divide(e, scale, out=e, where=scale != 0.0), scale  # a zero effect stays


# perfbench/spans.py traces the backward step under this name as well
_adjoint_step = _adjoint_step_batch


def backward_walk(ops: StepOperators, outcomes):
    """(s, effects (4, N), scale (N,)) for s = n, ..., 0 along the records
    `outcomes` (n, N): E(T) = identity, then one `_adjoint_step_batch` per
    step, with `scale` the factor that step divided out."""
    n, width = outcomes.shape
    e = np.broadcast_to(to_vector(IDENTITY2)[:, None], (4, width))
    yield n, e, np.ones(width)
    for s in range(n - 1, -1, -1):
        e, scale = _adjoint_step_batch(ops, outcomes[s], e)
        yield s, e, scale


def retrofilter(record, p: ModelParams) -> EffectSeries:
    """Retrofiltered effects along the (n,) outcomes `record`: the width-1
    `backward_walk`, with the steps' trace rescalings accumulated into a log
    scale. Raises ValueError on an outcome the instrument cannot record
    (`StepOperators.checked_record`), and ZeroTraceError naming the latest
    time index from which no state can produce the rest of the record."""
    ops = build_step_operators(p)
    walk = list(backward_walk(ops, ops.checked_record(record)[:, None]))
    dead = [s for s, _, scale in walk if not scale[0] > 0.0]  # latest first
    if dead:
        raise ZeroTraceError(f"no state at time index {dead[0]} can produce the record")
    log_scale = np.cumsum([np.log(scale[0]) for _, _, scale in walk])[::-1]
    return EffectSeries(coords=np.array([e[:, 0] for _, e, _ in walk[::-1]]),
                        log_scale=log_scale)


# -- smoothed-state estimators ----------------------------------------------

def petz_fuchs(filtered, effect):
    """Normalized sqrt(rho_F) E sqrt(rho_F); PSD by construction.

    Accepts the filtered state at any scale. Raises ZeroTraceError when
    the effect assigns (near-)zero likelihood to the state.
    """
    rho = np.asarray(filtered, dtype=complex)
    tr = trace_of(rho).real
    if tr <= ZERO_TRACE_TOL:
        raise ZeroTraceError("filtered state has (near-)zero trace")
    root = qmath.hermitian_sqrt(rho / tr)
    out = mm(root, mm(np.asarray(effect, dtype=complex), root))
    w = trace_of(out).real
    if w <= ZERO_TRACE_TOL:
        raise ZeroTraceError("record is inconsistent with the filtered state")
    return out / w


def _dot3(a, b):
    """Dot products of 3-vectors along the leading axis, (3, ...) -> (...),
    as explicit multiply-adds."""
    ab = a * b
    return ab[0] + ab[1] + ab[2]


def qubit_sandwich(r, e):
    """Coordinates of sqrt(rho) E sqrt(rho), rho = r / Tr r, for qubit columns.

    r (4, ...) and e (4, ...) or (4, 1) are coordinates in `BASIS`,
    coordinate on the leading axis. The root, sqrt(rho) = q0 + q.sigma in
    Pauli form, is the closed form of `qmath.sqrt_psd_stack`; with
    E = e0 + e.sigma the sandwich, linear in E, is q0^2 e0 + 2 q0 q.e +
    |q|^2 e0 + ((q0^2 - |q|^2) e + 2 (q0 e0 + q.e) q).sigma. An r of zero
    trace gives a zero column. Explicit multiply-adds, so a column's bits do
    not depend on the batch shape.
    """
    p = r / np.where(r[:1] > 0.0, 2.0 * r[:1], np.inf)  # rho = p0 + p.sigma
    p0, pv = p[0], p[1:]
    pv2 = _dot3(pv, pv)  # tr^2 / 4 - det
    lam_max = p0 + np.sqrt(pv2)
    lam_min = np.maximum(p0 * p0 - pv2, 0.0) / np.where(lam_max > 0.0, lam_max, 1.0)
    lam_min = np.where(lam_min < qmath.RANK_FLOOR_RTOL * lam_max, 0.0, lam_min)
    denom = np.sqrt(lam_max) + np.sqrt(lam_min)
    safe = np.where(denom > 0.0, denom, 1.0)  # zero matrix -> zero root
    q0 = (p0 + np.sqrt(lam_min * lam_max)) / safe
    qv = pv / safe
    e0, ev = e[0], e[1:]
    qe, qq, q00 = _dot3(qv, ev), _dot3(qv, qv), q0 * q0
    out = np.empty_like(r)  # in r's memory layout
    out[0] = q00 * e0 + 2.0 * q0 * qe + qq * e0
    out[1:] = (q00 - qq) * ev + (2.0 * (q0 * e0 + qe)) * qv
    return out


def qubit_statistics(s):
    """(purity, Bloch vector, smallest eigenvalue, |trace - 1|) per column of
    normalized qubit coordinates s (4, ...), state (s0 + s.sigma) / sqrt(2):
    sum_a s_a^2, sqrt(2) s, (s0 - |s|) / sqrt(2) and |sqrt(2) s0 - 1|. The
    Bloch vectors keep the coordinate axis in front, (3, ...)."""
    vec2 = _dot3(s[1:], s[1:])
    return (s[0] * s[0] + vec2, SQRT2 * s[1:],
            (s[0] - np.sqrt(vec2)) / SQRT2, np.abs(vector_trace(s) - 1.0))


def petz_fuchs_series(r, e, time0=0, traj0=0):
    """Normalized sqrt(rho) E sqrt(rho) per column of qubit coordinates r
    and e, (4, T) or (4, T, N). A (near-)zero weight raises ZeroTraceError
    naming the latest such time and its lowest trajectory, from time0, traj0.
    """
    sm = qubit_sandwich(r, e)
    w = vector_trace(sm)  # Tr[rho E]
    bad = w <= ZERO_TRACE_TOL
    if np.any(bad):
        k = int(np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))[-1])
        raise ZeroTraceError("record is inconsistent with the filtered state at time "
                             f"index {time0 + k}, trajectory {traj0 + int(np.argmax(bad[k]))}")
    return sm / w


def petz_fuchs_recursive(filtered_states, record, p: ModelParams):
    """Smoothed states by the backward Petz-recovery recursion along the
    (n,) outcomes `record`, given the (n+1, 2, 2) filtered states.

    Each step recovers the next smoothed state through the one-step
    conditional map with the stored filtered state as reference prior; the
    forward series is never re-simulated. Agrees with the closed form on
    the support of the filtered state. The record is checked as in
    `retrofilter`.
    """
    ops = build_step_operators(p)
    record = ops.checked_record(record)
    states = np.asarray(filtered_states, dtype=complex)
    n = len(record)
    if len(states) != n + 1:
        raise ValueError(f"record has {n} steps but there are {len(states)} filtered states")
    out = np.empty_like(states)
    last = states[n] / trace_of(states[n]).real
    out[n] = last
    for s in range(n - 1, -1, -1):
        fmap = ops.conditional_map(record[s])
        rec = channels.petz_recover(fmap, states[s], last)
        tr = trace_of(rec).real
        if tr <= ZERO_TRACE_TOL:
            raise ZeroTraceError(f"recovery produced zero weight at step {s}")
        last = rec / tr
        out[s] = last
    return out


def swv_state(filtered, effect):
    """Smoothed weak-valued state (rho E + E rho) / (2 Tr[rho E]).

    Hermitian and unit trace but not guaranteed PSD.
    """
    rho = np.asarray(filtered, dtype=complex)
    e = np.asarray(effect, dtype=complex)
    tr = trace_of(mm(rho, e)).real
    if tr <= ZERO_TRACE_TOL:
        raise ZeroTraceError("Tr[rho E] vanishes")
    return (mm(rho, e) + mm(e, rho)) / (2.0 * tr)


def swv_purity_series(r, e):
    """Purity and smallest eigenvalue of the SWV state (rho E + E rho) /
    (2 Tr[rho E]) per column of qubit coordinates r and e (4, ...). The
    Jordan product of rho = (r0 + r.sigma) / sqrt(2) and E = (e0 + e.sigma)
    / sqrt(2) has coordinates (1/sqrt(2), (r0 e + e0 r) / (sqrt(2) Tr[rho E])),
    with Tr[rho E] = sum_a r_a e_a."""
    tr = r[0] * e[0] + _dot3(r[1:], e[1:])
    s = np.empty(np.broadcast_shapes(r.shape, e.shape))
    s[0], s[1:] = 1.0 / SQRT2, (r[0] * e[1:] + e[0] * r[1:]) / (SQRT2 * tr)
    purity, _, low, _ = qubit_statistics(s)
    return purity, low


# -- one-record driver --------------------------------------------------------

@dataclass(eq=False)
class SmoothingResult:
    """Forward filtering plus backward smoothing along one record, the (n,)
    outcomes `record`. The `*_coords` series are (n+1, 4) coordinates in
    `BASIS`; `filtered` and `smoothed` give theirs as matrices."""

    record: np.ndarray
    times: np.ndarray
    filtered_coords: np.ndarray
    log_weight: np.ndarray
    effect_coords: np.ndarray
    effect_log_scale: np.ndarray
    smoothed_coords: np.ndarray
    purity_filtered: np.ndarray
    purity_smoothed: np.ndarray
    filtered = matrix_property("filtered_coords")
    smoothed = matrix_property("smoothed_coords")

    @property
    def log_pairing(self):
        """log Tr[E_R(t) rho_F(t)] with all scale bookkeeping restored.

        Constant along the record up to round-off.
        """
        w = np.sum(self.effect_coords * self.filtered_coords, axis=1)
        return np.log(w) + self.log_weight + self.effect_log_scale


def smooth_trajectory(p: ModelParams, traj_index=0) -> SmoothingResult:
    """Generate a record, filter it, and smooth it in one call."""
    fr = filter_trajectory(p, traj_index)
    eff = retrofilter(fr.record, p)
    smoothed = petz_fuchs_series(fr.coords.T, eff.coords.T, traj0=traj_index)
    return SmoothingResult(
        record=fr.record, times=p.times,
        filtered_coords=fr.coords, log_weight=fr.log_weight,
        effect_coords=eff.coords, effect_log_scale=eff.log_scale, smoothed_coords=smoothed.T,
        purity_filtered=qubit_statistics(fr.coords.T)[0],
        purity_smoothed=qubit_statistics(smoothed)[0])


# -- two-observer (true state) estimators ------------------------------------

def _true_state_operators(p: ModelParams, bob_unraveling):
    """Step operators of the true-state step, split between the observers.

    The second observer measures the absorption channel a (no drive); any
    undetected part of the emission channel (eta < 1) stays unmeasured in
    its dissipation. The first observer's measurement and the drive follow,
    with no dissipation of their own.
    """
    h, c, unmeasured = model_operators(p)
    alice = StepOperators(h, c, (), p.dt, p.unraveling, p.phi)
    bob = StepOperators(np.zeros_like(h), unmeasured[0], unmeasured[1:], p.dt, bob_unraveling)
    return alice, bob


def _true_state_stack(alice: StepOperators, bob: StepOperators, outcome):
    """Forward stack of rho -> F^alice_y[F^bob_z[rho]] for one observed y.

    The second observer's blocks are each followed by S^alice_y; a mean row
    stays as it is, since it reads the state before either measurement.
    """
    k = len(bob.blocks) * 4
    lead = alice.transfer(outcome)
    blocks = np.einsum("ij,bjk->bik", lead, bob.forward[:k].reshape(-1, 4, 4))
    return np.vstack([blocks.reshape(k, 4), bob.forward[k:]])


@dataclass(eq=False)
class GwResult:
    """Two-observer smoothing output.

    `gw` is the mixture of true states weighted by the posterior over the
    unobserved record; `gw_pf` applies the closed-form smoothing to each
    true state before mixing. `ess` is sum(w)/max(w) per grid point.
    """

    gw: np.ndarray
    gw_pf: np.ndarray
    ess: np.ndarray


def _combine_true_states(true_states, log_v, effect_vectors):
    """Self-normalized mixtures of true states against the effects.

    true_states: (T, 4, N) normalized qubit states and effect_vectors:
    (T, 4) effects, both as coordinates; log_v: (T, N) log
    importance weights. Returns (gw, gw_pf, ess).
    """
    n_t = true_states.shape[0]
    gw, gw_pf = np.empty((2, n_t, 4))
    ess = np.empty(n_t)
    for t in range(n_t):
        r = true_states[t]
        lv = log_v[t]
        v = np.exp(lv - np.max(lv))
        w = v * np.einsum("an,a->n", r, effect_vectors[t])  # Tr[E rho]
        wsum = w.sum()
        if wsum <= 0 or w.max() <= 0:
            raise DegenerateWeightsError(f"all weights vanished at index {t}")
        ess[t] = wsum / w.max()
        gw[t] = np.einsum("n,an->a", w, r) / wsum
        pf = np.einsum("n,an->a", v, qubit_sandwich(r, effect_vectors[t][:, None]))
        gw_pf[t] = pf / vector_trace(pf)
    return to_matrix(gw), to_matrix(gw_pf), ess


def gw_smooth(record, p: ModelParams, bob_unraveling, n_bob, seed) -> GwResult:
    """Monte-Carlo two-observer smoothing along a fixed observed record, the
    (n,) outcomes `record`.

    Propagates `n_bob` true-state trajectories with the observed outcome
    clamped to the record and the unobserved outcome sampled from its
    conditional distribution; trajectory i carries the accumulated
    likelihood of the observed record along its path as an importance
    weight. Deterministic given `seed`. Raises DegenerateWeightsError if
    the effective sample size drops below 2.
    """
    if n_bob < 1:
        raise ValueError(f"n_bob must be at least 1, got {n_bob}")
    if seed < 0 or seed % 1 != 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if len(record) != p.n_steps:
        raise ValueError(
            f"record has {len(record)} steps but the grid has {p.n_steps}")
    alice, bob = _true_state_operators(p, bob_unraveling)
    eff = retrofilter(record, p)
    n = len(record)

    noise = draw_noise(seed, range(n_bob), n, bob.unraveling, p.dt, domain=1)
    log_v = np.zeros((n + 1, n_bob))
    true_states = np.empty((n + 1, 4, n_bob))
    true_states[0] = to_vector(p.rho0)[:, None]
    stacks = (_true_state_stack(alice, bob, y) for y in record)
    for s, z, tr, summary in forward_walk(bob, stacks, true_states, noise, range(n_bob)):
        if bob.unraveling == "jump":
            # Sampling z from its actual conditional leaves the summed
            # observed-outcome likelihood t0 + t1 as the weight increment.
            log_v[s + 1] = log_v[s] + np.log(summary)
        else:
            # density ratio between the zero-mean ostensible Gaussian and
            # the shifted sampler of the increment z dt
            mean = summary
            log_q_ratio = -z * p.dt * mean + 0.5 * mean * mean * p.dt
            log_v[s + 1] = log_v[s] + np.log(tr) + log_q_ratio

    gw, gw_pf, ess = _combine_true_states(true_states, log_v, eff.coords)
    if np.min(ess) < 2.0:
        raise DegenerateWeightsError(
            f"effective sample size {np.min(ess):.2f} < 2 "
            f"at t index {int(np.argmin(ess))}")
    return GwResult(gw=gw, gw_pf=gw_pf, ess=ess)
