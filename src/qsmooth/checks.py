"""Consistency checks of the retrodictive smoothed state.

`qsmooth validate` and the acceptance suite run the same functions. Each
check takes a ModelParams and returns (defect, tolerance); it passes when
defect < tolerance. Checks on random draws use the model for its seed only.

`CHECKS` is the table `validate` runs, as (report name, check, models)
rows. `models(p)` lists the ModelParams field overrides of every model the
check runs on, derived from the configured model p; the row reports the
largest defect against the smallest tolerance.
"""

from __future__ import annotations

import numpy as np

from . import channels, classical, qmath, smoothing
from .dynamics import (UNRAVELINGS, ModelParams, build_step_operators, filter_trajectory,
                       to_matrix)
from .qmath import dag, mm, trace_of


def random_effect(rng, floor=0.05):
    """g g^dag + floor * 1 for a complex Gaussian 2x2 g."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return mm(g, dag(g)) + floor * np.eye(2)


def random_state(rng, floor=0.05):
    """`random_effect` normalized to unit trace."""
    rho = random_effect(rng, floor)
    return rho / trace_of(rho).real


def random_channel(rng):
    """Trace-preserving qubit channel from two Gaussian Kraus operators."""
    ks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    root = qmath.pinv_sqrt(sum(mm(dag(k), k) for k in ks))
    return channels.CPMap(tuple(mm(k, root) for k in ks))


def future_enumeration(p: ModelParams, past_steps=5, future_steps=6):
    """Criterion 1: smoothed states averaged over every future give back
    the filtered state.

    Runs `past_steps` of a seeded photon-counting record, walks all
    2**future_steps continuations back as one batch of records, and compares
    sum_f p(f | past) rho_S(t) with the filtered state at t entrywise. The
    weight p(f | past) = Tr[rho_F E_f] is the walk's product of scales
    times the pairing of the coordinates.
    """
    if p.unraveling != "jump":
        raise ValueError("future enumeration is defined for the jump unraveling")
    if future_steps < 0 or future_steps > 16:
        raise ValueError("future_steps must lie in [0, 16]")
    ops = build_step_operators(p)  # shared with `past`: they do not depend on t_final
    past = p.replace(t_final=max(past_steps, 1) * p.dt)
    r = filter_trajectory(past, ops=ops).coords[past_steps]  # coords[0] is rho0

    # (steps, futures): one future per column
    futures = np.array(list(np.ndindex(*([2] * future_steps))), dtype=float).T
    weights = np.ones(futures.shape[1])
    for _, e, scale in smoothing.backward_walk(ops, futures):
        weights *= scale
    weights *= r @ e  # p(future | past); the futures sum to 1
    # Below round-off a probability is 0 to the walk (its scales may even come
    # out negative); dropping those moves the mixture by < 2**16 eps = 1.5e-11.
    live = weights > np.finfo(float).eps
    smoothed = smoothing.petz_fuchs_series(
        np.repeat(r[:, None], np.count_nonzero(live), axis=1), e[:, live])
    mixture = to_matrix(smoothed @ weights[live])
    return float(np.max(np.abs(mixture - to_matrix(r)))), 1e-10


def closed_vs_recursive(p: ModelParams):
    """Criterion 3: the closed form equals the Petz-map recursion."""
    ops = build_step_operators(p)
    res = smoothing.smooth_trajectory(p, ops=ops)
    rec = smoothing.petz_fuchs_recursive(res.filtered, res.record, p, ops=ops)
    return float(np.max(np.abs(res.smoothed - rec))), 1e-8


def diagonal_smoothing(p: ModelParams):
    """(smoothed states, normalized classical smoothed weights) along one
    record of diagonal dynamics: jump unraveling, omega = 0, diagonal rho0."""
    ops = build_step_operators(p)
    res = smoothing.smooth_trajectory(p, ops=ops)
    kernel = classical.diagonal_kernel({y: ops.conditional_map(y) for y in (0, 1)})
    record = [int(b) for b in res.record.outcomes]
    cls = classical.smooth_bayes_series(kernel, record, np.diag(p.rho0).real)
    return res.smoothed, cls / cls.sum(axis=1)[:, None]


def classical_reduction(p: ModelParams):
    """Criterion 4: for diagonal dynamics the smoothed diagonal is the
    classical retrodictive smoothed distribution."""
    smoothed, cls = diagonal_smoothing(p)
    return float(np.max(np.abs(np.einsum("tii->ti", smoothed).real - cls))), 1e-10


def petz_composability(p: ModelParams):
    """Criterion 5: the Petz map of E2 after E1 is the Petz map of E1 after
    that of E2, over 200 random channel pairs, priors and inputs."""
    rng = np.random.default_rng(p.seed)
    defect = 0.0
    for _ in range(200):
        m1, m2 = random_channel(rng), random_channel(rng)
        gamma, x = random_state(rng), random_state(rng, floor=0.0)
        two_step = channels.petz_recover(
            m1, gamma, channels.petz_recover(m2, channels.apply(m1, gamma), x))
        direct = channels.petz_recover(channels.compose(m2, m1), gamma, x)
        defect = max(defect, float(np.max(np.abs(two_step - direct))))
    return defect, 1e-9


def swv_identity(p: ModelParams):
    """Criterion 8(b): the closed form is the smoothed weak-valued state
    minus [[E, sqrt(rho)], sqrt(rho)] / (2 Tr[rho E]), over 100 random
    states and effects."""
    rng = np.random.default_rng(p.seed)
    defect = 0.0
    for _ in range(100):
        rho, e = random_state(rng), random_effect(rng)
        root = qmath.hermitian_sqrt(rho)
        comm = mm(e, root) - mm(root, e)
        dc = mm(comm, root) - mm(root, comm)
        swv = smoothing.swv_state(rho, e).state
        tr = trace_of(mm(rho, e)).real
        defect = max(defect, float(np.max(np.abs(
            smoothing.petz_fuchs(rho, e) - (swv - dc / (2.0 * tr))))))
    return defect, 1e-10


def completeness_residual(p: ModelParams):
    """Completeness of the step operators: exact for photon counting and
    the dissipation; homodyne's E[M_y^dag M_y] over the ostensible Gaussian
    misses the identity at O(dt^2), which sets the tolerance."""
    ops = build_step_operators(p)
    y2 = ops.ctc * p.dt
    a = np.eye(2) - 0.5 * y2 + 0.125 * mm(y2, y2)
    hom_defect = float(np.max(np.abs(mm(a, a) + y2 - np.eye(2))))
    defect = max(ops.unconditional_map().completeness_defect(),
                 ops.dissipation_map().completeness_defect(), hom_defect)
    return defect, max(1e-12, 0.75 * (np.linalg.norm(ops.ctc, 2) * p.dt) ** 2)


def pairing_spread(log_pairing):
    """Spread of log Tr[E_R rho_F] along a record, over max(1, |mean|).

    The max - min of the log is the relative spread of the pairing itself;
    dividing by a mean near 0 (a record that carries no information) would
    turn round-off into a large number.
    """
    return float((log_pairing.max() - log_pairing.min()) / max(1.0, abs(log_pairing.mean())))


def pairing_constant(p: ModelParams):
    """Tr[E_R(t) rho_F(t)] is constant along a record."""
    return pairing_spread(smoothing.smooth_trajectory(p).log_pairing), 1e-8


CHECKS = (
    ("criterion2_enumeration", future_enumeration,
     lambda p: [dict(unraveling="jump", dt=1e-2)]),
    ("closed_vs_recursive", closed_vs_recursive,
     lambda p: [dict(unraveling=u, t_final=50 * p.dt) for u in ("jump", "homodyne_x")]),
    ("petz_composability", petz_composability, lambda p: [dict(seed=p.seed + 1)]),
    ("classical_reduction", classical_reduction,
     lambda p: [dict(omega=0.0, unraveling="jump", dt=1e-2, t_final=0.5,
                     rho0=qmath.bloch_state(0.0, 0.0, -0.4))]),
    ("completeness_residual", completeness_residual, lambda p: [{}]),
    ("pairing_constant", pairing_constant,
     lambda p: [dict(unraveling=u, t_final=min(p.t_final, 2.0)) for u in UNRAVELINGS]),
    ("swv_double_commutator", swv_identity, lambda p: [dict(seed=p.seed + 2)]),
)
