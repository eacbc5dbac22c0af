"""Exact two-observer oracle shared by the gw and acceptance tests."""

import numpy as np

from qsmooth import smoothing
from qsmooth.dynamics import ModelParams, stack_products, to_vector, vector_trace


def gw_enumerate(record, p: ModelParams):
    """Exact two-observer smoothing along the (n,) outcomes `record`, by
    enumerating every unobserved photon-counting record of the second
    observer.

    Exponential in the record length; intended for short horizons. Returns
    (GwResult, alice_filtered) where alice_filtered (n+1, 4) is the sum of
    unnormalized true states as coordinates (it must reproduce the filtered
    state).
    """
    if len(record) != p.n_steps:
        raise ValueError(
            f"record has {len(record)} steps but the grid has {p.n_steps}")
    if p.eta < 1.0:
        raise ValueError("enumeration requires eta = 1")
    alice, bob = smoothing._true_state_operators(p, "jump")
    eff = smoothing.retrofilter(record, p)
    n = len(record)

    # branch states carry their joint likelihood in the trace; the two
    # unobserved outcomes of a branch stay adjacent
    per_time = [to_vector(p.rho0)[:, None]]
    for s in range(n):
        u = stack_products(smoothing._true_state_stack(alice, bob, record[s]), per_time[-1])
        per_time.append(u.reshape(2, 4, -1).transpose(1, 2, 0).reshape(4, -1))
    filtered = np.array([b.sum(axis=1) for b in per_time])

    # Each leaf carries its ancestor at every time; repeating an ancestor
    # once per leaf scales all weights at that time alike, which the
    # self-normalized mixtures cancel.
    leaves = np.arange(2 ** n)
    branches = np.stack([per_time[t][:, leaves >> (n - t)] for t in range(n + 1)])
    traces = vector_trace(branches.swapaxes(0, 1))
    # a branch the record rules out has zero trace: it gets zero weight
    live = traces > 0.0
    safe = np.where(live, traces, 1.0)
    gw, gw_pf, _ = smoothing._combine_true_states(
        branches / safe[:, None], np.where(live, np.log(safe), -np.inf), eff.coords)
    ess = np.full(n + 1, np.nan)
    return smoothing.GwResult(gw=gw, gw_pf=gw_pf, ess=ess), filtered
