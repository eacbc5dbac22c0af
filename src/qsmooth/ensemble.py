"""Seeded Monte-Carlo ensembles over measurement records.

Trajectories run in vectorized lockstep in fixed-size chunks, each one
driven only by its own stream derived from (params.seed, index), and all
reductions happen in fixed index order. Statistics are therefore
bit-identical from run to run and independent of how the work is batched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import smoothing
from .dynamics import ModelParams, build_step_operators, filter_batch

_CHUNK = 512
_BLOCK = 8  # time steps per batch of statistics in the backward pass


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """What to run: n_traj trajectories of params, seeded by params.seed."""

    params: ModelParams
    n_traj: int
    steady_window: tuple = (4.0, None)

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")


@dataclass(eq=False)
class EnsembleResult:
    """Per-time ensemble statistics with standard errors.

    Standard errors are NaN when n_traj == 1. The steady-window fields
    summarize the per-trajectory time-averaged purity gain of smoothing
    over filtering inside `window`, which makes the gain estimate paired
    (one number per trajectory) and its standard error meaningful.
    """

    times: np.ndarray
    n_traj: int
    avg_purity_filtered: np.ndarray
    se_purity_filtered: np.ndarray
    avg_purity_smoothed: np.ndarray
    se_purity_smoothed: np.ndarray
    mean_bloch_filtered: np.ndarray
    mean_bloch_smoothed: np.ndarray
    uncond_bloch: np.ndarray
    uncond_purity: np.ndarray
    window: tuple
    purity_gain_mean: float
    purity_gain_se: float
    relative_improvement: float
    min_smoothed_eigenvalue: float
    max_smoothed_trace_defect: float


def run_ensemble(spec: EnsembleSpec) -> EnsembleResult:
    """Monte-Carlo ensemble of filtered and smoothed trajectories.

    Deterministic given the spec: trajectory i always consumes stream
    (params.seed, i) and chunks are reduced in index order.
    """
    p = spec.params
    ops = build_step_operators(p)
    n = p.n_steps
    times = p.times
    n_traj = spec.n_traj

    lo = spec.steady_window[0]
    hi = spec.steady_window[1] if spec.steady_window[1] is not None else p.t_final
    win = (times >= lo) & (times <= hi)

    # index 0: filtered, 1: smoothed. Spreads are summed as deviations from
    # trajectory 0 (row 0 of chunk 0), so that where every trajectory agrees
    # the standard error is exactly 0, not amplified round-off.
    pur_sum = np.zeros((2, n + 1))
    pur_dev = np.zeros((2, 2, n + 1))  # sums of (pur - shift) and its square
    bloch_sum = np.zeros((2, n + 1, 3))
    gain_sum = 0.0
    gain_dev = np.zeros(2)
    min_eig, max_tr_defect = np.inf, 0.0

    for start in range(0, n_traj, _CHUNK):
        idx = range(start, min(start + _CHUNK, n_traj))
        outcomes, states, _ = filter_batch(p, ops, idx)
        nb = states.shape[2]

        # Backward pass: the walk's effects go into a coordinate-major
        # buffer of _BLOCK time steps; the filtered and smoothed statistics
        # then run once per block, over all of its (time, trajectory) pairs.
        pur = np.empty((2, nb, n + 1))
        buf = np.empty((4, _BLOCK, nb))
        walk = smoothing.backward_walk(ops, outcomes)
        for stop in range(n + 1, 0, -_BLOCK):
            first = max(stop - _BLOCK, 0)  # the block holds times first .. stop - 1
            for s, effect, _ in itertools.islice(walk, stop - first):
                buf[:, s - first] = effect
            # (4, time, trajectory) coordinates of the block
            r = states[first:stop].transpose(1, 0, 2)
            pur_f, bloch_f, _, _ = smoothing.qubit_statistics(r)
            pur_s, bloch_s, low, defect = smoothing.qubit_statistics(
                smoothing.petz_fuchs_series(r, buf[:, :stop - first], first, start))
            both = np.stack((pur_f, pur_s))  # (2, time, trajectory)
            pur[:, :, first:stop] = both.transpose(0, 2, 1)
            pur_sum[:, first:stop] += both.sum(axis=2)
            for kind, bloch in enumerate((bloch_f, bloch_s)):
                # a trajectory-major copy keeps the sums in index order
                by_traj = np.ascontiguousarray(bloch.transpose(2, 1, 0))
                bloch_sum[kind, first:stop] += by_traj.sum(axis=0)
            min_eig = min(min_eig, float(low.min()))
            max_tr_defect = max(max_tr_defect, float(defect.max()))

        if np.any(win):
            gains = (pur[1][:, win] - pur[0][:, win]).mean(axis=1)
            gain_sum += gains.sum()
            if start == 0:
                gain_shift = gains[0]
            gains -= gain_shift
            gain_dev += (gains.sum(), (gains * gains).sum())
        if start == 0:
            pur_shift = pur[:, :1].copy()
        pur -= pur_shift
        pur_dev[0] += pur.sum(axis=1)
        pur_dev[1] += np.square(pur, out=pur).sum(axis=1)

    def _mean_se(total, dev):
        mean = total / n_traj
        if n_traj < 2:
            return mean, np.full_like(np.asarray(mean, dtype=float), np.nan)
        d = dev[0] / n_traj
        var = (dev[1] / n_traj - d * d) * n_traj / (n_traj - 1)
        return mean, np.sqrt(np.maximum(var, 0.0) / n_traj)

    (pf_mean, ps_mean), (pf_se, ps_se) = _mean_se(pur_sum, pur_dev)
    if np.any(win):
        g_mean, g_se = _mean_se(np.asarray(gain_sum), gain_dev)
        rel = float(g_mean) / float(np.mean(pf_mean[win]))
    else:
        g_mean = g_se = rel = np.nan

    from .dynamics import unconditional_series
    uncond_purity, uncond_bloch, _, _ = smoothing.qubit_statistics(unconditional_series(p).T)

    return EnsembleResult(
        times=times, n_traj=n_traj,
        avg_purity_filtered=pf_mean, se_purity_filtered=pf_se,
        avg_purity_smoothed=ps_mean, se_purity_smoothed=ps_se,
        mean_bloch_filtered=bloch_sum[0] / n_traj,
        mean_bloch_smoothed=bloch_sum[1] / n_traj,
        uncond_bloch=uncond_bloch.T, uncond_purity=uncond_purity,
        window=(lo, hi),
        purity_gain_mean=float(g_mean), purity_gain_se=float(g_se),
        relative_improvement=rel,
        min_smoothed_eigenvalue=float(min_eig),
        max_smoothed_trace_defect=float(max_tr_defect))
