"""Seeded Monte-Carlo ensembles over measurement records.

Trajectories run in vectorized lockstep in fixed-size chunks, each one
driven only by its own stream derived from (params.seed, index), and all
reductions happen in fixed index order. Statistics are therefore
bit-identical from run to run and independent of how the work is batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath, smoothing
from .dynamics import (
    ModelParams,
    build_step_operators,
    filter_batch,
    to_vector,
    vector_trace,
)

_CHUNK = 512


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

    @property
    def window_avg_purity_smoothed(self):
        lo, hi = self.window
        sel = (self.times >= lo) & (self.times <= hi)
        return float(np.mean(self.avg_purity_smoothed[sel]))


def run_ensemble(spec: EnsembleSpec) -> EnsembleResult:
    """Monte-Carlo ensemble of filtered and smoothed trajectories.

    Deterministic given the spec: trajectory i always consumes stream
    (params.seed, i) and chunks are reduced in index order.
    """
    p = spec.params
    if p.dim != 2:
        raise ValueError("ensemble statistics assume a qubit model")
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
        outcomes, _, states, _ = filter_batch(p, ops, idx)
        nb = states.shape[0]

        # backward pass fused with per-time filtered and smoothed statistics
        pur = np.empty((2, nb, n + 1))
        effect = np.broadcast_to(to_vector(np.eye(p.dim), ops.basis),
                                 states[:, 0].shape).copy()
        for s in range(n, -1, -1):
            pur[0, :, s], bloch_f, _, _ = smoothing.qubit_statistics(states[:, s])
            sm = smoothing.qubit_sandwich(states[:, s], effect)
            w = vector_trace(sm)
            if np.any(w <= 1e-300):
                raise qmath.ZeroTraceError(
                    "record is inconsistent with the filtered state at time index "
                    f"{s}, trajectory {start + int(np.argmax(w <= 1e-300))}")
            pur[1, :, s], bloch_s, low, defect = smoothing.qubit_statistics(sm / w[:, None])
            bloch_sum[0, s] += bloch_f.sum(axis=0)
            bloch_sum[1, s] += bloch_s.sum(axis=0)
            pur_sum[:, s] += pur[:, :, s].sum(axis=1)
            min_eig = min(min_eig, float(low.min()))
            max_tr_defect = max(max_tr_defect, float(defect.max()))
            if s > 0:
                effect, _ = smoothing._adjoint_step_batch(ops, outcomes[:, s - 1], effect)

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
    uncond = unconditional_series(p)
    uncond_purity = np.einsum("tij,tji->t", uncond, uncond).real

    return EnsembleResult(
        times=times, n_traj=n_traj,
        avg_purity_filtered=pf_mean, se_purity_filtered=pf_se,
        avg_purity_smoothed=ps_mean, se_purity_smoothed=ps_se,
        mean_bloch_filtered=bloch_sum[0] / n_traj,
        mean_bloch_smoothed=bloch_sum[1] / n_traj,
        uncond_bloch=qmath.bloch_vector(uncond), uncond_purity=uncond_purity,
        window=(lo, hi),
        purity_gain_mean=float(g_mean), purity_gain_se=float(g_se),
        relative_improvement=rel,
        min_smoothed_eigenvalue=float(min_eig),
        max_smoothed_trace_defect=float(max_tr_defect))
