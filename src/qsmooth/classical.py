"""Discrete-state classical filtering, retrofiltering, and smoothing.

States and effects are plain nonnegative numpy vectors over a finite state
set; everything is kept unnormalized (weights double as record
likelihoods) and only normalized at read-out. Smoothing is available via
two routes that must agree: the Bayes product of the filtered state with
the retrofiltered effect, and the backward retrodictive-map recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UnknownOutcomeError(KeyError):
    """Outcome is not part of the kernel alphabet."""


class UnreachableOutcomeError(ValueError):
    """Backward step conditioned on a state the prior cannot reach."""


@dataclass(frozen=True)
class ConditionalKernel:
    """Outcome-conditioned transition kernel F_y[x', x].

    F_y(x'|x) combines measurement backaction with the outcome likelihood,
    so completeness reads sum_y sum_x' F_y(x'|x) = 1 for every x.
    """

    matrices: dict

    def __post_init__(self):
        mats = {y: np.asarray(f, dtype=float) for y, f in self.matrices.items()}
        if not mats:
            raise ValueError("kernel needs at least one outcome")
        n = next(iter(mats.values())).shape[0]
        for y, f in mats.items():
            if f.shape != (n, n):
                raise ValueError("all outcome matrices must be square and equal size")
            if not np.all(np.isfinite(f)):
                raise ValueError(f"kernel for outcome {y!r} has non-finite entries")
            if np.any(f < -1e-14):
                raise ValueError(f"kernel for outcome {y!r} has negative entries")
        total = sum(f.sum(axis=0) for f in mats.values())
        if np.max(np.abs(total - 1.0)) > 1e-12:
            raise ValueError("kernel violates completeness: sum_y sum_x' F_y(x'|x) != 1")
        object.__setattr__(self, "matrices", mats)

    @property
    def n_states(self):
        return next(iter(self.matrices.values())).shape[0]

    @property
    def outcomes(self):
        return tuple(self.matrices.keys())

    def matrix(self, y):
        try:
            return self.matrices[y]
        except KeyError:
            raise UnknownOutcomeError(f"outcome {y!r} not in alphabet {self.outcomes}")


def cl_filter_step(kernel, y, state):
    """One forward update: p'(x') = sum_x F_y(x'|x) p(x)."""
    return kernel.matrix(y) @ np.asarray(state, dtype=float)


def cl_retrofilter_step(kernel, y, effect):
    """One backward effect update: E(x) = sum_x' F_y(x'|x) E'(x')."""
    return kernel.matrix(y).T @ np.asarray(effect, dtype=float)


def cl_reverse_map(kernel, y, prior):
    """Retrodictive map R[x, x'] built from F_y and the reference prior.

    R(x|x') = F_y(x'|x) p(x) / sum_x'' F_y(x'|x'') p(x''). Columns for
    unreachable x' (zero denominator) are left at zero; use
    `cl_smooth_retro_step` to get the error checking described there.
    """
    f = kernel.matrix(y)
    prior = np.asarray(prior, dtype=float)
    denom = f @ prior
    r = np.zeros((kernel.n_states, kernel.n_states))
    reachable = denom > 0.0
    r[:, reachable] = (f[reachable, :] * prior[None, :]).T / denom[reachable]
    return r


def cl_smooth_retro_step(kernel, y, prior, smoothed_next):
    """One backward smoothing step p_S(t) = R @ p_S(t+dt).

    Raises UnreachableOutcomeError if smoothed_next puts positive weight
    on a state the prior cannot reach through F_y.
    """
    f = kernel.matrix(y)
    prior = np.asarray(prior, dtype=float)
    smoothed_next = np.asarray(smoothed_next, dtype=float)
    denom = f @ prior
    bad = (denom <= 0.0) & (smoothed_next > 0.0)
    if np.any(bad):
        raise UnreachableOutcomeError(
            f"smoothed weight on unreachable states {np.nonzero(bad)[0].tolist()}")
    return cl_reverse_map(kernel, y, prior) @ smoothed_next


def filter_series(kernel, record, prior):
    """Unnormalized filtered weights at every grid point, shape (T+1, n)."""
    out = np.empty((len(record) + 1, kernel.n_states))
    out[0] = np.asarray(prior, dtype=float)
    for i, y in enumerate(record):
        out[i + 1] = cl_filter_step(kernel, y, out[i])
    return out


def retrofilter_series(kernel, record):
    """Retrofiltered effects at every grid point, E(T) = 1, shape (T+1, n)."""
    out = np.empty((len(record) + 1, kernel.n_states))
    out[-1] = 1.0
    for i in range(len(record) - 1, -1, -1):
        out[i] = cl_retrofilter_step(kernel, record[i], out[i + 1])
    return out


def smooth_bayes_series(kernel, record, prior):
    """Smoothed weights by the Bayes product route, shape (T+1, n)."""
    return filter_series(kernel, record, prior) * retrofilter_series(kernel, record)


def smooth_retro_series(kernel, record, prior):
    """Smoothed weights by the backward retrodictive-map route.

    Starts from the filtered weights at T and recurses backward with the
    reverse map built on the stored filtered priors.
    """
    filt = filter_series(kernel, record, prior)
    out = np.empty_like(filt)
    out[-1] = filt[-1]
    for i in range(len(record) - 1, -1, -1):
        out[i] = cl_smooth_retro_step(kernel, record[i], filt[i], out[i + 1])
    return out


def sample_record(kernel, prior, steps, rng):
    """Draw a record from the true joint model; returns (record, states).

    Sampling follows p(y_t | past) = sum_x' (F_y p~)(x') / sum of all
    outcomes, then conditions the weights on the draw.
    """
    state = np.asarray(prior, dtype=float).copy()
    outcomes = list(kernel.outcomes)
    record = []
    for _ in range(steps):
        weights = np.array([cl_filter_step(kernel, y, state).sum() for y in outcomes])
        probs = weights / weights.sum()
        y = outcomes[rng.choice(len(outcomes), p=probs)]
        record.append(y)
        state = cl_filter_step(kernel, y, state)
        state /= state.sum()
    return record, state


def diagonal_kernel(maps):
    """Classical kernel induced by diagonal-preserving quantum maps.

    `maps` is a dict outcome -> CPMap whose action preserves diagonal
    matrices in the computational basis. F_y(x'|x) is read off as the x'
    diagonal entry of the map applied to |x><x|.
    """
    from . import channels  # local import keeps module dependencies one-way

    n = next(iter(maps.values())).dim
    mats = {}
    for y, cpmap in maps.items():
        f = np.empty((n, n))
        for x in range(n):
            basis = np.zeros((n, n), dtype=complex)
            basis[x, x] = 1.0
            out = channels.apply(cpmap, basis)
            f[:, x] = np.diag(out).real
        mats[y] = f
    return ConditionalKernel(mats)
