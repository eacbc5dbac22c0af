"""Completely positive maps in Kraus form and the Petz recovery map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .qmath import dag, mm


class DimMismatchError(ValueError):
    """Operator dimensions do not agree."""


@dataclass(frozen=True)
class CPMap:
    """A completely positive map given by a finite Kraus list.

    The map need not be trace preserving; conditional (trace-decreasing)
    maps are the common case here.
    """

    kraus: tuple

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValueError("CPMap needs at least one Kraus operator")
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise DimMismatchError("Kraus operators must share one square shape")
            if not np.all(np.isfinite(k)):
                raise ValueError("Kraus operator has non-finite entries")
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self):
        return self.kraus[0].shape[0]

    def completeness_defect(self):
        """max-abs deviation of sum_k K^dag K from the identity."""
        s = sum(mm(dag(k), k) for k in self.kraus)
        return float(np.max(np.abs(s - np.eye(self.dim))))


def _check_dim(cpmap, x):
    x = np.asarray(x, dtype=complex)
    if x.shape != (cpmap.dim, cpmap.dim):
        raise DimMismatchError(
            f"operand shape {x.shape} does not match map dimension {cpmap.dim}")
    return x


def apply(cpmap, rho):
    """Forward action sum_k K rho K^dag."""
    rho = _check_dim(cpmap, rho)
    out = np.zeros_like(rho)
    for k in cpmap.kraus:
        out += mm(k, mm(rho, dag(k)))
    return out


def adjoint_apply(cpmap, x):
    """Heisenberg-picture action sum_k K^dag X K."""
    x = _check_dim(cpmap, x)
    out = np.zeros_like(x)
    for k in cpmap.kraus:
        out += mm(dag(k), mm(x, k))
    return out


def compose(second, first):
    """Kraus form of second after first (all pairwise products)."""
    if second.dim != first.dim:
        raise DimMismatchError("composed maps must share dimension")
    return CPMap(tuple(mm(b, a) for b in second.kraus for a in first.kraus))


def petz_recover(cpmap, gamma, x):
    """Petz recovery of x through cpmap with reference prior gamma.

    Returns sqrt(gamma) E^dag[ E[gamma]^-1/2 x E[gamma]^-1/2 ] sqrt(gamma),
    with all inverse square roots restricted to the support of E[gamma].
    The result is invariant under rescaling of gamma.
    """
    gamma = _check_dim(cpmap, gamma)
    x = _check_dim(cpmap, x)
    egamma = apply(cpmap, gamma)
    inv = qmath.pinv_sqrt(egamma)
    root = qmath.hermitian_sqrt(gamma)
    inner = adjoint_apply(cpmap, mm(inv, mm(x, inv)))
    return mm(root, mm(inner, root))
