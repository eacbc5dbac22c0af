"""Dense complex linear algebra on small Hermitian matrices.

Everything here operates on plain numpy arrays. Functions accept stacked
inputs of shape (..., d, d) where noted; the spectral routines
(`hermitian_sqrt`, `pinv_sqrt`) take a single matrix.
Eigendecomposition is the canonical spectral routine; `sqrt_psd_stack`
carries a closed-form 2x2 fast path that is tested against it.
"""

from __future__ import annotations

import numpy as np

# Eigenvalues in [-PSD_CLAMP_TOL, 0) are treated as exact zeros (round-off
# from repeated map applications); anything below is a genuine PSD violation.
PSD_CLAMP_TOL = 1e-10

# Relative support threshold for pseudo-inverse square roots.
SUPPORT_RTOL = 1e-12

# Eigenvalues below this fraction of the largest one are double-precision
# junk on a rank-deficient matrix; square roots would amplify them to
# sqrt(eps), so the spectral routines floor them to exact zeros.
RANK_FLOOR_RTOL = 1e-14

# A trace or weight at or below this is zero: there is nothing to
# normalize by.
ZERO_TRACE_TOL = 1e-300


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the PSD clamp tolerance."""


class ZeroTraceError(ValueError):
    """State weight too small to normalize."""


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
IDENTITY2 = np.eye(2, dtype=complex)

EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
GROUND = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_PLUS, SIGMA_MINUS, IDENTITY2,
           EXCITED, GROUND):
    _m.setflags(write=False)


def dag(a):
    """Conjugate transpose, batched over leading axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def mm(a, b):
    """Matrix product, batched over leading axes."""
    return np.einsum("...ij,...jk->...ik", a, b)


def trace_of(a):
    """Trace, batched over leading axes."""
    return np.einsum("...ii->...", a)


def hermitize(m):
    """Hermitian part (m + m^dag) / 2."""
    return 0.5 * (m + dag(m))


def _eigh_clamped(m):
    """eigh of the hermitized input with negative eigenvalues clamped to 0.

    Raises NotPSDError if any eigenvalue lies below -PSD_CLAMP_TOL.
    """
    w, v = np.linalg.eigh(hermitize(np.asarray(m, dtype=complex)))
    if w[0] < -PSD_CLAMP_TOL:
        raise NotPSDError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    return np.maximum(w, 0.0), v


def hermitian_sqrt(m):
    """Hermitian PSD square root S with S @ S = m.

    Eigenvalues in [-PSD_CLAMP_TOL, 0) are clamped to zero before the root,
    and relative rank-deficiency junk is floored (see RANK_FLOOR_RTOL).
    """
    w, v = _eigh_clamped(m)
    w[w < RANK_FLOOR_RTOL * w[-1]] = 0.0
    return (v * np.sqrt(w)) @ dag(v)


def pinv_sqrt(m):
    """Support-restricted inverse square root of a PSD matrix.

    Eigenvalues above SUPPORT_RTOL times the largest eigenvalue map to
    lambda**-0.5, the rest to 0, so support detection is scale free for
    unnormalized states.
    """
    w, v = _eigh_clamped(m)
    tol = SUPPORT_RTOL * (w[-1] if w[-1] > 0 else 1.0)
    inv = np.where(w > tol, 1.0 / np.sqrt(np.maximum(w, tol)), 0.0)
    return (v * inv) @ dag(v)


def purity(rho):
    """Tr[rho^2] of the normalized state rho / Tr[rho]."""
    t = trace_of(rho).real
    if t <= ZERO_TRACE_TOL:
        raise ZeroTraceError("state has (near-)zero trace")
    return float(trace_of(mm(rho, rho)).real) / (t * t)


def min_eigenvalue(m):
    """Smallest eigenvalue of the hermitized input."""
    return float(np.linalg.eigvalsh(hermitize(np.asarray(m, dtype=complex)))[0])


def bloch_vector(states):
    """(<sx>, <sy>, <sz>) of normalized qubit states, shape (..., 3)."""
    out = np.empty(states.shape[:-2] + (3,))
    out[..., 0] = 2.0 * states[..., 1, 0].real
    out[..., 1] = 2.0 * states[..., 1, 0].imag
    out[..., 2] = (states[..., 0, 0] - states[..., 1, 1]).real
    return out


def bloch_state(x, y, z):
    """Qubit density matrix with the given Bloch components."""
    r = np.sqrt(x * x + y * y + z * z)
    if r > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector length {r} exceeds 1")
    return 0.5 * (IDENTITY2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def sqrt_psd_stack(rho):
    """PSD square root for a stack of matrices, shape (..., d, d).

    For d = 2 uses the closed form sqrt(M) = (M + sqrt(det) I) / sqrt(tr +
    2 sqrt(det)), which matches the eigendecomposition route to better than
    1e-12; other dimensions fall back to stacked eigh. Inputs are assumed
    PSD up to round-off (negative parts are clamped, not diagnosed).
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[-1]
    if d == 2:
        det = (rho[..., 0, 0] * rho[..., 1, 1]
               - rho[..., 0, 1] * rho[..., 1, 0]).real
        tr = (rho[..., 0, 0] + rho[..., 1, 1]).real
        disc = np.maximum(0.25 * tr * tr - det, 0.0)
        lam_max = 0.5 * tr + np.sqrt(disc)
        # lam_min = det / lam_max avoids the cancellation in tr/2 - sqrt(disc)
        lam_min = np.maximum(det, 0.0) / np.where(lam_max > 0.0, lam_max, 1.0)
        lam_min = np.where(lam_min < RANK_FLOOR_RTOL * lam_max, 0.0, lam_min)
        s = np.sqrt(lam_min * lam_max)
        denom = np.sqrt(lam_max) + np.sqrt(lam_min)
        # Zero matrix -> zero root; guard the division only.
        safe = np.where(denom > 0.0, denom, 1.0)
        out = (rho + s[..., None, None] * IDENTITY2) / safe[..., None, None]
        return np.where((denom > 0.0)[..., None, None], out, 0.0)
    w, v = np.linalg.eigh(hermitize(rho))
    w = np.maximum(w, 0.0)
    w[w < RANK_FLOOR_RTOL * w[..., -1:]] = 0.0
    return np.einsum("...ik,...k,...jk->...ij", v, np.sqrt(w), np.conj(v))


def min_eigenvalue_stack(m):
    """Smallest eigenvalue per matrix in a stack, closed form for d = 2."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-1] == 2:
        a = m[..., 0, 0].real
        d = m[..., 1, 1].real
        b = m[..., 0, 1]
        half = 0.5 * (a + d)
        rad = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + np.abs(b) ** 2, 0.0))
        return half - rad
    return np.linalg.eigvalsh(hermitize(m))[..., 0]
