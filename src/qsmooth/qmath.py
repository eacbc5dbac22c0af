"""Dense complex linear algebra on small Hermitian matrices.

Everything here operates on plain numpy arrays. Functions accept stacked
inputs of shape (..., d, d) where noted; the spectral routines
(`hermitian_sqrt`, `pinv_sqrt`) take a single matrix.
Eigendecomposition is the canonical spectral routine; the qubit stack
routines `sqrt_psd_stack` and `min_eigenvalue_stack` are closed forms that
are tested against it.
"""

from __future__ import annotations

import numpy as np

# Eigenvalues in [-PSD_CLAMP_TOL, 0) are treated as exact zeros (round-off
# from repeated map applications); anything below is a genuine PSD violation.
PSD_CLAMP_TOL = 1e-10

# Eigenvalues below this fraction of the largest one are double-precision
# junk on a rank-deficient matrix; square roots would amplify them to
# sqrt(eps), so every root (`hermitian_sqrt`, `pinv_sqrt`, `sqrt_psd_stack`
# and `smoothing.qubit_sandwich`) floors them to exact zeros.
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
    """eigh of the hermitized input, its spectrum clamped at 0 and floored.

    Eigenvalues in [-PSD_CLAMP_TOL, 0) and below RANK_FLOOR_RTOL times the
    largest become exact zeros, so the floor is scale free for
    unnormalized states. Raises NotPSDError if any eigenvalue lies below
    -PSD_CLAMP_TOL.
    """
    w, v = np.linalg.eigh(hermitize(np.asarray(m, dtype=complex)))
    if w[0] < -PSD_CLAMP_TOL:
        raise NotPSDError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.maximum(w, 0.0)
    w[w < RANK_FLOOR_RTOL * w[-1]] = 0.0
    return w, v


def hermitian_sqrt(m):
    """Hermitian PSD square root S with S @ S = m, on the floored spectrum."""
    w, v = _eigh_clamped(m)
    return (v * np.sqrt(w)) @ dag(v)


def pinv_sqrt(m):
    """Support-restricted inverse square root of a PSD matrix: the nonzero
    eigenvalues of the floored spectrum map to lambda**-0.5, the rest to 0."""
    w, v = _eigh_clamped(m)
    keep = w > 0.0
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    return (v * inv) @ dag(v)


def min_eigenvalue(m):
    """Smallest eigenvalue of the hermitized input."""
    return float(np.linalg.eigvalsh(hermitize(np.asarray(m, dtype=complex)))[0])


def bloch_state(x, y, z):
    """Qubit density matrix with the given Bloch components."""
    r = np.sqrt(x * x + y * y + z * z)
    if r > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector length {r} exceeds 1")
    return 0.5 * (IDENTITY2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def sqrt_psd_stack(rho):
    """PSD square root for a stack of qubit matrices, shape (..., 2, 2).

    Uses the closed form sqrt(M) = (M + sqrt(det) I) / sqrt(tr +
    2 sqrt(det)), which matches the eigendecomposition route to better than
    1e-12. Inputs are assumed PSD up to round-off (negative parts are
    clamped, not diagnosed).
    """
    rho = np.asarray(rho, dtype=complex)
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


def min_eigenvalue_stack(m):
    """Smallest eigenvalue per matrix in a stack of qubit matrices, shape
    (..., 2, 2), in closed form."""
    m = np.asarray(m, dtype=complex)
    a = m[..., 0, 0].real
    d = m[..., 1, 1].real
    b = m[..., 0, 1]
    half = 0.5 * (a + d)
    rad = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + np.abs(b) ** 2, 0.0))
    return half - rad
