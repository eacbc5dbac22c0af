import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsmooth import qmath
from qsmooth.dynamics import to_matrix, to_vector
from qsmooth.qmath import (
    NotPSDError,
    dag,
    hermitian_sqrt,
    min_eigenvalue,
    mm,
    pinv_sqrt,
)
from qsmooth.smoothing import qubit_sandwich, qubit_statistics


EPS = np.finfo(float).eps

# lmin / lmax = 5.8e-14: eigh's root is off by 2.3e-10 |m| here, while the
# closed form is within 1e-12 of a high-precision reference
NEAR_RANK_ONE = np.array([[1, 1.25 + 0.5j], [1e-6 + 1j, -0.5 + 1.25j]])


def _complex_matrix(draw, dim, scale=2.0):
    elems = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)
    re = draw(st.lists(elems, min_size=dim * dim, max_size=dim * dim))
    im = draw(st.lists(elems, min_size=dim * dim, max_size=dim * dim))
    return (np.array(re) + 1j * np.array(im)).reshape(dim, dim)


@st.composite
def psd_matrices(draw, dim=2):
    g = _complex_matrix(draw, dim)
    return mm(g, dag(g))


def support_projector(m):
    """Orthogonal projector onto the support (range) of a PSD matrix: the
    eigenvalues that `qmath.RANK_FLOOR_RTOL` keeps."""
    w, v = np.linalg.eigh(qmath.hermitize(m))
    keep = ((w > 0.0) & (w >= qmath.RANK_FLOOR_RTOL * w[-1])).astype(float)
    return (v * keep) @ dag(v)


class TestHermitianSqrt:
    def test_diagonal(self):
        s = hermitian_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(s, np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(hermitian_sqrt(np.eye(2, dtype=complex)), np.eye(2))

    def test_square_recovers_input(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        s = hermitian_sqrt(m)
        assert np.max(np.abs(mm(s, s) - m)) < 1e-10
        assert np.max(np.abs(s - dag(s))) < 1e-12

    def test_clamps_tiny_negative(self):
        m = np.diag([1.0, -5e-11]).astype(complex)
        s = hermitian_sqrt(m)
        assert s[1, 1] == 0.0

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            hermitian_sqrt(np.diag([1.0, -1e-6]).astype(complex))

    @given(psd_matrices())
    @settings(max_examples=150)
    def test_roundtrip_property(self, m):
        s = hermitian_sqrt(m)
        assert np.max(np.abs(mm(s, s) - m)) < 1e-10 * max(1.0, np.abs(m).max())


class TestPinvSqrt:
    def test_support_pseudo_inverse(self):
        out = pinv_sqrt(np.diag([4.0, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(pinv_sqrt(np.eye(2, dtype=complex)), np.eye(2))

    def test_rank_one_projector(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = np.outer(v, v.conj())
        inv = pinv_sqrt(m)
        proj = mm(m, mm(inv, inv))
        assert np.max(np.abs(proj - support_projector(m))) < 1e-10

    @given(psd_matrices())
    @example(np.diag([0.0, 9.4e-323]).astype(complex))  # the floor of 9.4e-323 underflows
    @settings(max_examples=100)
    def test_sqrt_times_pinv_is_projector(self, m):
        prod = mm(hermitian_sqrt(m), pinv_sqrt(m))
        assert np.max(np.abs(prod - support_projector(m))) < 1e-8


class TestRankFloor:
    """Every root keeps or drops the same small eigenvalue."""

    @pytest.mark.parametrize("ratio, kept", [(1e-13, True), (1e-15, False)])
    def test_roots_share_one_floor(self, ratio, kept):
        m = np.diag([1.0, ratio]).astype(complex)
        root = np.sqrt(ratio)
        assert hermitian_sqrt(m)[1, 1].real == pytest.approx(root if kept else 0.0, rel=1e-12)
        assert pinv_sqrt(m)[1, 1].real == pytest.approx(1.0 / root if kept else 0.0, rel=1e-12)
        # the closed forms give (rho + sqrt(det) 1) / (sqrt(l1) + sqrt(l2)):
        # a dropped l2 leaves rho / sqrt(l1), which holds l2 itself
        assert qmath.sqrt_psd_stack(m[None])[0, 1, 1].real == pytest.approx(
            root if kept else ratio, rel=1e-12)
        # sqrt(rho) X sqrt(rho) is sqrt(l1 l2) X, or l2 X once l2 is dropped;
        # rho = m / Tr m, and l2 comes off a determinant to eps / ratio
        sandwich = qubit_sandwich(to_vector(m)[:, None], to_vector(qmath.SIGMA_X)[:, None])
        assert to_matrix(sandwich[:, 0])[0, 1].real == pytest.approx(
            (root if kept else ratio) / (1.0 + ratio), rel=1e-2)


class TestPurity:
    """The purity read-out of `smoothing.qubit_statistics`."""

    @staticmethod
    def purity(rho):
        return qubit_statistics(to_vector(rho / np.trace(rho).real))[0]

    def test_maximally_mixed(self):
        assert self.purity(np.eye(2, dtype=complex) / 2) == pytest.approx(0.5)

    def test_pure_projector(self):
        assert self.purity(np.array([[1, 0], [0, 0]], dtype=complex)) == pytest.approx(1.0)

    def test_bloch_formula(self):
        rho = qmath.bloch_state(0.3, 0.0, 0.4)
        # (1 + |r|^2) / 2 with |r|^2 = 0.25
        assert self.purity(rho) == pytest.approx(0.625, abs=1e-12)

    @given(psd_matrices())
    @settings(max_examples=100)
    def test_pure_iff_rank_one(self, m):
        tr = np.trace(m).real
        if tr < 1e-6:
            return
        eigs = np.linalg.eigvalsh(m)
        rank = int(np.sum(eigs > 1e-10 * eigs[-1]))
        if abs(self.purity(m) - 1.0) < 1e-10:
            assert rank == 1
        if rank == 1:
            assert abs(self.purity(m) - 1.0) < 1e-9


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(2, dtype=complex)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert min_eigenvalue(np.diag([2.0, -3.0]).astype(complex)) == pytest.approx(-3.0)

    def test_characteristic_roots(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        assert min_eigenvalue(m) == pytest.approx(-1.0, abs=1e-12)


class TestStackRoutines:
    @given(st.lists(psd_matrices(), min_size=1, max_size=6))
    @example([mm(NEAR_RANK_ONE, dag(NEAR_RANK_ONE))])
    @settings(max_examples=60)
    def test_closed_form_sqrt_matches_eigh(self, mats):
        stack = np.array(mats)
        fast = qmath.sqrt_psd_stack(stack)
        for i, m in enumerate(mats):
            scale = max(1.0, np.abs(m).max())
            # squaring back must hold unconditionally
            assert np.max(np.abs(mm(fast[i], fast[i]) - m)) < 1e-10 * scale
            # Each route carries a backward error of about 2 eps |m|, and a
            # perturbation of m by d moves sqrt(m) by up to d / (2 sqrt(lmin)),
            # so the routes can differ by 4 eps |m| / (2 sqrt(lmin)); route
            # agreement is only well posed where that is below the bound
            w = np.linalg.eigvalsh(m)
            if w[0] <= 0.0 or 2.0 * EPS * w[-1] / np.sqrt(w[0]) >= 1e-12 * scale:
                continue
            slow = hermitian_sqrt(m)
            assert np.max(np.abs(fast[i] - slow)) < 1e-12 * scale

    def test_sqrt_of_zero(self):
        z = np.zeros((1, 2, 2), dtype=complex)
        assert np.all(qmath.sqrt_psd_stack(z) == 0.0)

    @given(st.lists(psd_matrices(), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_min_eig_stack_matches_scalar(self, mats):
        stack = np.array(mats)
        fast = qmath.min_eigenvalue_stack(stack)
        for i, m in enumerate(mats):
            assert fast[i] == pytest.approx(min_eigenvalue(m), abs=1e-11)


class TestBloch:
    def test_roundtrip(self):
        rho = qmath.bloch_state(0.2, -0.5, 0.1)
        bloch = [2.0 * rho[1, 0].real, 2.0 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real]
        assert np.allclose(bloch, [0.2, -0.5, 0.1])

    def test_rejects_outside_sphere(self):
        with pytest.raises(ValueError):
            qmath.bloch_state(1.0, 1.0, 0.0)

