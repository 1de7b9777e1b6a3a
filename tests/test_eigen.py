import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enose.features import _eigh_descending, orient_columns, rbf_kernel
from oracles import charpoly_eigvalsh, default_gamma, jacobi_eigh, orient_columns_per_column


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


class TestJacobi:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20, 60])
    def test_decomposition_residual_and_orthonormality(self, n):
        a = random_symmetric(n, seed=n)
        w, v = jacobi_eigh(a)
        scale = max(1.0, float(np.abs(a).max()))
        assert np.abs(a @ v - v * w).max() < 1e-10 * scale
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-11
        assert np.all(np.diff(w) <= 1e-12)

    @given(st.integers(0, 500), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_charpoly_oracle(self, seed, n):
        a = random_symmetric(n, seed)
        w, _ = jacobi_eigh(a)
        assert w == pytest.approx(charpoly_eigvalsh(a), abs=1e-10)

    def test_zero_matrix(self):
        w, v = jacobi_eigh(np.zeros((4, 4)))
        assert np.array_equal(w, np.zeros(4))
        assert np.array_equal(v, np.eye(4))

    def test_diagonal_ties_keep_index_order(self):
        a = np.diag([2.0, 2.0, 1.0])
        w, v = jacobi_eigh(a)
        assert w.tolist() == [2.0, 2.0, 1.0]
        assert np.array_equal(v, np.eye(3))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.ones((2, 3)))
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_input_not_mutated(self):
        a = random_symmetric(6, seed=9)
        before = a.copy()
        jacobi_eigh(a)
        assert np.array_equal(a, before)


def random_psd(kind, n, seed):
    """PSD test matrices: a geometric spectrum, a flat rank-deficient Wishart
    spectrum, or a centred RBF Gram matrix as kernel PCA builds it."""
    rng = np.random.default_rng(seed)
    if kind == "decaying":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.exp(-rng.uniform(0.1, 0.6) * np.arange(n))
        return (q * lam) @ q.T
    if kind == "wishart":
        b = rng.standard_normal((n, n // 2 + 1))
        return b @ b.T / n
    x = rng.normal(0, 1, (n, int(rng.integers(1, 5))))
    k = rbf_kernel(x, x, default_gamma(x))
    return k - k.mean(1)[:, None] - k.mean(0)[None, :] + k.mean()


class TestEighDescending:
    """Differential test of the fits' LAPACK solve against the Jacobi oracle."""

    @pytest.mark.parametrize("kind", ["decaying", "wishart", "rbf"])
    @pytest.mark.parametrize("n", [3, 12, 31, 33, 50, 64, 90, 120])
    def test_matches_full_jacobi(self, kind, n):
        a = random_psd(kind, n, seed=n)
        w, v = _eigh_descending(a)
        w_ref, v_ref = jacobi_eigh(a)
        scale = w_ref[0]
        assert np.all(np.diff(w) <= 0)
        assert np.abs(w - w_ref).max() <= 1e-9 * scale
        assert np.linalg.norm(a @ v - v * w, axis=0).max() <= 1e-9 * scale
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-10
        # eigenvectors agree up to sign wherever the eigenvalue is separated
        gap = np.minimum(np.abs(np.diff(w_ref, prepend=np.inf)),
                         np.abs(np.diff(w_ref, append=-np.inf)))
        for j in np.flatnonzero(gap > 1e-3 * scale):
            err = min(np.abs(v[:, j] - v_ref[:, j]).max(),
                      np.abs(v[:, j] + v_ref[:, j]).max())
            assert err <= 1e-6, (j, err)


class TestOrientColumns:
    def test_largest_entry_made_positive(self):
        v = np.array([[-0.8, 0.6], [0.6, 0.8]])
        out = orient_columns(v)
        assert out[0, 0] == 0.8 and out[1, 0] == -0.6
        assert out[1, 1] == 0.8 and out[0, 1] == 0.6

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        once = orient_columns(v)
        assert np.array_equal(orient_columns(once), once)

    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([-3.0, -2.0, -0.0, 0.0, 2.0, 3.0]) | st.floats(-5, 5),
                 min_size=n, max_size=n), min_size=1, max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_column_oracle(self, rows):
        # entries from a few values, so a column's largest magnitude is
        # often negative, or shared by a positive and a negative entry
        v = np.array(rows)
        assert orient_columns(v).tobytes() == orient_columns_per_column(v).tobytes()
