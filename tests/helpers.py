"""Shared construction helpers for the test suite."""

import math

import numpy as np
import scipy.io
import scipy.sparse as sparse

from eigenbounds import AffineFamily, ScmState, SubspacePool


def build_state(family, sample_points):
    state = ScmState(family)
    for mu in sample_points:
        state.add_sample(mu)
    return state


def build_pool(family, sample_points, ell=1):
    pool = SubspacePool(family, ell=ell)
    for mu in sample_points:
        pool.add_sample(mu)
    return pool


def write_mtx(path, matrix, symmetry=None, writer=scipy.io.mmwrite):
    """Write ``matrix`` as a coordinate Matrix Market file with SciPy's
    ``writer``: symmetric (hermitian if complex) unless ``symmetry`` says
    otherwise, with 17 digits so float64 entries round-trip exactly."""
    A = sparse.coo_matrix(matrix)    # a dense array would be written as array
    if symmetry is None:
        symmetry = "hermitian" if np.iscomplexobj(A) else "symmetric"
    writer(str(path), A, symmetry=symmetry, precision=17)


def assert_same_csr(A, B):
    """A and B are the same CSR matrix, bit for bit."""
    assert A.shape == B.shape and A.dtype == B.dtype
    for name in ("indptr", "indices", "data"):
        assert getattr(A, name).tobytes() == getattr(B, name).tobytes(), name


def make_smooth_family(n=40, seed=0):
    """Q=3, P=2 family with non-polynomial coefficients (for gradient tests)."""
    rng = np.random.default_rng(seed)
    a1 = np.diag(np.linspace(1.0, 4.0, n))
    g2 = rng.standard_normal((n, n))
    g3 = rng.standard_normal((n, n))
    terms = (a1, 0.25 * (g2 + g2.T) / np.sqrt(n),
             0.25 * (g3 + g3.T) / np.sqrt(n))

    def theta(mu):
        return np.array([1.0, math.exp(mu[0]), math.sin(mu[1]) + 2.0])

    def theta_grad(mu):
        return np.array([[0.0, math.exp(mu[0]), 0.0],
                         [0.0, 0.0, math.cos(mu[1])]])  # (P, Q)

    fam = AffineFamily(terms=terms, theta=theta,
                       domain=((-1.0, 1.0), (-1.0, 1.0)))
    return fam, theta_grad
