import numpy as np
import pytest
import scipy.sparse as sparse
from numpy.testing import assert_allclose

from eigenbounds import (ArgumentError, DenseHermitian, SparseHermitian,
                         block_grid_family, compute_bounding_box,
                         joint_rayleigh, random_training_set,
                         solve_at_sample, unit_circle_family)
from eigenbounds.family import AffineFamily, BoundingBox, TrainingSet


@pytest.fixture
def circle():
    return unit_circle_family()


def test_theta_and_assemble(circle):
    mu = np.array([np.pi / 3])
    th = circle.theta_at(mu)
    assert_allclose(th, [np.cos(mu[0]), np.sin(mu[0])])
    A = circle.assemble_dense(mu)
    assert_allclose(A, th[0] * circle.terms[0].dense()
                    + th[1] * circle.terms[1].dense())


def test_assembled_symmetry_on_random_probes(circle):
    rng = np.random.default_rng(0)
    for _ in range(10):
        mu = rng.uniform(0, np.pi, size=1)
        A = circle.assemble_dense(mu)
        assert np.linalg.norm(A - A.T) <= 1e-12 * max(np.linalg.norm(A), 1.0)


def test_joint_rayleigh_values(circle):
    assert_allclose(joint_rayleigh(circle, [0.0, 1.0]), [-1.0, 0.0], atol=1e-15)
    assert_allclose(joint_rayleigh(circle, [1.0, 0.0]), [1.0, 0.0], atol=1e-15)


def test_joint_rayleigh_contracts_with_quadratic_form():
    rng = np.random.default_rng(1)
    terms = []
    for _ in range(4):
        g = rng.standard_normal((30, 30))
        terms.append(0.5 * (g + g.T))
    fam = AffineFamily(terms=tuple(terms),
                       theta=lambda mu: np.array([1.0, mu[0], mu[1], mu[0] * mu[1]]),
                       domain=((0, 1), (0, 1)))
    u = rng.standard_normal(30)
    r = joint_rayleigh(fam, u)
    for _ in range(10):
        mu = rng.uniform(0, 1, size=2)
        direct = u @ fam.assemble_dense(mu) @ u / (u @ u)
        assert_allclose(fam.theta_at(mu) @ r, direct, rtol=1e-12)


def test_joint_rayleigh_rejects_zero(circle):
    with pytest.raises(ArgumentError):
        joint_rayleigh(circle, [0.0, 0.0])


def test_bounding_box_unit_circle(circle):
    box = compute_bounding_box(circle)
    assert_allclose(box.lower, [-1.0, -1.0], atol=1e-10)
    assert_allclose(box.upper, [1.0, 1.0], atol=1e-10)


def test_bounding_box_single_identity_term():
    fam = AffineFamily(terms=(np.eye(7),), theta=lambda mu: np.array([1.0]),
                       domain=((0.0, 1.0),))
    box = compute_bounding_box(fam)
    assert_allclose(box.lower, [1.0], atol=1e-12)
    assert_allclose(box.upper, [1.0], atol=1e-12)


def test_bounding_box_matches_dense_oracle_per_term():
    rng = np.random.default_rng(2)
    terms = []
    for _ in range(4):
        g = rng.standard_normal((200, 200))
        terms.append(0.5 * (g + g.T))
    fam = AffineFamily(terms=tuple(terms),
                       theta=lambda mu: np.array([1.0, mu[0], mu[1], mu[2]]),
                       domain=((0, 1),) * 3)
    box = compute_bounding_box(fam)
    for qi, term in enumerate(terms):
        w = np.linalg.eigvalsh(term)
        assert abs(box.lower[qi] - w[0]) <= 1e-8
        assert abs(box.upper[qi] - w[-1]) <= 1e-8


def test_bounding_box_contains_joint_rayleigh_points(circle):
    rng = np.random.default_rng(3)
    box = compute_bounding_box(circle)
    for _ in range(200):
        u = rng.standard_normal(2)
        point = joint_rayleigh(circle, u)
        assert np.all(box.lower - 1e-9 <= point)
        assert np.all(point <= box.upper + 1e-9)


def test_invalid_box_rejected():
    with pytest.raises(ArgumentError):
        BoundingBox(lower=[1.0], upper=[0.0])


def test_training_set_random():
    dom = [(-1.0, 2.0), (0.0, 1.0)]
    train = random_training_set(dom, 500, seed=11)
    assert len(train) == 500
    assert train.seed == 11
    pts = train.points
    assert np.all(pts[:, 0] >= -1.0) and np.all(pts[:, 0] <= 2.0)
    assert np.all(pts[:, 1] >= 0.0) and np.all(pts[:, 1] <= 1.0)
    # same seed reproduces the same set
    again = random_training_set(dom, 500, seed=11)
    assert np.array_equal(pts, again.points)


def test_training_set_rejects_duplicates():
    with pytest.raises(ArgumentError):
        TrainingSet(points=np.array([[0.0, 0.0], [0.0, 0.0]]))


def test_dimension_mismatch_rejected():
    with pytest.raises(ArgumentError):
        AffineFamily(terms=(np.eye(3), np.eye(4)),
                     theta=lambda mu: np.array([1.0, 1.0]),
                     domain=((0, 1),))


def test_theta_length_mismatch_raises(circle):
    bad = AffineFamily(terms=circle.terms, theta=lambda mu: np.array([1.0]),
                       domain=circle.domain)
    with pytest.raises(ArgumentError):
        bad.theta_at([0.5])


def test_mixed_dense_and_sparse_terms_assemble_dense():
    # a dense term next to a sparse one: operator_at assembles A(mu) dense
    n = 120
    g = np.random.default_rng(5).standard_normal((n, n))
    tri = sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                       [-1, 0, 1], format="csr")
    fam = AffineFamily(terms=(0.5 * (g + g.T), tri),
                       theta=lambda mu: np.array([1.0, mu[0]]),
                       domain=((0.0, 2.0),))
    mu = np.array([0.7])
    assert isinstance(fam.operator_at(mu), DenseHermitian)
    A = fam.assemble_dense(mu)
    assert_allclose(solve_at_sample(fam, mu, 2).values,
                    np.linalg.eigvalsh(A)[:2],
                    atol=1e-10 * np.linalg.norm(A, 2))


@pytest.mark.parametrize("kind", ["real", "complex", "sparse"])
def test_operator_at_is_exactly_hermitian_as_assembled(kind):
    # a real combination of exactly Hermitian terms needs no symmetrizing:
    # the wrapped A(mu) is bit for bit what symmetrizing would give
    rng = np.random.default_rng(12)
    if kind == "sparse":
        fam = block_grid_family(nx=8, ny=6, blocks=(2, 2))
    else:
        shape = (3, 60, 60)
        g = rng.standard_normal(shape)
        if kind == "complex":
            g = g + 1j * rng.standard_normal(shape)
        fam = AffineFamily(terms=tuple(g),
                           theta=lambda mu: np.array([1.0, mu[0], mu[1]]),
                           domain=((-1.0, 2.0), (0.0, 0.5)))
    for mu in rng.uniform(0.0, 0.5, size=(5, fam.p)):
        op = fam.operator_at(mu)
        if kind == "sparse":
            again = SparseHermitian(op.matrix).matrix
            assert np.array_equal(again.indptr, op.matrix.indptr)
            assert np.array_equal(again.indices, op.matrix.indices)
            assert again.data.tobytes() == op.matrix.data.tobytes()
        else:
            assert op.iscomplex == (kind == "complex")
            assert (DenseHermitian(op.array).array.tobytes()
                    == op.array.tobytes())
            assert np.array_equal((-op).array, -op.array)
