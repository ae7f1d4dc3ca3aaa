"""Affinely parameter-dependent Hermitian families A(mu) = sum_q theta_q(mu) A_q.

The family object separates the parameter dependence (scalar coefficient
functions theta_q on a box domain D) from the fixed Hermitian terms A_q.
Everything downstream (bounding box, sampled Rayleigh-quotient constraints,
reduced matrices) is phrased in terms of this decomposition.  With an SPD
inner product X, every eigenproblem is the pencil (A(mu), X).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .hermitian import (ArgumentError, DenseHermitian, EigensolverError,
                        SparseHermitian, SparsePattern, _extreme_values,
                        hermitian)

__all__ = [
    "AffineFamily",
    "BoundingBox",
    "TrainingSet",
    "joint_rayleigh",
    "compute_bounding_box",
    "random_training_set",
]


@dataclass(frozen=True)
class AffineFamily:
    """Hermitian terms plus the coefficient map theta: D -> R^Q.

    ``theta`` maps a parameter point (array of length P) to the Q
    coefficients; a compiled :class:`~eigenbounds.expressions.Theta` also
    holds their strings, ``theta_source``.  ``domain`` lists the intervals
    of the parameter box D, ``inner_product`` optionally the SpdFactor of X.
    """

    terms: tuple
    theta: object
    domain: tuple
    name: str = ""
    inner_product: object = None

    def __post_init__(self):
        terms = tuple(hermitian(t) for t in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ArgumentError("family needs at least one term")
        n = terms[0].n
        if any(t.n != n for t in terms):
            raise ArgumentError("all terms must share the matrix dimension")
        if self.inner_product is not None and self.inner_product.n != n:
            raise ArgumentError("inner-product dimension mismatch")
        dom = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        if any(lo > hi for lo, hi in dom):
            raise ArgumentError("empty domain interval")
        object.__setattr__(self, "domain", dom)

    @property
    def theta_source(self):
        return getattr(self.theta, "sources", None)

    @property
    def q(self):
        return len(self.terms)

    @property
    def p(self):
        return len(self.domain)

    @property
    def n(self):
        return self.terms[0].n

    def theta_at(self, mu):
        """Coefficient vector theta(mu) as a float array of length Q."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        th = np.asarray(self.theta(mu), dtype=float).reshape(-1)
        if th.size != self.q:
            raise ArgumentError(
                f"theta returned {th.size} coefficients, expected {self.q}")
        if not np.all(np.isfinite(th)):
            raise ArgumentError(f"theta(mu) is not finite at mu={mu}")
        return th

    def theta_table(self, points):
        """theta evaluated row-wise on an (m, P) array of parameter points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.vstack([self.theta_at(mu) for mu in points])

    def apply_terms(self, X):
        """Every term applied to the block X, stacked as (Q, n, k)."""
        return np.stack([term.matmat(X) for term in self.terms])

    def assemble_dense(self, mu):
        th = self.theta_at(mu)
        A = th[0] * self.terms[0].dense()
        for c, term in zip(th[1:], self.terms[1:]):
            A = A + c * term.dense()
        return A

    def sparse_pattern(self):
        """A new :class:`~eigenbounds.hermitian.SparsePattern` of the terms
        and the inner product when every term is sparse, else None.  Its
        factors share the ordering of its first, so a run makes its own."""
        if not all(isinstance(t, SparseHermitian) for t in self.terms):
            return None
        return SparsePattern([t.matrix for t in self.terms],
                             self.inner_product)

    def operator_at(self, mu, pattern=None):
        """A(mu) as a stored matrix: a SparseHermitian when every term is
        sparse, summed on ``pattern`` (the family's :meth:`sparse_pattern`,
        a new one when None), otherwise a DenseHermitian.  A real
        combination of exactly Hermitian terms is exactly Hermitian, so it
        is wrapped as it stands."""
        if pattern is None:
            pattern = self.sparse_pattern()
        if pattern is None:
            return DenseHermitian._exact(self.assemble_dense(mu))
        return pattern.operator(self.theta_at(mu))


def joint_rayleigh(family, u):
    """The vector of per-term Rayleigh quotients (u*A_q u / u*Xu)_q.

    The image of this map over all nonzero u is the joint numerical range of
    the terms; theta(mu)^T joint_rayleigh(u) equals the Rayleigh quotient of
    A(mu) at u for every mu.  X is the inner product, or the identity.
    """
    u = np.asarray(u)
    X = family.inner_product
    nrm2 = np.real(np.vdot(u, u if X is None else X.matrix.matvec(u)))
    if nrm2 == 0.0:
        raise ArgumentError("joint Rayleigh map is undefined at the zero vector")
    return np.array([np.real(np.vdot(u, t.matvec(u))) / nrm2
                     for t in family.terms])


@dataclass(frozen=True)
class BoundingBox:
    """Per-term spectral intervals [lambda_min(A_q), lambda_max(A_q)].

    ``shift_fallbacks`` counts the interval ends whose shifted solve fell
    back to the unshifted one, ``loose_estimates`` the ends whose shift a
    loose pass placed, ``eig_count`` the eigensolves that ran (see
    :func:`compute_bounding_box`), ``sparse_factors`` the sparse factors
    of A_q - sigma X made and ``sparse_orderings`` the fill-reducing
    orderings computed for them.
    """

    lower: np.ndarray
    upper: np.ndarray
    shift_fallbacks: int = 0
    loose_estimates: int = 0
    eig_count: int = 0
    sparse_factors: int = 0
    sparse_orderings: int = 0

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ArgumentError("invalid bounding box intervals")


def compute_bounding_box(family, seed=0):
    """Extreme eigenvalues of every term (pencil), stacked into a BoundingBox.

    A term that LAPACK takes (every term up to n = 72, a dense one up to
    the caps) gets both ends from one backward-stable reduction to
    tridiagonal form T, as the exact extreme eigenvalues of T by
    Sturm-count bisection, with no residual.  A standard sparse term that
    is zero outside the rows S with stored entries (a subdomain term) is
    solved through its principal submatrix on S, which takes that
    reduction for |S| <= DENSE_PARTIAL_CAP, with the zero eigenvalue of
    the other rows folded in; a term with no stored entry is (0, 0) with
    no solve.  Every other term takes two ARPACK smallest-eigenvalue
    solves, of A_q and -A_q, under the shift rule of
    :func:`~eigenbounds.extreme_eigs`, factored on a one-off sparse
    pattern of the term and X, each end under an ordering of its own: an
    end with a positive diagonal (the low end of a stiffness term) at its
    Gershgorin floor when that factor passes the pivot test, every other
    end just below a loose estimate.  The box counts its eigensolves (one
    per reduction, two per ARPACK-solved term), its loose passes and their
    sparse factors and orderings.
    """
    lows = np.empty(family.q)
    highs = np.empty(family.q)
    counts = Counter()
    for qi, term in enumerate(family.terms):
        try:
            lows[qi], highs[qi], work = _extreme_values(
                term, seed=seed, M=family.inner_product)
        except EigensolverError as exc:
            raise EigensolverError(
                f"bounding box failed on term {qi + 1}: {exc}",
                best=exc.best) from exc
        counts.update(work)
    return BoundingBox(lower=lows, upper=highs, **counts)


@dataclass(frozen=True)
class TrainingSet:
    """Finite surrogate of the parameter domain, with its generation seed."""

    points: np.ndarray  # (m, P)
    seed: int | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if len(np.unique(pts, axis=0)) != len(pts):
            raise ArgumentError("training set contains duplicate points")

    def __len__(self):
        return self.points.shape[0]


def random_training_set(domain, size, seed=0):
    """Uniform random training set in the domain box (seed recorded)."""
    rng = np.random.default_rng(seed)
    dom = np.asarray(domain, dtype=float)
    pts = rng.uniform(dom[:, 0], dom[:, 1], size=(size, dom.shape[0]))
    return TrainingSet(points=pts, seed=seed)
