"""Affinely parameter-dependent Hermitian families A(mu) = sum_q theta_q(mu) A_q.

The family object separates the parameter dependence (scalar coefficient
functions theta_q on a box domain D) from the fixed Hermitian terms A_q.
Everything downstream (bounding box, sampled Rayleigh-quotient constraints,
reduced matrices) is phrased in terms of this decomposition.  With an SPD
inner product X, every eigenproblem is the pencil (A(mu), X).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import (ArgumentError, DenseHermitian, EigensolverError,
                        SparseHermitian, extreme_eigs, hermitian)

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
    coefficients.  ``domain`` lists the per-coordinate intervals of the
    parameter box D.  ``theta_source`` optionally carries expression strings
    for the coefficients, used for manifest emission.  ``inner_product``
    optionally holds the SpdFactor of the inner-product matrix X.
    """

    terms: tuple
    theta: object
    domain: tuple
    theta_source: tuple | None = None
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

    def operator_at(self, mu):
        """A(mu) as a stored matrix: a SparseHermitian when every term is
        sparse, otherwise a DenseHermitian."""
        if not all(isinstance(t, SparseHermitian) for t in self.terms):
            return DenseHermitian(self.assemble_dense(mu))
        th = self.theta_at(mu)
        acc = th[0] * self.terms[0].matrix
        for c, term in zip(th[1:], self.terms[1:]):
            acc = acc + c * term.matrix
        return SparseHermitian(acc)


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
    """Per-term spectral intervals [lambda_min(A_q), lambda_max(A_q)]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ArgumentError("invalid bounding box intervals")

    def contains(self, point, slack=1e-9):
        point = np.asarray(point, dtype=float)
        return bool(np.all(point >= self.lower - slack)
                    and np.all(point <= self.upper + slack))


def compute_bounding_box(family, seed=0):
    """Extreme eigenvalues of every term (pencil), stacked into a BoundingBox."""
    lows = np.empty(family.q)
    highs = np.empty(family.q)
    for qi, term in enumerate(family.terms):
        try:
            lows[qi], highs[qi] = extreme_eigs(term, seed=seed,
                                               M=family.inner_product)
        except EigensolverError as exc:
            raise EigensolverError(
                f"bounding box failed on term {qi + 1}: {exc}",
                best=exc.best) from exc
    return BoundingBox(lower=lows, upper=highs)


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
