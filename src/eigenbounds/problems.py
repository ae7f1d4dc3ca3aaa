"""Problem construction and ingestion.

Synthetic generators (rotation family, random perturbation family,
one-parameter analytic family, subdomain-weighted stencil family), the
coercivity transform attaching a sparse-factored inner product to a
stiffness family (its eigenproblems become pencils (A(mu), X)), the
squared-singular-value expansion, and the JSON-manifest loader backed by
Matrix Market term files.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg

from .expressions import (EvaluationError, ParseError, parse_theta,
                          probe_expressions)
from .family import AffineFamily
from .hermitian import ArgumentError, DenseHermitian, cholesky, hermitian
from .mmio import read_matrix_market

__all__ = [
    "ManifestError",
    "theta_from_expressions",
    "unit_circle_family",
    "random_family",
    "one_parameter_analytic_family",
    "block_grid_family",
    "coercivity_transform",
    "singular_value_expansion",
    "load_family",
]

SYMMETRY_TOL = 1e-10
SINGULAR_DENSE_CAP = 2048   # the singular-value expansion is dense
PIPELINES = ("eig", "coercivity", "singular")


class ManifestError(ValueError):
    """Invalid manifest; ``field`` names the offending entry."""

    def __init__(self, field, message):
        super().__init__(f"manifest field '{field}': {message}")
        self.field = field


def _theta_of(exprs):
    """The coefficient map mu -> R^Q of parsed expressions."""
    exprs = tuple(exprs)

    def theta(mu):
        return np.array([e.evaluate(mu) for e in exprs])

    return theta


def theta_from_expressions(sources, n_params):
    """Compile expression strings into a coefficient map mu -> R^Q."""
    return _theta_of(parse_theta(s, n_params=n_params) for s in sources)


def unit_circle_family():
    """2x2 rotation family cos(mu) A1 + sin(mu) A2 on [0, pi].

    Its joint numerical range is the unit circle, so the smallest
    eigenvalue is identically -1; the family is the standard stress test
    for lower-bound kinks between samples.
    """
    a1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    a2 = np.array([[0.0, -1.0], [-1.0, 0.0]])
    sources = ("cos(mu1)", "sin(mu1)")
    theta = theta_from_expressions(sources, n_params=1)
    return AffineFamily(terms=(a1, a2), theta=theta,
                        domain=((0.0, np.pi),), theta_source=sources,
                        name="unit-circle")


def random_family(q, n, delta=0.2, seed=0):
    """Random dense symmetric base term with q-1 random perturbations.

    A(mu) = A_1 + mu_1 A_2 + ... + mu_{q-1} A_q on D = [0, delta]^{q-1};
    all terms have symmetrized unit-normal entries.
    """
    if q < 2:
        raise ArgumentError("random family needs at least two terms")
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(q):
        g = rng.standard_normal((n, n))
        terms.append(0.5 * (g + g.T))
    sources = ("1",) + tuple(f"mu{k}" for k in range(1, q))
    theta = theta_from_expressions(sources, n_params=q - 1)
    domain = tuple((0.0, float(delta)) for _ in range(q - 1))
    return AffineFamily(terms=tuple(terms), theta=theta, domain=domain,
                        theta_source=sources, name=f"random-q{q}-n{n}")


def one_parameter_analytic_family(n=40, gap=1.0, seed=0, grid=200,
                                  max_attempts=10):
    """Analytic one-parameter family with a certified spectral gap.

    A(mu) = A_1 + mu A_2 + (mu^2/2) A_3 on [-1, 1], built so that the two
    smallest eigenvalues stay at least gap/2 apart on a verification grid
    (regenerated with fresh randomness up to ``max_attempts`` times).
    The smallest eigenvalue is then simple and analytic across the whole
    interval, the regime in which the subspace bounds converge
    geometrically.
    """
    if gap <= 0:
        raise ArgumentError("gap must be positive")
    rng = np.random.default_rng(seed)
    sources = ("1", "mu1", "mu1*mu1/2")
    theta = theta_from_expressions(sources, n_params=1)
    mus = np.linspace(-1.0, 1.0, grid)
    for _ in range(max_attempts):
        base = np.concatenate([[0.0, 1.5 * gap],
                               1.5 * gap + np.sort(rng.uniform(gap, 6.0 * gap,
                                                               n - 2))])
        qmat, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a1 = qmat @ np.diag(base) @ qmat.T
        scale = 0.35 * gap
        g2 = rng.standard_normal((n, n))
        g3 = rng.standard_normal((n, n))
        a2 = scale * 0.5 * (g2 + g2.T) / np.sqrt(n)
        a3 = scale * 0.5 * (g3 + g3.T) / np.sqrt(n)
        fam = AffineFamily(terms=(a1, a2, a3), theta=theta,
                           domain=((-1.0, 1.0),), theta_source=sources,
                           name="one-parameter-analytic")
        ok = True
        for mu in mus:
            w = np.linalg.eigvalsh(fam.assemble_dense([mu]))
            if w[1] - w[0] < 0.5 * gap:
                ok = False
                break
        if ok:
            return fam
    raise ArgumentError(
        f"could not realize spectral gap {gap} in {max_attempts} attempts")


def _laplacian_2d(nx, ny):
    h2 = float((nx + 1) * (ny + 1))  # 1/(hx*hy) scaling keeps entries O(n)
    ex = np.ones(nx)
    ey = np.ones(ny)
    tx = sparse.diags([-ex[:-1], 2 * ex, -ex[:-1]], [-1, 0, 1])
    ty = sparse.diags([-ey[:-1], 2 * ey, -ey[:-1]], [-1, 0, 1])
    lap = sparse.kron(sparse.eye(ny), tx) + sparse.kron(ty, sparse.eye(nx))
    return (h2 * lap).tocsr()


def _mixed_stencil_2d(nx, ny):
    # cross-derivative coupling between diagonal grid neighbours
    h2 = float((nx + 1) * (ny + 1))
    rows, cols, vals = [], [], []
    def idx(i, j):
        return j * nx + i
    for j in range(ny):
        for i in range(nx):
            for di, dj, sgn in ((1, 1, -1.0), (1, -1, 1.0)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    rows.append(idx(i, j))
                    cols.append(idx(ii, jj))
                    vals.append(sgn * 0.5 * h2)
    M = sparse.coo_matrix((vals, (rows, cols)), shape=(nx * ny, nx * ny))
    return (M + M.T).tocsr() * 0.5


def block_grid_family(nx=32, ny=33, blocks=(3, 3), coeff_range=(0.1, 0.5)):
    """Inspired-by stand-in for subdomain-parametrized PDE stiffness families.

    Five-point Laplacian on an nx-by-ny interior grid plus one anisotropic
    cross-derivative term per subdomain block, weighted by its own
    parameter.  The default signature (N=1056, Q=10, D=[0.1,0.5]^9) matches
    the scale of published coercivity benchmarks; the matrices themselves
    are synthetic.
    """
    gx, gy = blocks
    n = nx * ny
    lap = _laplacian_2d(nx, ny)
    mixed = _mixed_stencil_2d(nx, ny)
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    bx = np.minimum((ii * gx) // nx, gx - 1)
    by = np.minimum((jj * gy) // ny, gy - 1)
    block_of = (by * gx + bx).T.reshape(-1)  # grid index j*nx+i
    terms = [lap]
    for b in range(gx * gy):
        mask = (block_of == b).astype(float)
        D = sparse.diags(mask)
        term = (D @ mixed @ D).tocsr()
        terms.append(term)
    q = gx * gy + 1
    sources = ("1",) + tuple(f"mu{k}" for k in range(1, q))
    theta = theta_from_expressions(sources, n_params=q - 1)
    domain = tuple((float(coeff_range[0]), float(coeff_range[1]))
                   for _ in range(q - 1))
    return AffineFamily(terms=tuple(terms), theta=theta, domain=domain,
                        theta_source=sources,
                        name=f"block-grid-{nx}x{ny}-{gx}x{gy}")


def coercivity_transform(family, X):
    """The stiffness family with the SPD inner product X attached.

    Every eigenproblem of the result is the pencil (A(mu), X), so its
    smallest eigenvalue at mu is the discrete coercivity constant.  The
    terms are kept as they are; X enters through its sparse factor
    (:func:`~eigenbounds.hermitian.cholesky`).
    """
    return AffineFamily(terms=family.terms, theta=family.theta,
                        domain=family.domain,
                        theta_source=family.theta_source,
                        name=family.name + ":coercivity",
                        inner_product=cholesky(X))


def singular_value_expansion(raw_terms, theta_sources, domain, inner_product):
    """Family whose smallest eigenvalue is the squared smallest singular value.

    Given possibly nonsymmetric terms B_q with coefficients theta_q and an
    SPD matrix X = L L^T, builds the Hermitian family equal to
    L^{-1} A(mu)^T X^{-1} A(mu) L^{-T}: q*(q+1)/2 stored Hermitian terms
    (the i=j products plus symmetrized i<j pairs) with coefficients
    theta_i * theta_j.  Dense, so n <= SINGULAR_DENSE_CAP.
    """
    if any(np.iscomplexobj(t.data if sparse.issparse(t) else t)
           for t in raw_terms):
        raise ArgumentError("singular-value expansion supports real terms only")
    mats = [np.asarray(t.toarray() if sparse.issparse(t) else t, dtype=float)
            for t in raw_terms]
    q = len(mats)
    if q == 0:
        raise ArgumentError("need at least one term")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ArgumentError("terms must be square with a common dimension")
    if n > SINGULAR_DENSE_CAP:
        raise ArgumentError(
            f"singular-value expansion is dense-only up to {SINGULAR_DENSE_CAP}")
    L = scipy.linalg.cholesky(hermitian(inner_product).dense(), lower=True)
    solve = functools.partial(scipy.linalg.solve_triangular, L, lower=True)
    # C_q = L^{-1} B_q L^{-T}; the expansion terms are C_i^T C_j products.
    C = [solve(solve(B.T).T) for B in mats]
    terms = []
    pair_sources = []
    p = len(domain)
    src = list(theta_sources)
    for i in range(q):
        for j in range(i, q):
            if i == j:
                terms.append(DenseHermitian(C[i].T @ C[i]))
                pair_sources.append(f"({src[i]})*({src[i]})")
            else:
                terms.append(DenseHermitian(C[i].T @ C[j] + C[j].T @ C[i]))
                pair_sources.append(f"({src[i]})*({src[j]})")
    theta = theta_from_expressions(tuple(pair_sources), n_params=p)
    return AffineFamily(terms=tuple(terms), theta=theta, domain=tuple(domain),
                        theta_source=tuple(pair_sources),
                        name="singular-value-expansion")


def _require(manifest, field, kind, length=None):
    if field not in manifest:
        raise ManifestError(field, "missing")
    value = manifest[field]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ManifestError(field, f"expected integer, got {value!r}")
    if kind is list and not isinstance(value, list):
        raise ManifestError(field, f"expected list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ManifestError(field, f"expected length {length}, got {len(value)}")
    return value


def _checked_hermitian(mat, field, rel):
    """``hermitian(mat)``, refused unless ||A - H||_F / max(||H||_F, 1) is
    at most SYMMETRY_TOL for A = ``mat`` and its Hermitian part H."""
    op = hermitian(mat)
    if sparse.issparse(mat):
        H, norm = op.matrix, scipy.sparse.linalg.norm
    else:
        H, norm = op.array, np.linalg.norm
    defect = norm(mat - H) / max(norm(H), 1.0)
    if defect > SYMMETRY_TOL:
        raise ManifestError(field, f"{rel} is not Hermitian (relative defect "
                            f"{defect:.2e} > {SYMMETRY_TOL})")
    return op


def load_family(path):
    """Load an affine family from a JSON manifest.

    Schema: {"Q", "P", "domain": [[lo,hi],...], "theta": [expr,...],
    "terms": [mtx paths,...], "inner_product": optional path,
    "pipeline": "eig"|"coercivity"|"singular"}.  Term paths are resolved
    relative to the manifest.  Returns (family, metadata).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError("<json>", f"not valid JSON: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))

    q = _require(manifest, "Q", int)
    p = _require(manifest, "P", int)
    if q < 1:
        raise ManifestError("Q", "must be at least 1")
    if p < 1:
        raise ManifestError("P", "must be at least 1")
    domain_raw = _require(manifest, "domain", list, length=p)
    domain = []
    for k, pair in enumerate(domain_raw):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, (int, float))
                           and not isinstance(v, bool) for v in pair)
                or pair[0] > pair[1]):
            raise ManifestError("domain", f"entry {k} is not a valid interval")
        domain.append((float(pair[0]), float(pair[1])))
    theta_raw = _require(manifest, "theta", list, length=q)
    terms_raw = _require(manifest, "terms", list, length=q)
    pipeline = manifest.get("pipeline", "eig")
    if pipeline not in PIPELINES:
        raise ManifestError("pipeline", f"must be one of {PIPELINES}")

    exprs = []
    for k, text in enumerate(theta_raw):
        if not isinstance(text, str):
            raise ManifestError("theta", f"entry {k} is not a string")
        try:
            exprs.append(parse_theta(text, n_params=p))
        except ParseError as exc:
            raise ManifestError("theta", f"entry {k}: {exc}") from exc
    try:
        probe_expressions(exprs, domain)
    except EvaluationError as exc:
        raise ManifestError("theta", str(exc)) from exc

    matrices = []
    n = None
    for k, rel in enumerate(terms_raw):
        if not isinstance(rel, str):
            raise ManifestError("terms", f"entry {k} is not a string")
        full = rel if os.path.isabs(rel) else os.path.join(base, rel)
        if not os.path.exists(full):
            raise ManifestError("terms", f"file not found: {rel}")
        mat, header = read_matrix_market(full)
        if mat.shape[0] != mat.shape[1]:
            raise ManifestError("terms", f"{rel} is not square")
        if n is None:
            n = mat.shape[0]
        elif mat.shape[0] != n:
            raise ManifestError(
                "terms", f"{rel} has dimension {mat.shape[0]}, expected {n}")
        matrices.append((mat, header, rel))

    inner = None
    if "inner_product" in manifest and manifest["inner_product"] is not None:
        if pipeline == "eig":
            raise ManifestError("inner_product", "the eig pipeline takes "
                                "none; use coercivity or singular")
        rel = manifest["inner_product"]
        if not isinstance(rel, str):
            raise ManifestError("inner_product", "not a string")
        full = rel if os.path.isabs(rel) else os.path.join(base, rel)
        if not os.path.exists(full):
            raise ManifestError("inner_product", f"file not found: {rel}")
        inner, _ = read_matrix_market(full)
        if inner.shape != (n, n):
            raise ManifestError("inner_product",
                                f"dimension {inner.shape[0]}, expected {n}")
        _checked_hermitian(inner, "inner_product", rel)

    meta = {"pipeline": pipeline, "Q": q, "P": p, "path": os.path.abspath(path)}

    if pipeline == "singular":
        if inner is None:
            inner = sparse.eye(n).tocsr()
        fam = singular_value_expansion([m for m, _, _ in matrices],
                                       [e.source for e in exprs],
                                       domain, inner)
        return fam, meta

    wrapped = [_checked_hermitian(mat, "terms", rel)
               for mat, _, rel in matrices]
    fam = AffineFamily(terms=tuple(wrapped), theta=_theta_of(exprs),
                       domain=tuple(domain),
                       theta_source=tuple(e.source for e in exprs),
                       name=os.path.basename(path))
    if pipeline == "coercivity":
        if inner is None:
            raise ManifestError("inner_product",
                                "required for the coercivity pipeline")
        return coercivity_transform(fam, inner), meta
    return fam, meta
