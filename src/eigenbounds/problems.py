"""Problem construction and ingestion.

Synthetic generators (rotation family, random perturbation family,
one-parameter analytic family, subdomain-weighted stencil family) and their
spec table, the coercivity transform attaching a sparse-factored inner
product to a stiffness family (its eigenproblems become pencils (A(mu), X)),
the squared-singular-value expansion, and the JSON manifest format backed by
Matrix Market term files: its loader and the writer of a generator's files.
Every file and JSON argument from outside the program is read by
:func:`read_input`, which refuses what it cannot open, decode or parse as a
:class:`ManifestError` naming the input.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg

from .expressions import (EvaluationError, ParseError, Theta, compile_theta,
                          parse_theta, probe_expressions)
from .family import AffineFamily
from .hermitian import (ArgumentError, DenseHermitian,
                        NotPositiveDefiniteError, cholesky, hermitian)
from .mmio import MMFormatError, read_matrix_market

__all__ = [
    "ManifestError",
    "unit_circle_family",
    "random_family",
    "one_parameter_analytic_family",
    "block_grid_family",
    "coercivity_transform",
    "singular_value_expansion",
    "read_input",
    "require",
    "GENERATORS",
    "generate_family",
    "load_family",
    "write_problem_files",
]

SYMMETRY_TOL = 1e-10
SINGULAR_DENSE_CAP = 2048   # the singular-value expansion is dense
PIPELINES = ("eig", "coercivity", "singular")
GAP_GRID = 200              # one-param: points of the gap verification grid
GAP_ATTEMPTS = 10           # one-param: draws before the gap is given up
BLOCK_COEFF_RANGE = (0.1, 0.5)   # blocks: every parameter's interval


class ManifestError(ValueError):
    """Refused input: ``field`` names the offending entry and ``reason``
    says why, in a message ``field '<field>': <reason>``; for a whole JSON
    document ('<json>') the message is the reason, which names its input."""

    def __init__(self, field, message):
        super().__init__(message if field == "<json>"
                         else f"field '{field}': {message}")
        self.field = field
        self.reason = message


def unit_circle_family():
    """2x2 rotation family cos(mu) A1 + sin(mu) A2 on [0, pi].

    Its joint numerical range is the unit circle, so the smallest
    eigenvalue is identically -1; the family is the standard stress test
    for lower-bound kinks between samples.
    """
    a1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    a2 = np.array([[0.0, -1.0], [-1.0, 0.0]])
    return AffineFamily(terms=(a1, a2),
                        theta=compile_theta(("cos(mu1)", "sin(mu1)"), 1),
                        domain=((0.0, np.pi),), name="unit-circle")


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
    theta = compile_theta(["1", *(f"mu{k}" for k in range(1, q))], q - 1)
    domain = tuple((0.0, float(delta)) for _ in range(q - 1))
    return AffineFamily(terms=tuple(terms), theta=theta, domain=domain,
                        name=f"random-q{q}-n{n}")


def one_parameter_analytic_family(n=40, gap=1.0, seed=0):
    """Analytic one-parameter family with a certified spectral gap.

    A(mu) = A_1 + mu A_2 + (mu^2/2) A_3 on [-1, 1], built so that the two
    smallest eigenvalues stay at least gap/2 apart on a verification grid of
    GAP_GRID points (regenerated with fresh randomness up to GAP_ATTEMPTS
    times).
    The smallest eigenvalue is then simple and analytic across the whole
    interval, the regime in which the subspace bounds converge
    geometrically.
    """
    if gap <= 0:
        raise ArgumentError("gap must be positive")
    rng = np.random.default_rng(seed)
    theta = compile_theta(("1", "mu1", "mu1*mu1/2"), 1)
    mus = np.linspace(-1.0, 1.0, GAP_GRID)
    for _ in range(GAP_ATTEMPTS):
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
                           domain=((-1.0, 1.0),), name="one-parameter-analytic")
        ok = True
        for mu in mus:
            w = np.linalg.eigvalsh(fam.assemble_dense([mu]))
            if w[1] - w[0] < 0.5 * gap:
                ok = False
                break
        if ok:
            return fam
    raise ArgumentError(
        f"could not realize spectral gap {gap} in {GAP_ATTEMPTS} attempts")


def _laplacian_2d(nx, ny):
    h2 = float((nx + 1) * (ny + 1))  # 1/(hx*hy) scaling keeps entries O(n)
    ex = np.ones(nx)
    ey = np.ones(ny)
    tx = sparse.diags([-ex[:-1], 2 * ex, -ex[:-1]], [-1, 0, 1])
    ty = sparse.diags([-ey[:-1], 2 * ey, -ey[:-1]], [-1, 0, 1])
    lap = sparse.kron(sparse.eye(ny), tx) + sparse.kron(ty, sparse.eye(nx))
    return (h2 * lap).tocsr()


def _mixed_stencil_2d(nx, ny):
    # cross-derivative coupling between diagonal grid neighbours: node
    # (i, j) meets (i+1, j+1) with sign -1 and (i+1, j-1) with sign +1
    h2 = float((nx + 1) * (ny + 1))
    M = 0.5 * h2 * sparse.kron(sparse.eye(ny, k=-1) - sparse.eye(ny, k=1),
                               sparse.eye(nx, k=1))
    return (M + M.T).tocsr() * 0.5


def block_grid_family(nx=32, ny=33, blocks=(3, 3)):
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
    theta = compile_theta(["1", *(f"mu{k}" for k in range(1, q))], q - 1)
    domain = (BLOCK_COEFF_RANGE,) * (q - 1)
    return AffineFamily(terms=tuple(terms), theta=theta, domain=domain,
                        name=f"block-grid-{nx}x{ny}-{gx}x{gy}")


def coercivity_transform(family, X):
    """The stiffness family with the SPD inner product X attached.

    Every eigenproblem of the result is the pencil (A(mu), X), so its
    smallest eigenvalue at mu is the discrete coercivity constant.  The
    terms are kept as they are; X enters through its sparse factor
    (:func:`~eigenbounds.hermitian.cholesky`).
    """
    return replace(family, name=family.name + ":coercivity",
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
    src = list(theta_sources)
    for i in range(q):
        for j in range(i, q):
            pair = C[i].T @ C[j]
            terms.append(DenseHermitian(pair if i == j
                                        else pair + C[j].T @ C[i]))
            pair_sources.append(f"({src[i]})*({src[j]})")
    return AffineFamily(terms=tuple(terms),
                        theta=compile_theta(pair_sources, len(domain)),
                        domain=tuple(domain), name="singular-value-expansion")


def _unreadable(field, where, exc):
    """The ManifestError of ``field`` for ``exc``, raised opening, decoding
    or parsing the input ``where``: a path, or the name of JSON text."""
    if isinstance(exc, FileNotFoundError):
        return ManifestError(field, f"file not found: {where}")
    if isinstance(exc, IsADirectoryError):
        return ManifestError(field, f"a directory, not a file: {where}")
    if isinstance(exc, UnicodeDecodeError):
        return ManifestError(field, f"not UTF-8 text: {where}: {exc.reason} "
                             f"at byte {exc.start}")
    if isinstance(exc, json.JSONDecodeError):
        return ManifestError(field, f"not valid JSON: {where}: {exc}")
    return ManifestError(field, f"cannot read: {where}: {exc.strerror}")


def read_input(path, text=None, as_json=True):
    """The JSON object in the UTF-8 file ``path``, or the file's text when
    not ``as_json``.  Given JSON ``text``, the object in it instead, with
    ``path`` only naming it (an option, say); text ``@file`` names the
    file to read.  Every failure to open, decode or parse the input is a
    ManifestError of field '<json>' whose message names the input."""
    if text is not None and text.startswith("@"):
        path, text = text[1:], None
    try:
        if text is None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        value = json.loads(text) if as_json else text
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _unreadable("<json>", path, exc) from exc
    if as_json and not isinstance(value, dict):
        raise ManifestError("<json>", "top level is not an object but "
                            f"{type(value).__name__}: {path}")
    return value


def _not_a(kind, value):
    """Why ``value`` is not a ``kind``: an int (never a bool), for ``float``
    a finite int or float, else an instance; None if it is one."""
    if kind not in (int, float):
        return (None if isinstance(value, kind) else
                f"expected {kind.__name__}, got {type(value).__name__}")
    if (not isinstance(value, (int, float) if kind is float else int)
            or isinstance(value, bool)):
        return (f"expected {'number' if kind is float else 'integer'}, "
                f"got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:
        return f"not finite: {value!r}"
    return None


def require(record, field, kind, length=None, default=None, least=None,
            positive=False, choices=None, nullable=False):
    """``record[field]`` if it is a ``kind`` as :func:`_not_a` says (an int
    in a ``float`` field comes back as a float, a NumPy scalar as its
    Python value) of ``length``, not below ``least``, above 0 when
    ``positive`` and one of ``choices``, or None when ``nullable``; else a
    ManifestError naming ``field``.  An absent field is ``default``,
    refused when that is None and not ``nullable``."""
    if field not in record:
        if default is None and not nullable:
            raise ManifestError(field, "missing")
        return default
    value = record[field]
    if isinstance(value, np.generic):
        value = value.item()
    if value is None and nullable:
        return None
    if (why := _not_a(kind, value)) is not None:
        raise ManifestError(field, why)
    if length is not None and len(value) != length:
        raise ManifestError(field, f"expected length {length}, got {len(value)}")
    if least is not None and value < least:
        raise ManifestError(field, f"must be at least {least}, got {value}")
    if positive and not value > 0:
        raise ManifestError(field, f"must be positive, got {value}")
    if choices is not None and value not in choices:
        raise ManifestError(field, f"must be one of {choices}, got {value!r}")
    return float(value) if kind is float else value


# each generator's spec fields, checked as manifest fields are
GENERATORS = {
    "unit-circle": lambda spec: unit_circle_family(),
    "random": lambda spec: random_family(
        q=require(spec, "Q", int, default=4, least=2),
        n=require(spec, "N", int, default=200, least=1),
        delta=require(spec, "delta", float, default=0.2, positive=True),
        seed=require(spec, "seed", int, default=0, least=0)),
    "one-param": lambda spec: one_parameter_analytic_family(
        n=require(spec, "N", int, default=40, least=2),
        gap=require(spec, "gap", float, default=1.0, positive=True),
        seed=require(spec, "seed", int, default=0, least=0)),
    "blocks": lambda spec: block_grid_family(
        nx=require(spec, "nx", int, default=32, least=1),
        ny=require(spec, "ny", int, default=33, least=1),
        blocks=(require(spec, "blocks_x", int, default=3, least=1),
                require(spec, "blocks_y", int, default=3, least=1))),
}


def generate_family(spec):
    """The family of a generator spec, a dict with a "kind" field."""
    kind = require(spec, "kind", str, choices=tuple(sorted(GENERATORS)))
    return GENERATORS[kind](spec)


def _checked_hermitian(mat, field, rel):
    """``hermitian(mat)`` of a sparse ``mat``, refused unless
    ||A - H||_F / max(||H||_F, 1) is at most SYMMETRY_TOL for A = ``mat``
    and its Hermitian part H."""
    op, norm = hermitian(mat), scipy.sparse.linalg.norm
    defect = norm(mat - op.matrix) / max(norm(op.matrix), 1.0)
    if defect > SYMMETRY_TOL:
        raise ManifestError(field, f"{rel} is not Hermitian (relative defect "
                            f"{defect:.2e} > {SYMMETRY_TOL})")
    return op


def _read_manifest_matrix(base, rel, field):
    """The square matrix of manifest field ``field``'s Matrix Market file
    ``rel``, a path absolute or relative to the manifest's directory
    ``base``; a malformed file's MMFormatError names ``rel``."""
    try:
        mat = read_matrix_market(os.path.join(base, rel))
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(field, rel, exc) from exc
    except MMFormatError as exc:
        raise MMFormatError(f"{rel}: {exc}") from exc
    if mat.shape[0] != mat.shape[1]:
        raise ManifestError(field, f"{rel} is not square")
    if mat.shape[0] == 0:
        raise ManifestError(field, f"{rel} is empty (0x0)")
    return mat


def load_family(path):
    """Load an affine family from a JSON manifest.

    Schema: {"Q", "P", "domain": [[lo,hi],...], "theta": [expr,...],
    "terms": [mtx paths,...], "inner_product": optional path,
    "pipeline": "eig"|"coercivity"|"singular"}.  Term paths are resolved
    relative to the manifest.  Returns (family, metadata).
    """
    manifest = read_input(path)
    base = os.path.dirname(os.path.abspath(path))

    q = require(manifest, "Q", int, least=1)
    p = require(manifest, "P", int, least=1)
    domain_raw = require(manifest, "domain", list, length=p)
    domain = []
    for k, pair in enumerate(domain_raw):
        if (not isinstance(pair, list) or len(pair) != 2
                or any(_not_a(float, v) for v in pair) or pair[0] > pair[1]):
            raise ManifestError("domain", f"entry {k} is not a valid interval")
        domain.append((float(pair[0]), float(pair[1])))
    theta_raw = require(manifest, "theta", list, length=q)
    terms_raw = require(manifest, "terms", list, length=q)
    pipeline = require(manifest, "pipeline", str, default="eig",
                       choices=PIPELINES)

    exprs = []
    for k, text in enumerate(theta_raw):
        if (why := _not_a(str, text)) is not None:
            raise ManifestError("theta", f"entry {k}: {why}")
        try:
            exprs.append(parse_theta(text, n_params=p))
        except ParseError as exc:
            raise ManifestError("theta", f"entry {k}: {exc}") from exc
    theta = Theta(tuple(exprs))
    try:
        probe_expressions(theta, domain)
    except EvaluationError as exc:
        raise ManifestError("theta", str(exc)) from exc

    matrices = []
    n = None
    for k, rel in enumerate(terms_raw):
        if (why := _not_a(str, rel)) is not None:
            raise ManifestError("terms", f"entry {k}: {why}")
        mat = _read_manifest_matrix(base, rel, "terms")
        if n is None:
            n = mat.shape[0]
        elif mat.shape[0] != n:
            raise ManifestError(
                "terms", f"{rel} has dimension {mat.shape[0]}, expected {n}")
        matrices.append((mat, rel))

    inner = None
    rel = require(manifest, "inner_product", str, nullable=True)
    if rel is not None:
        if pipeline == "eig":
            raise ManifestError("inner_product", "the eig pipeline takes "
                                "none; use coercivity or singular")
        inner = _read_manifest_matrix(base, rel, "inner_product")
        if inner.shape[0] != n:
            raise ManifestError("inner_product",
                                f"dimension {inner.shape[0]}, expected {n}")
        inner = _checked_hermitian(inner, "inner_product", rel)

    meta = {"pipeline": pipeline, "Q": q, "P": p, "path": os.path.abspath(path)}

    if pipeline == "singular":
        if inner is None:
            inner = sparse.eye(n).tocsr()
        try:
            return singular_value_expansion([m for m, _ in matrices],
                                            theta.sources, domain,
                                            inner), meta
        except np.linalg.LinAlgError as exc:    # only its Cholesky of X
            raise ManifestError("inner_product",
                                f"{rel} is not positive definite") from exc

    wrapped = [_checked_hermitian(mat, "terms", rel)
               for mat, rel in matrices]
    fam = AffineFamily(terms=tuple(wrapped), theta=theta,
                       domain=tuple(domain), name=os.path.basename(path))
    if pipeline == "coercivity":
        if inner is None:
            raise ManifestError("inner_product",
                                "required for the coercivity pipeline")
        try:
            return coercivity_transform(fam, inner), meta
        except NotPositiveDefiniteError as exc:
            raise ManifestError("inner_product",
                                f"{rel} is not positive definite") from exc
    return fam, meta


def write_problem_files(kind, outdir, spec=None, pipeline="eig"):
    """Write a generator's matrices plus a manifest into ``outdir``.

    Emits one Matrix Market file per term (plus an SPD inner-product matrix
    for the coercivity/singular pipelines) and manifest.json referencing
    them, so that :func:`load_family` reproduces the generated problem.
    """
    def write(name, matrix):
        # a COO matrix, as SciPy writes a dense array in the array format;
        # the lower triangle only, with 17 digits so float64 round-trips
        A = sparse.coo_matrix(matrix)
        scipy.io.mmwrite(os.path.join(outdir, name), A, precision=17,
                         symmetry=("hermitian" if np.iscomplexobj(A)
                                   else "symmetric"))

    family = generate_family({**(spec or {}), "kind": kind})
    os.makedirs(outdir, exist_ok=True)
    term_files = []
    for qi, term in enumerate(family.terms):
        name = f"term_{qi + 1}.mtx"
        write(name, term.dense()
              if not hasattr(term, "matrix") else term.matrix)
        term_files.append(name)
    manifest = {"Q": family.q, "P": family.p,
                "domain": [[lo, hi] for lo, hi in family.domain],
                "theta": list(family.theta_source), "terms": term_files,
                "pipeline": pipeline}
    if pipeline in ("coercivity", "singular"):
        rng = np.random.default_rng(1)
        G = rng.standard_normal((family.n, family.n))
        write("inner_product.mtx", G @ G.T / family.n + np.eye(family.n))
        manifest["inner_product"] = "inner_product.mtx"
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path
