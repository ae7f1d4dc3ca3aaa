"""The benchmark's workloads: inputs, run settings and reference eigenvalues.

Each workload is one fixed problem.  The seed given on the command line
draws its ``train_sets`` training sets (``RunConfig.train_seed`` is
``seed * train_sets + k``); the solver seed stays at its default.  Work
differs between training sets (the LP solve count by about 10%), so a run
times several and reports their mean.  Every workload stops at an
iteration cap that no training set reaches the tolerance before, so the
greedy loop does the same number of iterations on every seed; README.md
gives the measurements behind each choice.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from eigenbounds.problems import block_grid_family

GRID_SIDE = 46          # n = 2116 > 2048 keeps the terms in operator form
GRID_SHIFT = 0.3        # X = Laplacian + GRID_SHIFT * mean(diag) * I


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``problem`` is a generator spec for ``load_problem``, or a function
    that writes the problem's files into a directory and returns what
    :meth:`prepare` returns.  ``config`` holds the RunConfig fields that
    differ from the defaults, ``reference`` names the independent
    eigensolver the correctness gate uses ('dense' or 'shift-invert'),
    ``checked`` the number of points of each training set it checks (None:
    all) and ``train_sets`` the number of training sets a run draws from
    its seed.
    """

    name: str
    why: str
    problem: object
    config: dict
    reference: str
    checked: int | None = None
    train_sets: int = 8
    theta: object = field(default=lambda mu: np.concatenate([[1.0], mu]))

    def prepare(self, workdir):
        """Write any input files; return (load_problem kwargs, terms, X).

        ``terms`` and ``X`` are the matrices the reference eigensolver uses
        when the benchmark made them itself, else None (the reference then
        reads the generated family's terms).
        """
        if callable(self.problem):
            return self.problem(os.path.join(workdir, "inputs"))
        return {"generator": dict(self.problem)}, None, None


DESK = {"kind": "random", "Q": 4, "N": 300, "delta": 0.2, "seed": 0}


def _write_grid_problem(outdir):
    """The blocks stencil on a 46x46 grid with 2x1 subdomains, as files.

    Terms and the SPD inner product are written with SciPy's Matrix Market
    writer, so the package's reader is checked against another writer.
    """
    os.makedirs(outdir, exist_ok=True)
    fam = block_grid_family(nx=GRID_SIDE, ny=GRID_SIDE, blocks=(2, 1))
    terms = [t.matrix.tocsr() for t in fam.terms]
    lap = terms[0]
    X = (lap + GRID_SHIFT * lap.diagonal().mean()
         * sparse.identity(lap.shape[0], format="csr")).tocsr()
    names = []
    for k, term in enumerate(terms):
        names.append(f"term_{k + 1}.mtx")
        scipy.io.mmwrite(os.path.join(outdir, names[-1]), term,
                         symmetry="symmetric")
    scipy.io.mmwrite(os.path.join(outdir, "inner_product.mtx"), X,
                     symmetry="symmetric")
    manifest = {
        "Q": fam.q, "P": fam.p,
        "domain": [list(iv) for iv in fam.domain],
        "theta": list(fam.theta_source),
        "terms": names,
        "inner_product": "inner_product.mtx",
        "pipeline": "coercivity",
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return {"manifest": path}, terms, X


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk-subspace",
        "random Q=4 n=300, 8 sets of 40 points, subspace to J=10: the "
        "per-point sweep is most of the time, eigensolves little "
        "(batched-sweep target)",
        DESK,
        {"pipeline": "subspace", "n_train": 40, "j_max": 10, "eps": 1e-8},
        reference="dense", checked=10),
    Workload(
        "desk-scm",
        "same problem and points, classical SCM to J=25: LP solves are most "
        "of the time and the subspace layer does none (LP warm-start target)",
        DESK,
        {"pipeline": "scm", "n_train": 40, "j_max": 25, "eps": 1e-8},
        reference="dense", checked=10),
    Workload(
        "blocks-subspace",
        "sparse blocks n=1056 Q=10 P=9, 6 sets of 25 points, subspace to "
        "J=10: the sweep at r up to 10 with a Q^2 cross tensor; shows sweep "
        "cost at Q=10",
        {"kind": "blocks"},
        {"pipeline": "subspace", "n_train": 25, "j_max": 10},
        reference="shift-invert", checked=4, train_sets=6),
    Workload(
        "grid-coercivity",
        "46x46 stencil read from Matrix Market, Cholesky transform n=2116 "
        "Q=3, 100 points, J=2: bounding box and operator eigensolves; mmio "
        "in setup",
        _write_grid_problem,
        {"pipeline": "subspace", "n_train": 100, "j_max": 2},
        reference="shift-invert", checked=8, train_sets=1),
    Workload(
        "smoke",
        "one-param n=40, 30 points to 1e-4: a seconds-long run for the "
        "benchmark's own tests",
        {"kind": "one-param", "N": 40, "gap": 1.0, "seed": 0},
        {"pipeline": "subspace", "n_train": 30, "j_max": 30},
        reference="dense", train_sets=2,
        theta=lambda mu: np.array([1.0, mu[0], 0.5 * mu[0] * mu[0]])),
)}



def checked_indices(workload, m):
    """The fixed subset of training-point indices the gate checks."""
    if workload.checked is None or workload.checked >= m:
        return np.arange(m)
    return np.linspace(0, m - 1, workload.checked).round().astype(int)


def _gershgorin(A):
    """(lower, upper) Gershgorin bounds on the spectrum of a sparse matrix."""
    A = sparse.csr_matrix(A)
    diag = A.diagonal()
    radius = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def reference_values(workload, terms, X, points):
    """Smallest eigenvalue of A(mu) (generalized with X if given) per point.

    'dense' uses LAPACK through numpy.linalg.eigvalsh.  'shift-invert' runs
    ARPACK on (A - sigma X)^{-1} X with sigma strictly below the spectrum
    (from Gershgorin discs), so the eigenvalue nearest sigma is the
    smallest one.
    """
    out = np.empty(len(points))
    for k, mu in enumerate(points):
        th = workload.theta(np.asarray(mu, dtype=float))
        if workload.reference == "dense":
            A = sum(c * (t.toarray() if sparse.issparse(t) else t)
                    for c, t in zip(th, terms))
            out[k] = np.linalg.eigvalsh(A)[0]
            continue
        A = sum(c * t for c, t in zip(th, terms)).tocsc()
        lo, _ = _gershgorin(A)
        if X is not None:
            x_lo, x_hi = _gershgorin(X)
            if x_lo <= 0:
                raise ValueError("Gershgorin discs do not show X is SPD")
            lo = lo / x_hi if lo >= 0 else lo / x_lo
        sigma = lo - 1e-3 * max(abs(lo), 1.0)
        vals = sparse_linalg.eigsh(A, k=1, M=X, sigma=sigma, which="LM",
                                   v0=np.ones(A.shape[0]), tol=0,
                                   return_eigenvectors=False)
        out[k] = vals[0]
    return out
