"""Correctness gate and determinism check for one benchmark run.

Roundoff allowance, fixed before any result was looked at: every bound
the package reports is built from quantities assembled by inner products
of length n (Rayleigh quotients, reduced matrices V*A_q V, Ritz
residuals) followed by small dense eigensolves and LP solves whose
backward errors are of order u*||A||.  The standard bound for a computed
n-term inner product is gamma_n = n*u / (1 - n*u) times the product of
the norms (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
ed., section 3.1), with unit roundoff u = 2^-53.  A reported
interval [lower, upper] therefore passes when

    lower <= ref + gamma_n ||A(mu)||  and  upper >= ref - gamma_n ||A(mu)||,

with ||A(mu)|| <= sum_q |theta_q(mu)| * max(|lo_q|, |hi_q|) taken from
the run's own spectral bounding box.  The allowance covers roundoff only:
it does not cover inexact eigen-data (the package's eigensolver tolerance),
which is the open correctness item in ROADMAP.md.  A non-finite bound
fails.
"""

from __future__ import annotations

import hashlib

import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53

# bounds.csv columns holding the certified interval, per pipeline
INTERVAL_COLUMNS = {
    "scm": ("lam_lb", "lam_ub"),
    "subspace": ("lam_slb", "lam_sub"),
}


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u)."""
    nu = n * UNIT_ROUNDOFF
    return nu / (1.0 - nu)


def norm_bounds(box, thetas):
    """Upper bound on ||A(mu)||_2 per row of ``thetas`` from the box."""
    scale = np.maximum(np.abs(box.lower), np.abs(box.upper))
    return np.abs(np.asarray(thetas)) @ scale


def read_bounds(path):
    """bounds.csv as (column -> float array, digest of its numeric rows).

    Every bounds.csv column is numeric; empty cells read as NaN.  The
    digest covers the data rows byte for byte, so two runs agree on it
    exactly when every value is bit-identical.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8").strip().split(",")
        body = fh.read()
    rows = [line.split(",") for line in body.decode("utf-8").splitlines()]
    table = {}
    for k, name in enumerate(header):
        table[name] = np.array([float(r[k]) if r[k] else np.nan
                                for r in rows])
    return table, hashlib.sha256(body).hexdigest()


def points_of(table):
    """The training points (rows of mu_1..mu_P) in table order."""
    p = sum(1 for name in table if name.startswith("mu_"))
    return np.column_stack([table[f"mu_{k + 1}"] for k in range(p)])


def failed_points(table, pipeline, index, reference, allowance):
    """Number of checked points whose interval misses the reference.

    ``index`` selects the checked rows, ``reference`` and ``allowance``
    hold one value per checked row.  Returns (failures, largest excess in
    units of the allowance) where the excess is how far the interval
    misses the reference.
    """
    lo_name, hi_name = INTERVAL_COLUMNS[pipeline]
    lower = table[lo_name][index]
    upper = table[hi_name][index]
    finite = np.isfinite(lower) & np.isfinite(upper)
    excess = np.maximum(lower - reference, reference - upper)
    bad = ~finite | (excess > allowance)
    worst = float(np.max(np.where(finite, excess / allowance, np.inf)))
    return int(bad.sum()), worst
