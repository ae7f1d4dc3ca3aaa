"""Strict Matrix Market coordinate-format reader.

Reads real, integer or complex matrices with general, symmetric or
hermitian symmetry, as ``scipy.io.mmwrite`` writes them from a sparse COO
matrix (from a dense array it writes the ``array`` format, refused here).
Comment and blank lines may precede the size line in any order.  One
``numpy.loadtxt`` call parses the entries; trailing text, digit-group
underscores, float or out-of-range indices, non-finite values and an
(i, j) given twice (in either triangle of a symmetric file) are refused,
naming the line.
"""

import warnings

import numpy as np
import scipy.sparse as sparse

__all__ = ["MMFormatError", "read_matrix_market"]


class MMFormatError(ValueError):
    """Malformed Matrix Market file; message carries the offending line."""


def read_matrix_market(path):
    """The CSR matrix of a coordinate-format Matrix Market file, with both
    triangles filled in for symmetric/hermitian files."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MMFormatError("empty file")
    banner = lines[0]
    parts = banner.split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise MMFormatError(f"bad banner line: {banner!r}")
    obj, fmt, field, symmetry = (p.lower() for p in parts[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise MMFormatError(f"unsupported object/format: {banner!r}")
    if field not in ("real", "complex", "integer"):
        raise MMFormatError(f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric", "hermitian"):
        raise MMFormatError(f"unsupported symmetry {symmetry!r}")

    idx = 1    # comment and blank lines, in any order, up to the size line
    while idx < len(lines) and (lines[idx].startswith("%")
                                or not lines[idx].strip()):
        idx += 1
    if idx >= len(lines):
        raise MMFormatError("missing size line")
    size_parts = lines[idx].split()
    if len(size_parts) != 3:
        raise MMFormatError(f"bad size line: {lines[idx]!r}")
    if not all(p.isdecimal() for p in size_parts):
        raise MMFormatError(f"cannot parse line {idx + 1}: {lines[idx]!r}")
    nrows, ncols, nnz = (int(p) for p in size_parts)

    body = lines[idx + 1:]
    def fail(what, pos):    # entry pos sits on the pos-th non-blank line
        k = [k for k, line in enumerate(body, idx + 1) if line.strip()][pos]
        return MMFormatError(f"{what} line {k + 1}: {lines[k]!r}")
    dtype = "i8,i8,f8,f8" if field == "complex" else "i8,i8,f8"
    entries = _parse(body, dtype)
    if entries is None:    # name the first line that does not parse alone
        raise fail("cannot parse", next(
            p for p, line in enumerate(filter(str.strip, body))
            if _parse([line], dtype) is None))
    if len(entries) != nnz:
        raise MMFormatError(f"declared {nnz} entries, found {len(entries)}")
    rows, cols = entries["f0"] - 1, entries["f1"] - 1
    vals = (entries["f2"] + 1j * entries["f3"] if field == "complex"
            else entries["f2"])
    # a symmetric file may give an off-diagonal entry in either triangle
    sym = symmetry in ("symmetric", "hermitian")
    key = (np.maximum(rows, cols) * ncols + np.minimum(rows, cols) if sym
           else rows * ncols + cols)
    first = np.zeros(len(key), bool)
    first[np.unique(key, return_index=True)[1]] = True
    for what, ok in (("index out of range on", (0 <= rows) & (rows < nrows)
                      & (0 <= cols) & (cols < ncols)),
                     ("non-finite value on", np.isfinite(vals)),
                     ("duplicate entry on", first)):
        if not ok.all():
            raise fail(what, np.argmin(ok))

    A = sparse.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    if sym:
        off = rows != cols
        mirror = vals[off].conj() if symmetry == "hermitian" else vals[off]
        A = A + sparse.coo_matrix((mirror, (cols[off], rows[off])),
                                  shape=(nrows, ncols))
    return A.tocsr()


def _parse(lines, dtype):
    """The entry lines as a structured array, or None if one is malformed."""
    if not "".join(lines).strip():    # loadtxt warns on empty input
        return np.zeros(0, dtype)
    with warnings.catch_warnings():    # NumPy < 2 only deprecates "1.0"
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None
