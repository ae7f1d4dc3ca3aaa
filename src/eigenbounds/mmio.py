"""Matrix Market coordinate-format reader/writer.

Supports real/complex matrices with general, symmetric or hermitian
symmetry.  Values are written with 17 significant digits so float64
entries round-trip exactly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

__all__ = ["MMFormatError", "read_matrix_market", "write_matrix_market"]

_FIELDS = {"real", "complex", "integer"}
_SYMMETRIES = {"general", "symmetric", "hermitian"}


class MMFormatError(ValueError):
    """Malformed Matrix Market file; message carries the offending line."""


def read_matrix_market(path):
    """Read a coordinate-format Matrix Market file.

    Returns a CSR sparse matrix, with both triangles filled in for
    symmetric/hermitian files.
    """
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
    if field not in _FIELDS:
        raise MMFormatError(f"unsupported field {field!r}")
    if symmetry not in _SYMMETRIES:
        raise MMFormatError(f"unsupported symmetry {symmetry!r}")

    idx = 1
    while idx < len(lines) and lines[idx].startswith("%"):
        idx += 1
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise MMFormatError("missing size line")
    size_parts = lines[idx].split()
    if len(size_parts) != 3:
        raise MMFormatError(f"bad size line: {lines[idx]!r}")
    k, line = idx, lines[idx]    # the line being parsed, for the message
    try:
        nrows, ncols, nnz = (int(p) for p in size_parts)
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=complex if field == "complex" else float)
        count = 0
        for k, line in enumerate(lines[idx + 1:], idx + 1):
            if not line.strip():
                continue
            if count >= nnz:
                raise MMFormatError("more entries than declared")
            parts = line.split()
            want = 4 if field == "complex" else 3
            if len(parts) != want:
                raise MMFormatError(f"bad entry line: {line!r}")
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise MMFormatError(f"index out of range: {line!r}")
            rows[count] = i
            cols[count] = j
            if field == "complex":
                vals[count] = float(parts[2]) + 1j * float(parts[3])
            else:
                vals[count] = float(parts[2])
            count += 1
    except MMFormatError:
        raise
    except ValueError as exc:    # int() / float() of a malformed field
        raise MMFormatError(f"cannot parse line {k + 1}: {line!r}") from exc
    idx += 1
    if count != nnz:
        raise MMFormatError(f"declared {nnz} entries, found {count}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        # entries sit on the non-blank lines after the size line
        k = [k for k in range(idx, len(lines)) if lines[k].strip()][bad[0]]
        raise MMFormatError(f"non-finite value on line {k + 1}: {lines[k]!r}")

    A = sparse.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    if symmetry in ("symmetric", "hermitian"):
        off = rows != cols
        mirror = vals[off].conj() if symmetry == "hermitian" else vals[off]
        A = A + sparse.coo_matrix((mirror, (cols[off], rows[off])),
                                  shape=(nrows, ncols))
    return A.tocsr()


def _format_value(v, field):
    if field == "complex":
        return f"{v.real:.16e} {v.imag:.16e}"
    return f"{v:.16e}"


def write_matrix_market(path, matrix, symmetry=None):
    """Write a matrix in coordinate format.

    ``symmetry`` defaults to 'symmetric' (real) / 'hermitian' (complex);
    pass 'general' for unsymmetric matrices.  For symmetric/hermitian output
    only the lower triangle is stored.
    """
    A = sparse.coo_matrix(matrix)
    iscomplex = np.iscomplexobj(A.data) if A.nnz else False
    field = "complex" if iscomplex else "real"
    if symmetry is None:
        symmetry = "hermitian" if iscomplex else "symmetric"
    if symmetry not in _SYMMETRIES:
        raise MMFormatError(f"unsupported symmetry {symmetry!r}")

    rows, cols, vals = A.row, A.col, A.data
    if symmetry in ("symmetric", "hermitian"):
        keep = rows >= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]

    out = [f"%%MatrixMarket matrix coordinate {field} {symmetry}",
           f"{A.shape[0]} {A.shape[1]} {len(vals)}"]
    for i, j, v in zip(rows, cols, vals):
        out.append(f"{i + 1} {j + 1} {_format_value(v, field)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
