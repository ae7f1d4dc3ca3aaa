import numpy as np
import pytest
import scipy.io
import scipy.sparse as sparse
from numpy.testing import assert_allclose

from eigenbounds import MMFormatError, block_grid_family, read_matrix_market
from helpers import assert_same_csr, write_mtx

try:    # the pure-Python writer, scipy.io.mmwrite before SciPy 1.12
    from scipy.io._mmio import mmwrite as legacy_mmwrite
except ImportError:
    legacy_mmwrite = None

WRITERS = pytest.mark.parametrize("writer", [
    pytest.param(scipy.io.mmwrite, id="mmwrite"),
    pytest.param(legacy_mmwrite, id="legacy", marks=pytest.mark.skipif(
        legacy_mmwrite is None, reason="no scipy.io._mmio.mmwrite")),
])


@WRITERS
def test_symmetric_roundtrip_exact(tmp_path, writer):
    rng = np.random.default_rng(0)
    A = sparse.random(25, 25, density=0.2, random_state=0,
                      data_rvs=rng.standard_normal)
    A = (A + A.T).tocsr()
    path = tmp_path / "sym.mtx"
    write_mtx(path, A, writer=writer)
    B = read_matrix_market(path)
    assert (path.read_text().splitlines()[0]
            == "%%MatrixMarket matrix coordinate real symmetric")
    assert_same_csr(B, A)  # bit-exact values via 17 significant digits

    # a second write of what was read is the same file
    path2 = tmp_path / "sym2.mtx"
    write_mtx(path2, B, writer=writer)
    assert path.read_text() == path2.read_text()


@WRITERS
def test_hermitian_complex_roundtrip(tmp_path, writer):
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    A = 0.5 * (A + A.conj().T)
    path = tmp_path / "herm.mtx"
    write_mtx(path, A, writer=writer)
    B = read_matrix_market(path)
    assert (path.read_text().splitlines()[0]
            == "%%MatrixMarket matrix coordinate complex hermitian")
    assert_same_csr(B, sparse.csr_matrix(A))


@WRITERS
def test_general_matrix(tmp_path, writer):
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 5))
    path = tmp_path / "gen.mtx"
    write_mtx(path, A, symmetry="general", writer=writer)
    B = read_matrix_market(path)
    assert (path.read_text().splitlines()[0]
            == "%%MatrixMarket matrix coordinate real general")
    assert_same_csr(B, sparse.csr_matrix(A))


@WRITERS
def test_zero_matrix_and_block_terms_roundtrip_exact(tmp_path, writer):
    # an all-zero 120x120 term and the ten sparse blocks family terms
    mats = [sparse.csr_matrix((120, 120))]
    mats += [term.matrix for term in block_grid_family().terms]
    for k, A in enumerate(mats):
        path = tmp_path / f"m{k}.mtx"
        write_mtx(path, A, writer=writer)
        assert_same_csr(read_matrix_market(path), A)


def test_comment_and_blank_lines_before_size_line_in_any_order(tmp_path):
    path = tmp_path / "late.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "\n% late comment\n\n2 2 1\n2 1 5.0\n")
    assert_same_csr(read_matrix_market(path),
                    sparse.csr_matrix([[0.0, 0.0], [5.0, 0.0]]))


def test_bad_banner(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%NotMatrixMarket nonsense\n1 1 1\n1 1 2.0\n")
    with pytest.raises(MMFormatError):
        read_matrix_market(path)


def test_entry_count_mismatch(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 1.0\n")
    with pytest.raises(MMFormatError):
        read_matrix_market(path)


def test_index_out_of_range(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n3 1 1.0\n")
    with pytest.raises(MMFormatError):
        read_matrix_market(path)


def test_integer_field_reads_as_float(tmp_path):
    path = tmp_path / "int.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer symmetric\n"
                    "2 2 2\n1 1 3\n2 1 -1\n")
    A = read_matrix_market(path)
    assert A.dtype == float
    assert_allclose(A.toarray(), [[3.0, -1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("kind, entry", [
    ("real symmetric", "2 2 nan"),
    ("real symmetric", "2 2 inf"),
    ("real general", "2 2 -inf"),
    ("complex hermitian", "2 2 1.0 nan"),
    pytest.param("real general", "1 1 1.0\n\n2 2 inf", id="after-blank"),
])
def test_non_finite_value_names_line(tmp_path, kind, entry):
    # the non-finite entry is the last of ``entry``'s lines; blank lines
    # hold no entry but count in the line number
    lines = entry.splitlines()
    nnz = sum(1 for line in lines if line.strip())
    path = tmp_path / "nan.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate {kind}\n"
                    f"% a comment\n2 2 {nnz}\n{entry}\n")
    with pytest.raises(MMFormatError,
                       match=f"line {3 + len(lines)}: '{lines[-1]}'"):
        read_matrix_market(path)


@pytest.mark.parametrize("kind, size, entry, bad_line", [
    ("real general", "2 2 1", "2 2 abc", 4),
    ("real general", "2 2 1", "2 x 1.0", 4),
    ("complex hermitian", "2 2 1", "2 2 1.0 1j", 4),
    ("real general", "2 2.5 1", "2 2 1.0", 3),
    ("real general", "2 2 -1", "2 2 1.0", 3),
    ("real general", "1_0 2 1", "2 2 1.0", 3),
    # digit-group underscores, which Python's int and float accept
    ("real general", "20 20 1", "1_0 1 1.0", 4),
    ("real general", "20 20 1", "1 1 1_0", 4),
    # trailing text after the value
    ("real general", "2 2 1", "2 2 1.0 5.0", 4),
    ("real general", "2 2 1", "2 2 1.0junk", 4),
    ("real general", "2 2 1", "2 2 1.0 % c", 4),
    # indices: 0 is out of range (they start at 1), floats are no indices
    ("real general", "2 2 1", "0 1 1.0", 4),
    ("real general", "2 2 1", "1.0 1 2.0", 4),
    pytest.param("real general", "2 2 2", "1 1 1.0\n\n2 2 1.0x", 6,
                 id="after-blank"),
])
def test_unparsable_field_names_line(tmp_path, kind, size, entry, bad_line):
    path = tmp_path / "bad.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate {kind}\n"
                    f"% a comment\n{size}\n{entry}\n")
    text = path.read_text().splitlines()[bad_line - 1]
    with pytest.raises(MMFormatError, match=f"line {bad_line}: '{text}'"):
        read_matrix_market(path)


@pytest.mark.parametrize("kind, entries, bad_line", [
    pytest.param("real general", "1 2 5.0\n1 2 5.0", 5, id="general"),
    # one off-diagonal entry given in both triangles
    pytest.param("real symmetric", "2 1 5.0\n1 2 5.0", 5, id="symmetric"),
    pytest.param("complex hermitian",
                 "2 2 1.0 0.0\n\n2 1 5.0 1.0\n1 2 5.0 -1.0", 7,
                 id="hermitian-after-blank"),
])
def test_duplicate_entry_names_line(tmp_path, kind, entries, bad_line):
    nnz = sum(1 for line in entries.splitlines() if line.strip())
    path = tmp_path / "dup.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate {kind}\n"
                    f"% a comment\n2 2 {nnz}\n{entries}\n")
    text = path.read_text().splitlines()[bad_line - 1]
    with pytest.raises(MMFormatError,
                       match=f"duplicate entry on line {bad_line}: '{text}'"):
        read_matrix_market(path)
