"""Smoke runs of every demo that writes no files: 01-04.  Demo 05
writes a work directory and is left out."""

import os
import runpy

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")


def run_demo(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    return capsys.readouterr().out


def float_rows(text, width):
    """Rows of exactly ``width`` numbers among the printed lines."""
    rows = []
    for line in text.splitlines():
        try:
            row = [float(x) for x in line.split()]
        except ValueError:
            continue
        if len(row) == width:
            rows.append(row)
    return rows


def test_rotation_demo_brackets_and_subspace_is_exact(capsys):
    rows = float_rows(run_demo("01_rotation_family_kink.py", capsys), 6)
    assert len(rows) == 13
    for _, exact, lb, ub, slb, sub in rows:
        assert lb <= exact <= ub
        assert slb == sub == exact == -1.0


def test_scm_vs_subspace_demo_converges_by_j_12():
    names = runpy.run_path(os.path.join(DEMOS, "02_scm_vs_subspace.py"),
                           run_name="__main__")
    sub, scm = names["sub"], names["scm"]
    assert sub.converged and len(sub.records) <= 12
    assert sub.records[-1].max_ratio <= 1e-4
    assert not scm.converged and "iteration cap" in scm.reason
    assert len(scm.records) == len(sub.records)


def test_coercivity_demo_brackets_generalized_eigenvalue(capsys):
    # rounding is monotone, so the printed digits keep the order of the
    # values they print
    rows = float_rows(run_demo("03_coercivity_constant.py", capsys), 4)
    assert len(rows) == 8
    for _, slb, exact, sub in rows:
        assert slb <= exact <= sub


def test_singular_value_demo_runs(capsys):
    out = run_demo("04_singular_values.py", capsys)
    assert len(float_rows(out, 4)) == 8
