"""Smoke runs of the demos that exercise the inner-product and the
singular-value transforms."""

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
