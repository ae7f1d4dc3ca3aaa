import csv
import json
import os
from dataclasses import fields

import jsonschema
import numpy as np
import pytest

from eigenbounds import cli, driver
from eigenbounds.cli import main
from eigenbounds.driver import (RunConfig, heuristic_first_valid,
                                load_problem, run_pipeline)
from eigenbounds.hermitian import ArgumentError
from eigenbounds.problems import write_problem_files
from eigenbounds.scm import GreedyRecord
from helpers import write_mtx

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src",
                           "eigenbounds", "schemas", "summary.schema.json")


def read_summary(outdir):
    with open(os.path.join(outdir, "summary.json")) as fh:
        return json.load(fh)


def test_schema_config_is_every_run_config_field():
    # summary.json's config is asdict(RunConfig), so the schema requires
    # every field and describes no other
    with open(SCHEMA_PATH) as fh:
        config = json.load(fh)["properties"]["config"]
    names = [f.name for f in fields(RunConfig)]
    assert config["required"] == names
    assert sorted(config["properties"]) == sorted(names)


def circle_manifest(tmp_path):
    from eigenbounds import unit_circle_family
    fam = unit_circle_family()
    d = tmp_path / "circle"
    d.mkdir()
    write_mtx(d / "a1.mtx", fam.terms[0].dense())
    write_mtx(d / "a2.mtx", fam.terms[1].dense())
    manifest = {"Q": 2, "P": 1, "domain": [[0.0, np.pi]],
                "theta": ["cos(mu1)", "sin(mu1)"],
                "terms": ["a1.mtx", "a2.mtx"], "pipeline": "eig"}
    path = d / "manifest.json"
    path.write_text(json.dumps(manifest))
    return str(path)


class TestRunPipeline:
    def test_unit_circle_subspace_artifacts(self, tmp_path):
        family, meta = load_problem(manifest=circle_manifest(tmp_path))
        config = RunConfig(pipeline="subspace", eps=1e-4, j_max=10,
                           n_train=64, train_seed=1, oracle=True)
        out = tmp_path / "run"
        summary = run_pipeline(config, family, str(out), problem_meta=meta)
        assert summary["termination"]["converged"]
        assert summary["termination"]["iterations"] <= 3
        for name in ("convergence.csv", "bounds.csv", "summary.json"):
            assert (out / name).exists()
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        jsonschema.validate(summary, schema)

        header = (out / "convergence.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "iter", "mu_1", "max_error_ratio", "max_abs_ub_error",
            "max_abs_lb_error", "heuristic_valid", "wall_seconds_cumulative",
            "eig_seconds", "lp_seconds", "reduced_seconds", "lp_count",
            "eig_count"]
        bheader = (out / "bounds.csv").read_text().splitlines()[0]
        assert bheader.split(",") == [
            "mu_1", "lam_lb", "lam_slb", "lam_sub", "lam_ub", "heuristic",
            "residual", "chosen_r", "error_ratio", "oracle_lambda_min",
            "ratio_fallback"]

    def test_oracle_cascade_in_bounds_table(self, tmp_path):
        # a standard family, and a pencil whose oracle is scipy's eigh(A, X):
        # the one-param N=40 coercivity problem as `gen` writes it
        pencil = write_problem_files("one-param", str(tmp_path / "pencil"),
                                     spec={"N": 40}, pipeline="coercivity")
        sources = [{"generator": {"kind": "random", "Q": 3, "N": 60,
                                  "delta": 0.3, "seed": 2}},
                   {"manifest": pencil}]
        config = RunConfig(pipeline="subspace", eps=1e-3, j_max=15,
                           n_train=40, train_seed=3, oracle=True)
        for i, source in enumerate(sources):
            family, meta = load_problem(**source)
            out = tmp_path / f"r{i}"
            summary = run_pipeline(config, family, str(out), problem_meta=meta)
            assert summary["oracle_active"]
            rows = (out / "bounds.csv").read_text().splitlines()[1:]
            p = family.p
            for row in rows:
                parts = row.split(",")
                lb, slb, sub, ub = (float(parts[p + k]) for k in range(4))
                oracle = float(parts[p + 8])
                slack = 1e-8 * (1 + abs(oracle))
                assert lb <= slb + slack <= oracle + 2 * slack
                assert oracle <= sub + slack
                assert sub <= ub + slack

    def test_scm_not_converged_flagged(self, tmp_path):
        family, meta = load_problem(
            generator={"kind": "random", "Q": 4, "N": 80, "delta": 0.2,
                       "seed": 4})
        config = RunConfig(pipeline="scm", eps=1e-4, j_max=10, n_train=50,
                           train_seed=5)
        summary = run_pipeline(config, family, str(tmp_path / "s"),
                               problem_meta=meta)
        assert not summary["termination"]["converged"]
        assert "not converged" in summary["termination"]["reason"]

    def test_bit_identical_reruns(self, tmp_path):
        family, meta = load_problem(
            generator={"kind": "random", "Q": 3, "N": 50, "delta": 0.25,
                       "seed": 6})
        config = RunConfig(pipeline="subspace", eps=1e-3, j_max=8,
                           n_train=30, train_seed=7)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        run_pipeline(config, family, str(out1), problem_meta=meta)
        run_pipeline(config, family, str(out2), problem_meta=meta)
        # all numeric results are bit-identical; wall-clock columns are not
        assert (out1 / "bounds.csv").read_bytes() == \
            (out2 / "bounds.csv").read_bytes()
        a = (out1 / "convergence.csv").read_text().splitlines()
        b = (out2 / "convergence.csv").read_text().splitlines()
        header = a[0].split(",")
        timing = {header.index(c) for c in
                  ("wall_seconds_cumulative", "eig_seconds", "lp_seconds",
                   "reduced_seconds")}
        assert len(a) == len(b)
        for ra, rb in zip(a[1:], b[1:]):
            pa = [v for k, v in enumerate(ra.split(",")) if k not in timing]
            pb = [v for k, v in enumerate(rb.split(",")) if k not in timing]
            assert pa == pb

    def test_oracle_cap_omits_columns(self, tmp_path, monkeypatch):
        family, meta = load_problem(
            generator={"kind": "random", "Q": 2, "N": 40, "delta": 0.3,
                       "seed": 10})
        monkeypatch.setattr(driver, "ORACLE_CAP", 30)  # below N: omitted
        config = RunConfig(pipeline="subspace", eps=1e-3, j_max=5,
                           n_train=20, train_seed=11, oracle=True)
        out = tmp_path / "capped"
        summary = run_pipeline(config, family, str(out), problem_meta=meta)
        assert not summary["oracle_active"]
        assert summary["heuristic_first_valid_iteration"] is None
        lines = (out / "convergence.csv").read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("max_abs_ub_error")
        for line in lines[1:]:
            assert line.split(",")[col] == ""

    def test_heuristic_first_valid_logic(self):
        def rec(it, valid):
            return GreedyRecord(iteration=it, selected_index=0,
                                selected_mu=np.zeros(1), max_ratio=1.0,
                                wall_seconds=0.0, eig_seconds=0, lp_seconds=0,
                                reduced_seconds=0, lp_count=0, eig_count=0,
                                heuristic_valid=valid)
        assert heuristic_first_valid([rec(1, False), rec(2, True),
                                      rec(3, True)]) == 2
        assert heuristic_first_valid([rec(1, True), rec(2, False),
                                      rec(3, True)]) == 3
        assert heuristic_first_valid([rec(1, False)]) is None
        assert heuristic_first_valid([rec(1, None)]) is None


class TestCli:
    def test_run_and_compare_roundtrip(self, tmp_path, capsys):
        manifest = circle_manifest(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["run", "--manifest", manifest, "--out", out_a,
                     "--pipeline", "scm", "--train-size", "64",
                     "--train-seed", "9", "--j-max", "12",
                     "--eps", "1e-3"]) == 0
        assert main(["run", "--manifest", manifest, "--out", out_b,
                     "--pipeline", "subspace", "--train-size", "64",
                     "--train-seed", "9", "--j-max", "12",
                     "--eps", "1e-3"]) == 0
        capsys.readouterr()
        csv_out = str(tmp_path / "cmp.csv")
        assert main(["compare", out_a, out_b, "--out", csv_out]) == 0
        text = capsys.readouterr().out
        assert "run B ratio <= run A ratio at every common iteration: yes" \
            in text
        with open(csv_out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "iter,max_ratio_a,max_ratio_b"
        for line in lines[1:]:
            it, ra, rb = line.split(",")
            if ra and rb:
                assert float(rb) <= float(ra) * (1 + 1e-9) + 1e-12

    def test_subspace_heuristic_run_and_compare_unequal_curves(
            self, tmp_path, capsys):
        gen = json.dumps({"kind": "random", "Q": 3, "N": 40, "delta": 0.3,
                          "seed": 2})
        common = ["run", "--generator", gen, "--train-size", "30",
                  "--train-seed", "1", "--eps", "1e-12"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main([*common, "--pipeline", "subspace-heuristic", "--oracle",
                     "--j-max", "6", "--out", out_a]) == 0
        assert main([*common, "--pipeline", "scm", "--j-max", "3",
                     "--out", out_b]) == 0
        summary = read_summary(out_a)
        with open(SCHEMA_PATH) as fh:
            jsonschema.validate(summary, json.load(fh))
        assert summary["config"]["pipeline"] == "subspace-heuristic"
        assert summary["oracle_active"]

        def table(run, name):
            with open(os.path.join(run, name), newline="") as fh:
                return list(csv.reader(fh))

        conv = table(out_a, "convergence.csv")
        assert conv[0] == [
            "iter", "mu_1", "mu_2", "max_error_ratio", "max_abs_ub_error",
            "max_abs_lb_error", "heuristic_valid", "wall_seconds_cumulative",
            "eig_seconds", "lp_seconds", "reduced_seconds", "lp_count",
            "eig_count"]
        assert table(out_a, "bounds.csv")[0] == [
            "mu_1", "mu_2", "lam_lb", "lam_slb", "lam_sub", "lam_ub",
            "heuristic", "residual", "chosen_r", "error_ratio",
            "oracle_lambda_min", "ratio_fallback"]
        valid = conv[0].index("heuristic_valid")
        assert len(conv) == 7
        assert all(row[valid] in ("1", "0") for row in conv[1:])

        # the table repeats each run's max_error_ratio cells, and leaves
        # run B's empty past its last iteration
        capsys.readouterr()
        assert main(["compare", out_a, out_b]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("run A: subspace-heuristic, 6 iterations")
        ratio_a = [row[3] for row in conv[1:]]
        ratio_b = [row[3] for row in table(out_b, "convergence.csv")[1:]]
        assert len(ratio_b) == 3
        assert lines[-7:] == ["iter,max_ratio_a,max_ratio_b"] + [
            f"{k + 1},{ra},{ratio_b[k] if k < 3 else ''}"
            for k, ra in enumerate(ratio_a)]

    def test_compare_identical_runs_zero_diff(self, tmp_path, capsys):
        manifest = circle_manifest(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["run", "--manifest", manifest, "--out", out,
                         "--pipeline", "subspace", "--train-size", "32",
                         "--train-seed", "3"]) == 0
        capsys.readouterr()
        assert main(["compare", out_a, out_b]) == 0
        assert "identical (zero diff)" in capsys.readouterr().out

    def test_compare_rejects_mismatched_seeds(self, tmp_path, capsys):
        manifest = circle_manifest(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["run", "--manifest", manifest, "--out", out_a,
              "--train-size", "32", "--train-seed", "1"])
        main(["run", "--manifest", manifest, "--out", out_b,
              "--train-size", "32", "--train-seed", "2"])
        capsys.readouterr()
        assert main(["compare", out_a, out_b]) == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "CompareError"
        assert "seed" in payload["message"]

    def test_invalid_manifest_exit_2_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"Q": 2, "P": 1,
                                   "domain": [[0.0, 1.0]],
                                   "theta": ["co(mu1)", "1"],
                                   "terms": ["x.mtx", "y.mtx"]}))
        code = main(["run", "--manifest", str(bad), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["field"] == "theta"

    @pytest.mark.parametrize("theta", [
        "exp(1000*mu1)", "cos(mu1*1e308*10)", "mu1*1e308*10"],
        ids=["exp-overflow", "cos-of-inf", "product-overflow"])
    def test_theta_overflow_exit_2_names_field(self, tmp_path, capsys,
                                               theta):
        manifest = circle_manifest(tmp_path)
        with open(manifest) as fh:
            data = json.load(fh)
        data["theta"] = [theta, "sin(mu1)"]
        with open(manifest, "w") as fh:
            json.dump(data, fh)
        assert main(["run", "--manifest", manifest, "--out",
                     str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ManifestError"
        assert payload["field"] == "theta"
        assert "theta[0]" in payload["message"]

    @pytest.mark.parametrize("where, text", [
        ("manifest", "42"), ("manifest", "null"), ("manifest", "[1, 2]"),
        ("config", "[1]"), ("generator", "42"), ("spec", "[1]")],
        ids=["manifest-int", "manifest-null", "manifest-list", "config-list",
             "generator-int", "spec-list"])
    def test_json_input_not_an_object_exit_2(self, tmp_path, capsys, where,
                                             text):
        path = tmp_path / "input.json"
        path.write_text(text)
        out = str(tmp_path / "o")
        argv = {"manifest": ["run", "--manifest", str(path), "--out", out],
                "config": ["run", "--generator", '{"kind": "random"}',
                           "--config", str(path), "--out", out],
                "generator": ["run", "--generator", text, "--out", out],
                "spec": ["gen", "--kind", "random", "--spec", text,
                         "--out", out]}[where]
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ManifestError"
        assert payload["field"] == "<json>"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("case", [
        "manifest-missing", "manifest-directory", "manifest-not-utf8",
        "manifest-malformed", "term-missing", "term-directory",
        "generator-malformed", "generator-file-missing", "spec-malformed",
        "config-missing", "config-malformed", "compare-missing-run",
        "compare-corrupt-summary", "compare-summary-missing-key",
        "compare-summary-mistyped-key", "compare-ratio-not-a-number"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, case):
        # every input that cannot be opened, decoded or parsed is refused
        # with exit 2 and one JSON line naming it, before --out is made
        out = str(tmp_path / "o")
        gone = str(tmp_path / "gone.json")
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{bad")
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"Q": "\xe9"}')
        manifest = circle_manifest(tmp_path)
        (tmp_path / "circle" / "sub").mkdir()
        term = {"term-missing": "gone.mtx", "term-directory": "sub"}.get(case)
        if term:
            with open(manifest) as fh:
                data = json.load(fh)
            data["terms"][1] = term
            with open(manifest, "w") as fh:
                json.dump(data, fh)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "summary.json").write_text("{bad")
        (run_dir / "convergence.csv").write_text("iter,max_error_ratio\n")
        # runs whose files parse but hold what compare cannot read
        summary = {"seeds": {"train_seed": 0}, "training_size": 1,
                   "problem": {"domain": [[0.0, 1.0]]},
                   "config": {"pipeline": "scm"},
                   "termination": {"iterations": 1}, "final_max_ratio": 0.5}
        odd_runs = {"compare-summary-missing-key": ({}, "1,0.5"),
                    "compare-summary-mistyped-key": (
                        {**summary, "training_size": "1"}, "1,0.5"),
                    "compare-ratio-not-a-number": (summary, "1,abc")}
        odd_dir = tmp_path / "odd"
        if case in odd_runs:
            odd, row = odd_runs[case]
            odd_dir.mkdir()
            (odd_dir / "summary.json").write_text(json.dumps(odd))
            (odd_dir / "convergence.csv").write_text(
                f"iter,max_error_ratio\n{row}\n")
        run = ["run", "--out", out]
        gen = ["run", "--generator", '{"kind": "random"}', "--out", out]
        argv, where, field = {
            "manifest-missing": (run + ["--manifest", gone], gone, "<json>"),
            "manifest-directory": (run + ["--manifest", str(run_dir)],
                                   str(run_dir), "<json>"),
            "manifest-not-utf8": (run + ["--manifest", str(latin1)],
                                  str(latin1), "<json>"),
            "manifest-malformed": (run + ["--manifest", str(malformed)],
                                   str(malformed), "<json>"),
            "term-missing": (run + ["--manifest", manifest], term, "terms"),
            "term-directory": (run + ["--manifest", manifest], term,
                               "terms"),
            "generator-malformed": (run + ["--generator", "{bad"],
                                    "--generator", "<json>"),
            "generator-file-missing": (run + ["--generator", "@" + gone],
                                       gone, "<json>"),
            "spec-malformed": (["gen", "--kind", "random", "--spec", "{bad",
                                "--out", out], "--spec", "<json>"),
            "config-missing": (gen + ["--config", gone], gone, "<json>"),
            "config-malformed": (gen + ["--config", str(malformed)],
                                 str(malformed), "<json>"),
            "compare-missing-run": (
                ["compare", str(tmp_path / "norun"), str(run_dir)],
                str(tmp_path / "norun"), None),
            "compare-corrupt-summary": (
                ["compare", str(run_dir), str(run_dir)],
                str(run_dir / "summary.json"), None),
            "compare-summary-missing-key": (
                ["compare", str(odd_dir), str(run_dir)],
                f"{odd_dir / 'summary.json'}: missing or mistyped "
                "'seeds.train_seed'", None),
            "compare-summary-mistyped-key": (
                ["compare", str(odd_dir), str(run_dir)],
                f"{odd_dir / 'summary.json'}: missing or mistyped "
                "'training_size'", None),
            "compare-ratio-not-a-number": (
                ["compare", str(odd_dir), str(run_dir)],
                f"{odd_dir / 'convergence.csv'}: a max_error_ratio cell",
                None),
        }[case]
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert where in payload["message"]
        if field is None:
            assert payload["error"] == "CompareError"
        else:
            assert payload["error"] == "ManifestError"
            assert payload["field"] == field
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind", [["random"], {}, 3],
                             ids=["list", "object", "number"])
    def test_generator_kind_not_a_string_exit_2(self, tmp_path, capsys,
                                                kind):
        out = str(tmp_path / "o")
        assert main(["run", "--generator", json.dumps({"kind": kind}),
                     "--out", out]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ManifestError"
        assert payload["field"] == "kind"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("spec, field", [
        ({"kind": "blocks", "blocks_x": 0}, "blocks_x"),
        ({"kind": "blocks", "blocks_y": -2}, "blocks_y"),
        ({"kind": "blocks", "nx": 0}, "nx"),
        ({"kind": "blocks", "ny": 0}, "ny"),
        ({"kind": "one-param", "N": 1}, "N"),
        ({"kind": "random", "N": -3}, "N"),
        ({"kind": "blocks", "nx": 2.7}, "nx"),
        ({"kind": "blocks", "ny": True}, "ny"),
        ({"kind": "random", "Q": 2.9}, "Q"),
        ({"kind": "random", "Q": 1}, "Q"),
        ({"kind": "random", "seed": -1}, "seed"),
        ({"kind": "one-param", "gap": "nan"}, "gap"),
        ({"kind": "one-param", "gap": float("nan")}, "gap"),
        ({"kind": "random", "delta": "inf"}, "delta"),
        ({"kind": "random", "delta": float("inf")}, "delta"),
        ({"kind": "random", "delta": 0}, "delta"),
        ({"kind": "random", "delta": -0.2}, "delta"),
        ({"kind": "one-param", "gap": 0}, "gap"),
    ], ids=["blocks_x", "blocks_y", "nx", "ny", "one-param-N", "random-N",
            "nx-float", "ny-bool", "random-Q-float", "random-Q-one",
            "random-seed-negative", "gap-nan-string", "gap-nan",
            "delta-inf-string", "delta-inf", "delta-zero", "delta-negative",
            "gap-zero"])
    def test_generator_size_below_floor_exit_2(self, tmp_path, capsys, spec,
                                               field):
        out = str(tmp_path / "o")
        assert main(["run", "--generator", json.dumps(spec), "--out",
                     out]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ManifestError"
        assert payload["field"] == field
        assert not os.path.exists(out)
        # gen refuses the same spec and writes no manifest
        rest = {k: v for k, v in spec.items() if k != "kind"}
        assert main(["gen", "--kind", spec["kind"], "--spec",
                     json.dumps(rest), "--out", out]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ManifestError"
        assert payload["field"] == field
        assert not os.path.exists(out)

    def test_zero_dimension_terms_exit_2(self, tmp_path, capsys):
        import scipy.sparse as sparse
        write_mtx(tmp_path / "a.mtx", sparse.csr_matrix((0, 0)))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "Q": 1, "P": 1, "domain": [[0.0, 1.0]], "theta": ["1"],
            "terms": ["a.mtx"]}))
        assert main(["run", "--manifest", str(manifest), "--out",
                     str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ManifestError"
        assert payload["field"] == "terms"
        assert "a.mtx" in payload["message"]

    def test_zero_dimension_inner_product_exit_2(self, tmp_path, capsys):
        import scipy.sparse as sparse
        manifest = circle_manifest(tmp_path)
        write_mtx(tmp_path / "circle" / "x.mtx", sparse.csr_matrix((0, 0)))
        with open(manifest) as fh:
            data = json.load(fh)
        data.update(inner_product="x.mtx", pipeline="coercivity")
        with open(manifest, "w") as fh:
            json.dump(data, fh)
        assert main(["run", "--manifest", manifest, "--out",
                     str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ManifestError"
        assert payload["field"] == "inner_product"
        assert "x.mtx" in payload["message"]

    def test_non_finite_term_entry_exit_2(self, tmp_path, capsys):
        manifest = circle_manifest(tmp_path)
        term = tmp_path / "circle" / "a1.mtx"
        lines = term.read_text().splitlines()
        lines[-1] = " ".join(lines[-1].split()[:2] + ["nan"])
        term.write_text("\n".join(lines) + "\n")
        code = main(["run", "--manifest", manifest, "--out",
                     str(tmp_path / "o")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "MMFormatError"
        assert "non-finite" in payload["message"]
        assert "a1.mtx" in payload["message"]

    def test_inner_product_with_eig_pipeline_exit_2(self, tmp_path, capsys):
        manifest = circle_manifest(tmp_path)
        write_mtx(tmp_path / "circle" / "x.mtx", np.diag([1.0, -5.0]))
        with open(manifest) as fh:
            data = json.load(fh)
        data["inner_product"] = "x.mtx"
        with open(manifest, "w") as fh:
            json.dump(data, fh)
        code = main(["run", "--manifest", manifest, "--out",
                     str(tmp_path / "o")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ManifestError"
        assert payload["field"] == "inner_product"

    def test_non_symmetric_inner_product_exit_2(self, tmp_path, capsys):
        manifest = circle_manifest(tmp_path)
        write_mtx(tmp_path / "circle" / "x.mtx",
                  np.array([[2.0, 3.0], [0.0, 2.0]]), symmetry="general")
        with open(manifest) as fh:
            data = json.load(fh)
        data.update(inner_product="x.mtx", pipeline="coercivity")
        with open(manifest, "w") as fh:
            json.dump(data, fh)
        code = main(["run", "--manifest", manifest, "--out",
                     str(tmp_path / "o")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ManifestError"
        assert payload["field"] == "inner_product"

    def test_gen_then_run(self, tmp_path, capsys):
        gen_dir = str(tmp_path / "gen")
        assert main(["gen", "--kind", "unit-circle", "--out", gen_dir]) == 0
        manifest = os.path.join(gen_dir, "manifest.json")
        assert os.path.exists(manifest)
        out = str(tmp_path / "run")
        assert main(["run", "--manifest", manifest, "--out", out,
                     "--train-size", "32"]) == 0
        assert read_summary(out)["termination"]["converged"]

    def test_gen_coercivity_manifest(self, tmp_path):
        gen_dir = str(tmp_path / "genc")
        spec = json.dumps({"Q": 2, "N": 25, "delta": 0.3, "seed": 1})
        assert main(["gen", "--kind", "random", "--out", gen_dir,
                     "--pipeline", "coercivity", "--spec", spec]) == 0
        out = str(tmp_path / "runc")
        assert main(["run", "--manifest",
                     os.path.join(gen_dir, "manifest.json"), "--out", out,
                     "--train-size", "20", "--eps", "1e-3",
                     "--j-max", "15"]) == 0

    @staticmethod
    def _run_blocks_with_a_zero_term(tmp_path):
        """The summary of a 12x10 blocks run to J=4 with an all-zero term
        appended to its manifest."""
        import scipy.sparse as sparse
        gen_dir = tmp_path / "blocks"
        spec = json.dumps({"nx": 12, "ny": 10, "blocks_x": 2, "blocks_y": 2})
        assert main(["gen", "--kind", "blocks", "--out", str(gen_dir),
                     "--spec", spec]) == 0
        write_mtx(gen_dir / "zero.mtx", sparse.csr_matrix((120, 120)))
        path = gen_dir / "manifest.json"
        data = json.loads(path.read_text())
        data.update(Q=data["Q"] + 1, theta=data["theta"] + ["mu1"],
                    terms=data["terms"] + ["zero.mtx"])
        path.write_text(json.dumps(data))
        out = str(tmp_path / "run")
        assert main(["run", "--manifest", str(path), "--out", out,
                     "--train-size", "20", "--j-max", "4"]) == 0
        return read_summary(out)

    def test_manifest_with_an_all_zero_term_runs(self, tmp_path):
        summary = self._run_blocks_with_a_zero_term(tmp_path)
        assert summary["termination"]["iterations"] == 4
        assert summary["counts"]["shift_fallbacks"] == 0

    def test_eig_count_is_the_solves_that_ran(self, tmp_path):
        # box: two ARPACK solves for the Laplacian, one tridiagonal
        # reduction for each of the 4 subdomain terms, none for the zero
        # term; then one per sample
        summary = self._run_blocks_with_a_zero_term(tmp_path)
        assert summary["counts"]["eig"] == 2 + 4 + 0 + 4

    def test_generator_spec_inline(self, tmp_path):
        out = str(tmp_path / "r")
        spec = json.dumps({"kind": "random", "Q": 2, "N": 30,
                           "delta": 0.3, "seed": 8})
        assert main(["run", "--generator", spec, "--out", out,
                     "--train-size", "25", "--eps", "1e-3",
                     "--j-max", "20"]) == 0

    def test_config_file_overrides_flags(self, tmp_path):
        manifest = circle_manifest(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 16, "pipeline": "scm"}))
        out = str(tmp_path / "o")
        assert main(["run", "--manifest", manifest, "--out", out,
                     "--train-size", "64", "--pipeline", "subspace",
                     "--config", str(cfg), "--j-max", "12",
                     "--eps", "1e-3"]) == 0
        summary = read_summary(out)
        assert summary["config"]["n_train"] == 16
        assert summary["config"]["pipeline"] == "scm"

    def _assert_config_field_rejected(self, tmp_path, capsys, field,
                                      value=1):
        manifest = circle_manifest(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        out = tmp_path / "o"
        code = main(["run", "--manifest", manifest, "--out", str(out),
                     "--config", str(cfg)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["field"] == field
        assert not out.exists()
        return payload

    @pytest.mark.parametrize("field, value", [("r_max", "2"),
                                              ("eps", "1e-3"),
                                              ("oracle", 1),
                                              ("j_max", True)])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys,
                                                 field, value):
        self._assert_config_field_rejected(tmp_path, capsys, field, value)

    def test_config_int_accepted_for_float_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 1, "r_max": None, "j_max": 3}))
        out = str(tmp_path / "o")
        assert main(["run", "--manifest", circle_manifest(tmp_path), "--out",
                     out, "--train-size", "8", "--config", str(cfg)]) == 0
        config = read_summary(out)["config"]
        assert config["eps"] == 1.0 and isinstance(config["eps"], float)
        assert config["r_max"] is None and config["j_max"] == 3

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        self._assert_config_field_rejected(tmp_path, capsys, "nonsense")

    def test_config_field_refusal_names_the_field_not_a_manifest(
            self, tmp_path, capsys):
        payload = self._assert_config_field_rejected(tmp_path, capsys, "x")
        assert payload["message"] == "field 'x': unknown config field"

    def test_generator_refusal_gives_its_reason_alone(self, tmp_path,
                                                      capsys):
        out = tmp_path / "o"
        assert main(["run", "--generator", "{bad", "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["field"] == "<json>"
        assert payload["message"].startswith("not valid JSON: --generator: ")
        assert "manifest" not in payload["message"]
        assert not out.exists()

    def test_deleted_lazy_sweep_field_rejected(self, tmp_path, capsys):
        self._assert_config_field_rejected(tmp_path, capsys, "lazy_sweep")

    def test_deleted_warm_start_field_rejected(self, tmp_path, capsys):
        payload = self._assert_config_field_rejected(tmp_path, capsys,
                                                     "warm_start", False)
        assert "unknown config field" in payload["message"]

    @pytest.mark.parametrize("field, value", [("lp_tol", 1e-8),
                                              ("oracle_cap", 800)])
    def test_deleted_run_option_rejected(self, tmp_path, capsys, field,
                                         value):
        # the values an older summary.json config holds
        payload = self._assert_config_field_rejected(tmp_path, capsys,
                                                     field, value)
        assert "unknown config field" in payload["message"]
        flag = "--" + field.replace("_", "-")
        assert flag not in cli._build_parser().format_help()
        with pytest.raises(SystemExit) as exc:
            main(["run", "--generator", '{"kind": "unit-circle"}', "--out",
                  str(tmp_path / "o"), flag, str(value)])
        assert exc.value.code == 2

    def test_config_file_workers_other_than_one_rejected(self, tmp_path,
                                                         capsys):
        manifest = circle_manifest(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2}))
        out = tmp_path / "o"
        code = main(["run", "--manifest", manifest, "--out", str(out),
                     "--config", str(cfg)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ArgumentError"
        assert "workers" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("field", ["r_max", "train_seed", "seed"])
    def test_negative_value_rejected_before_any_work(self, tmp_path, capsys,
                                                     field):
        manifest = circle_manifest(tmp_path)
        out = tmp_path / "o"
        code = main(["run", "--manifest", manifest, "--out", str(out),
                     "--" + field.replace("_", "-"), "-1"])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {"error": "ArgumentError",
                           "message": f"{field} must be non-negative"}
        assert not out.exists()
        with pytest.raises(ArgumentError,
                           match=f"{field} must be non-negative"):
            RunConfig(**{field: -1}).validate()

    def _assert_run_rejected(self, tmp_path, capsys, args, name):
        out = tmp_path / "o"
        code = main(["run", "--manifest", circle_manifest(tmp_path), "--out",
                     str(out), *args])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ArgumentError"
        assert name in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--eps", "nan"),
                                             ("--eps", "inf")])
    def test_non_finite_tolerance_flag_rejected(self, tmp_path, capsys, flag,
                                                value):
        self._assert_run_rejected(tmp_path, capsys, [flag, value],
                                  flag[2:].replace("-", "_"))

    @pytest.mark.parametrize("field", ["eps"])
    def test_config_nan_tolerance_rejected(self, tmp_path, capsys, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: float("nan")}))
        assert "NaN" in cfg.read_text()
        self._assert_run_rejected(tmp_path, capsys, ["--config", str(cfg)],
                                  field)

    def test_bare_run_takes_run_config_defaults(self, tmp_path,
                                                monkeypatch):
        seen = []

        def record(config, family, outdir, problem_meta=None):
            seen.append(config)
            return {"termination": {"iterations": 0, "converged": False},
                    "final_max_ratio": 0.0}

        monkeypatch.setattr(cli, "run_pipeline", record)
        run = ["run", "--generator", '{"kind": "unit-circle"}', "--out",
               str(tmp_path / "o")]
        assert main(run) == 0
        assert main(run + ["--eps", "1e-3", "--train-size", "7",
                           "--oracle"]) == 0
        assert seen == [RunConfig(),
                        RunConfig(eps=1e-3, n_train=7, oracle=True)]
