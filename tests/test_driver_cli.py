import json
import os

import jsonschema
import numpy as np
import pytest

from eigenbounds import cli
from eigenbounds.cli import main
from eigenbounds.driver import (RunConfig, heuristic_first_valid,
                                load_problem, run_pipeline)
from eigenbounds.hermitian import ArgumentError
from eigenbounds.scm import GreedyRecord

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src",
                           "eigenbounds", "schemas", "summary.schema.json")


def read_summary(outdir):
    with open(os.path.join(outdir, "summary.json")) as fh:
        return json.load(fh)


def circle_manifest(tmp_path):
    from eigenbounds import unit_circle_family, write_matrix_market
    fam = unit_circle_family()
    d = tmp_path / "circle"
    d.mkdir()
    write_matrix_market(d / "a1.mtx", fam.terms[0].dense())
    write_matrix_market(d / "a2.mtx", fam.terms[1].dense())
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
            "residual", "chosen_r", "error_ratio", "oracle_lambda_min"]

    def test_oracle_cascade_in_bounds_table(self, tmp_path):
        family, meta = load_problem(
            generator={"kind": "random", "Q": 3, "N": 60, "delta": 0.3,
                       "seed": 2})
        config = RunConfig(pipeline="subspace", eps=1e-3, j_max=15,
                           n_train=40, train_seed=3, oracle=True)
        out = tmp_path / "r"
        run_pipeline(config, family, str(out), problem_meta=meta)
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

    def test_oracle_cap_omits_columns(self, tmp_path):
        family, meta = load_problem(
            generator={"kind": "random", "Q": 2, "N": 40, "delta": 0.3,
                       "seed": 10})
        config = RunConfig(pipeline="subspace", eps=1e-3, j_max=5,
                           n_train=20, train_seed=11, oracle=True,
                           oracle_cap=30)  # below N: columns must be omitted
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
        lines = open(csv_out).read().splitlines()
        assert lines[0] == "iter,max_ratio_a,max_ratio_b"
        for line in lines[1:]:
            it, ra, rb = line.split(",")
            if ra and rb:
                assert float(rb) <= float(ra) * (1 + 1e-9) + 1e-12

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

    def test_inner_product_with_eig_pipeline_exit_2(self, tmp_path, capsys):
        from eigenbounds import write_matrix_market
        manifest = circle_manifest(tmp_path)
        write_matrix_market(tmp_path / "circle" / "x.mtx",
                            np.diag([1.0, -5.0]))
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
        from eigenbounds import write_matrix_market
        manifest = circle_manifest(tmp_path)
        write_matrix_market(tmp_path / "circle" / "x.mtx",
                            np.array([[2.0, 3.0], [0.0, 2.0]]),
                            symmetry="general")
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

    def test_deleted_lazy_sweep_field_rejected(self, tmp_path, capsys):
        self._assert_config_field_rejected(tmp_path, capsys, "lazy_sweep")

    def test_deleted_warm_start_field_rejected(self, tmp_path, capsys):
        payload = self._assert_config_field_rejected(tmp_path, capsys,
                                                     "warm_start", False)
        assert "unknown config field" in payload["message"]

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
                                             ("--eps", "inf"),
                                             ("--lp-tol", "nan"),
                                             ("--lp-tol", "inf")])
    def test_non_finite_tolerance_flag_rejected(self, tmp_path, capsys, flag,
                                                value):
        self._assert_run_rejected(tmp_path, capsys, [flag, value],
                                  flag[2:].replace("-", "_"))

    @pytest.mark.parametrize("field", ["eps", "lp_tol"])
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
