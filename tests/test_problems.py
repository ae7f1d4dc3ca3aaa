import json
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from numpy.testing import assert_allclose

from eigenbounds import (ManifestError, block_grid_family,
                         coercivity_transform, joint_rayleigh, load_family,
                         one_parameter_analytic_family, random_family,
                         singular_value_expansion, solve_at_sample,
                         unit_circle_family)
from eigenbounds.expressions import parse_theta
from eigenbounds.family import AffineFamily
from eigenbounds.hermitian import ArgumentError
from eigenbounds.problems import (GENERATORS, _mixed_stencil_2d,
                                  write_problem_files)
from helpers import write_mtx

# frozen output of random_family(2, 5, delta=0.2, seed=123)
GOLDEN_A1 = np.array([
    [-0.98912135034785087, 0.10465856989468406, 0.69254628997985290,
     0.16514777149286536, -0.64362009927997366],
    [0.10465856989468406, -0.63646364637098052, -0.49198909305432903,
     0.60771881423149021, 0.25276616269988839],
    [0.69254628997985290, -0.49198909305432903, 1.19216610410165846,
     -0.66552954448296520, 1.27094990717503920],
    [0.16514777149286536, 0.60771881423149021, -0.66552954448296520,
     -0.31179485646991756, 0.73228795991192708],
    [-0.64362009927997366, 0.25276616269988839, 1.27094990717503920,
     0.73228795991192708, 0.75476964431225080]])
GOLDEN_A2 = np.array([
    [-0.14597789311522394, 0.46006767744939475, 0.61920534582330577,
     0.56037420123320691, -0.31697289380161120],
    [0.46006767744939475, -1.23023219549044494, 1.04305523871694383,
     -1.71682210180243899, -0.21575433673634412],
    [0.61920534582330577, 1.04305523871694383, 1.76166123651181095,
     1.21163115132025889, -0.34215317433419101],
    [0.56037420123320691, -1.71682210180243899, 1.21163115132025889,
     -0.15647532482940535, 0.80807539866376055],
    [-0.31697289380161120, -0.21575433673634412, -0.34215317433419101,
     0.80807539866376055, -0.71818114788059595]])


def make_spd(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return g @ g.T / n + np.eye(n)


class TestGenerators:
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_theta_is_compiled_and_carries_its_sources(self, kind):
        # theta_source is what the compiled theta holds, not a second copy
        fam = GENERATORS[kind]({})
        assert "theta_source" not in [f.name for f in fields(AffineFamily)]
        assert fam.theta_source == fam.theta.sources
        assert len(fam.theta_source) == fam.q
        mu = np.mean(fam.domain, axis=1)
        assert fam.theta_at(mu).tolist() == [
            parse_theta(s).evaluate(mu) for s in fam.theta_source]

    def test_callable_theta_has_no_source(self):
        fam = AffineFamily(terms=(np.eye(2),), domain=((0.0, 1.0),),
                           theta=lambda mu: np.array([1.0]))
        assert fam.theta_source is None

    def test_unit_circle_values(self):
        fam = unit_circle_family()
        for mu in (0.0, np.pi / 4, np.pi / 2, 2.2):
            w = np.linalg.eigvalsh(fam.assemble_dense([mu]))
            assert_allclose(w, [-1.0, 1.0], atol=1e-14)
        assert_allclose(joint_rayleigh(fam, [0.0, 1.0]), [-1.0, 0.0],
                        atol=1e-15)

    def test_random_family_structure(self):
        fam = random_family(4, 50, delta=0.2, seed=0)
        assert fam.q == 4 and fam.p == 3 and fam.n == 50
        assert fam.domain == ((0.0, 0.2),) * 3
        assert_allclose(fam.theta_at([0.0, 0.0, 0.0]), [1, 0, 0, 0])
        assert_allclose(fam.theta_at([0.1, 0.2, 0.05]), [1, 0.1, 0.2, 0.05])

    def test_random_family_golden_regression(self):
        fam = random_family(2, 5, delta=0.2, seed=123)
        assert_allclose(fam.terms[0].dense(), GOLDEN_A1, atol=0)
        assert_allclose(fam.terms[1].dense(), GOLDEN_A2, atol=0)

    def test_random_family_needs_two_terms(self):
        with pytest.raises(ArgumentError):
            random_family(1, 10)

    def test_random_family_reference_configuration(self):
        # the full-scale configuration builds fine; solves happen at desk scale
        fam = random_family(4, 1000, delta=0.2, seed=0)
        assert fam.n == 1000 and fam.q == 4
        assert fam.domain == ((0.0, 0.2),) * 3
        mu = [0.05, 0.1, 0.15]
        x = np.random.default_rng(0).standard_normal(1000)
        y = fam.operator_at(mu).matvec(x)
        assert np.isfinite(y).all()

    def test_one_parameter_analytic_gap(self):
        fam = one_parameter_analytic_family(n=30, gap=1.0, seed=0)
        assert fam.q == 3 and fam.p == 1
        assert_allclose(fam.assemble_dense([0.0]), fam.terms[0].dense(),
                        atol=1e-14)
        for mu in np.linspace(-1, 1, 40):
            w = np.linalg.eigvalsh(fam.assemble_dense([mu]))
            assert w[1] - w[0] >= 0.5
        rng = np.random.default_rng(1)
        for mu in rng.uniform(-1, 1, 5):
            A = fam.assemble_dense([mu])
            assert np.linalg.norm(A - A.T) <= 1e-14 * np.linalg.norm(A)

    def test_block_grid_family_signature(self):
        fam = block_grid_family()  # defaults mirror the published scale
        assert fam.n == 1056
        assert fam.q == 10
        assert fam.p == 9
        assert fam.domain == ((0.1, 0.5),) * 9
        rng = np.random.default_rng(2)
        mu = rng.uniform(0.1, 0.5, 9)
        A = fam.operator_at(mu)
        x = rng.standard_normal(1056)
        y = A.matvec(x)
        assert np.isfinite(y).all()
        # assembled operator is symmetric positive definite on the domain
        quad = x @ y
        assert quad > 0

    @pytest.mark.parametrize("nx, ny", [(32, 33), (12, 10), (3, 2), (1, 5),
                                        (5, 1)])
    def test_mixed_stencil_matches_node_loop(self, nx, ny):
        # reference: the stencil built node by node; the Kronecker form must
        # give the same CSR arrays bit for bit
        h2 = float((nx + 1) * (ny + 1))
        rows, cols, vals = [], [], []
        for j in range(ny):
            for i in range(nx):
                for di, dj, sgn in ((1, 1, -1.0), (1, -1, 1.0)):
                    if 0 <= i + di < nx and 0 <= j + dj < ny:
                        rows.append(j * nx + i)
                        cols.append((j + dj) * nx + i + di)
                        vals.append(sgn * 0.5 * h2)
        M = scipy.sparse.coo_matrix((vals, (rows, cols)),
                                    shape=(nx * ny, nx * ny))
        want = (M + M.T).tocsr() * 0.5
        got = _mixed_stencil_2d(nx, ny)
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCoercivityTransform:
    def test_keeps_terms_theta_and_domain(self):
        fam = random_family(3, 10, delta=0.3, seed=1)
        out = coercivity_transform(fam, np.eye(10))
        assert out.theta is fam.theta and out.domain == fam.domain
        assert all(a is b for a, b in zip(out.terms, fam.terms))
        assert out.theta_source == ("1", "mu1", "mu2")
        assert out.name == fam.name + ":coercivity"

    def test_identity_inner_product_is_noop(self):
        fam = random_family(2, 30, delta=0.3, seed=1)
        out = coercivity_transform(fam, np.eye(30))
        rng = np.random.default_rng(0)
        for _ in range(5):
            mu = rng.uniform(0, 0.3, 1)
            assert_allclose(solve_at_sample(out, mu, 30).values,
                            np.linalg.eigvalsh(fam.assemble_dense(mu)),
                            atol=1e-12)

    def test_scaled_identity_scales_quotients(self):
        fam = random_family(2, 20, delta=0.3, seed=2)
        out = coercivity_transform(fam, 4.0 * np.eye(20))
        mu = [0.2]
        assert_allclose(solve_at_sample(out, mu, 20).values,
                        np.linalg.eigvalsh(fam.assemble_dense(mu)) / 4.0,
                        atol=1e-12)

    def test_matches_generalized_eig_oracle(self):
        fam = random_family(3, 60, delta=0.3, seed=3)
        X = make_spd(60, 4)
        out = coercivity_transform(fam, X)
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu = rng.uniform(0, 0.3, 2)
            ours = solve_at_sample(out, mu, 1).values[0]
            oracle = scipy.linalg.eigh(fam.assemble_dense(mu), X,
                                       eigvals_only=True)[0]
            assert abs(ours - oracle) <= 1e-9 * (1 + abs(oracle))

    def test_pencil_solve_matches_dense_eigh(self):
        # n = 100 is above the dense fallback, so ARPACK solves the pencil
        # (A(mu), X); gamma_n * ||M|| bounds the roundoff, with M the
        # standard form L^{-1} A(mu) L^{-T} of the pencil
        fam = block_grid_family(nx=10, ny=10, blocks=(2, 1))
        n = fam.n
        X = make_spd(n, 3)
        out = coercivity_transform(fam, X)
        L = np.linalg.cholesky(X)
        for mu in ([0.15, 0.4], [0.5, 0.1]):
            A = fam.assemble_dense(mu)
            B = scipy.linalg.solve_triangular(L, A, lower=True)
            M = scipy.linalg.solve_triangular(L, B.T, lower=True).T
            allowance = n * 2.0 ** -53 * np.linalg.norm(0.5 * (M + M.T), 2)
            pairs = solve_at_sample(out, mu, 2)
            w = scipy.linalg.eigh(A, X, eigvals_only=True)
            assert np.all(np.abs(pairs.values - w[:2]) <= allowance)
            assert np.all(pairs.residuals <= allowance)
            V = pairs.vectors
            assert_allclose(V.T @ X @ V, np.eye(2), atol=1e-12)


class TestSingularValueExpansion:
    def test_identity_single_term(self):
        fam = singular_value_expansion([np.eye(4)], ["1"], [(0.0, 1.0)],
                                       np.eye(4))
        assert fam.q == 1
        assert_allclose(fam.terms[0].dense(), np.eye(4), atol=1e-14)
        assert fam.theta_source == ("(1)*(1)",)

    def test_term_count(self):
        rng = np.random.default_rng(9)
        terms = [rng.standard_normal((6, 6)) for _ in range(2)]
        fam = singular_value_expansion(terms, ["1", "mu1"], [(0.0, 1.0)],
                                       np.eye(6))
        assert fam.q == 3  # (1,1), (1,2) symmetrized pair, (2,2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_svd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        terms = [rng.standard_normal((n, n)) for _ in range(2)]
        X = make_spd(n, seed + 50)
        fam = singular_value_expansion(terms, ["1", "mu1"], [(0.0, 1.0)], X)
        L = np.linalg.cholesky(X)
        for mu in rng.uniform(0, 1, 20):
            w = np.linalg.eigvalsh(fam.assemble_dense([mu]))[0]
            A_mu = terms[0] + mu * terms[1]
            M = np.linalg.solve(L, np.linalg.solve(L, A_mu.T).T)
            sigma = np.linalg.svd(M, compute_uv=False)[-1]
            assert abs(np.sqrt(max(w, 0.0)) - sigma) <= 1e-8


class TestManifest:
    def write_circle_manifest(self, tmp_path, theta=("cos(mu1)", "sin(mu1)"),
                              break_dim=False):
        fam = unit_circle_family()
        a1 = fam.terms[0].dense()
        a2 = fam.terms[1].dense()
        write_mtx(tmp_path / "a1.mtx", a1)
        if break_dim:
            write_mtx(tmp_path / "a2.mtx", np.eye(3))
        else:
            write_mtx(tmp_path / "a2.mtx", a2)
        manifest = {"Q": 2, "P": 1, "domain": [[0.0, np.pi]],
                    "theta": list(theta), "terms": ["a1.mtx", "a2.mtx"],
                    "pipeline": "eig"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_loads_unit_circle(self, tmp_path):
        path = self.write_circle_manifest(tmp_path)
        fam, meta = load_family(path)
        ref = unit_circle_family()
        assert meta["pipeline"] == "eig"
        for q in range(2):
            assert_allclose(fam.terms[q].dense(), ref.terms[q].dense(),
                            atol=0)
        rng = np.random.default_rng(0)
        for mu in rng.uniform(0, np.pi, 10):
            assert_allclose(fam.theta_at([mu]), ref.theta_at([mu]), atol=0)

    def test_dimension_mismatch_names_file(self, tmp_path):
        path = self.write_circle_manifest(tmp_path, break_dim=True)
        with pytest.raises(ManifestError) as err:
            load_family(path)
        assert err.value.field == "terms"
        assert "a2.mtx" in str(err.value)

    def test_theta_parse_error_offset(self, tmp_path):
        path = self.write_circle_manifest(tmp_path,
                                          theta=("co(mu1)", "sin(mu1)"))
        with pytest.raises(ManifestError) as err:
            load_family(path)
        assert err.value.field == "theta"
        assert "offset 0" in str(err.value)

    @pytest.mark.parametrize("override, field", [
        ({"Q": True, "P": True}, "Q"),
        ({"domain": [[False, True]]}, "domain"),
        ({"domain": [[0.0, float("inf")]]}, "domain"),
        ({"domain": [[float("nan"), 1.0]]}, "domain"),
        ({"domain": [[0, 10 ** 400]]}, "domain"),
    ], ids=["Q-and-P", "domain", "domain-infinite", "domain-nan",
            "domain-huge-int"])
    def test_boolean_where_number_expected(self, tmp_path, override, field):
        path = self.write_circle_manifest(tmp_path)
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, **override}))
        with pytest.raises(ManifestError) as err:
            load_family(path)
        assert err.value.field == field

    def test_missing_field(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"Q": 2}))
        with pytest.raises(ManifestError) as err:
            load_family(path)
        assert err.value.field == "P"

    def test_non_hermitian_term_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        write_mtx(tmp_path / "g.mtx", rng.standard_normal((4, 4)),
                  symmetry="general")
        manifest = {"Q": 1, "P": 1, "domain": [[0.0, 1.0]],
                    "theta": ["1"], "terms": ["g.mtx"]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError) as err:
            load_family(path)
        assert err.value.field == "terms"

    def test_singular_pipeline_allows_general_terms(self, tmp_path):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((5, 5))
        write_mtx(tmp_path / "b.mtx", B, symmetry="general")
        write_mtx(tmp_path / "x.mtx", make_spd(5, 11))
        manifest = {"Q": 1, "P": 1, "domain": [[0.5, 2.0]],
                    "theta": ["mu1"], "terms": ["b.mtx"],
                    "inner_product": "x.mtx", "pipeline": "singular"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        fam, meta = load_family(path)
        assert meta["pipeline"] == "singular"
        assert fam.q == 1
        X = make_spd(5, 11)
        L = np.linalg.cholesky(X)
        mu = 1.3
        w = np.linalg.eigvalsh(fam.assemble_dense([mu]))[0]
        M = np.linalg.solve(L, np.linalg.solve(L, (mu * B).T).T)
        sigma = np.linalg.svd(M, compute_uv=False)[-1]
        assert abs(np.sqrt(max(w, 0)) - sigma) <= 1e-9

    def test_singular_pipeline_defaults_to_identity_inner_product(
            self, tmp_path):
        rng = np.random.default_rng(5)
        write_mtx(tmp_path / "b.mtx", rng.standard_normal((5, 5)),
                  symmetry="general")
        write_mtx(tmp_path / "x.mtx", scipy.sparse.eye(5))
        manifest = {"Q": 1, "P": 1, "domain": [[0.5, 2.0]],
                    "theta": ["mu1"], "terms": ["b.mtx"],
                    "pipeline": "singular"}
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(manifest))
        explicit = tmp_path / "explicit.json"
        explicit.write_text(json.dumps({**manifest, "inner_product": "x.mtx"}))
        (fam, _), (ref, _) = load_family(plain), load_family(explicit)
        assert fam.theta_source == ref.theta_source == ("(mu1)*(mu1)",)
        assert fam.inner_product is ref.inner_product is None
        for a, b in zip(fam.terms, ref.terms):
            assert a.dense().tobytes() == b.dense().tobytes()

    def test_non_square_inner_product_named_as_such(self, tmp_path):
        write_mtx(tmp_path / "a.mtx", make_spd(4, 2))
        write_mtx(tmp_path / "x.mtx", np.ones((4, 3)), symmetry="general")
        manifest = {"Q": 1, "P": 1, "domain": [[0.5, 2.0]],
                    "theta": ["mu1"], "terms": ["a.mtx"],
                    "inner_product": "x.mtx", "pipeline": "coercivity"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError) as err:
            load_family(path)
        assert err.value.field == "inner_product"
        assert str(err.value).endswith("x.mtx is not square")

    def test_eig_pipeline_rejects_inner_product(self, tmp_path):
        path = self.write_circle_manifest(tmp_path)
        write_mtx(tmp_path / "x.mtx", make_spd(2, 3))
        manifest = json.loads(path.read_text())
        manifest["inner_product"] = "x.mtx"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="eig pipeline") as err:
            load_family(path)
        assert err.value.field == "inner_product"

    @pytest.mark.parametrize("pipeline", ["coercivity", "singular"])
    @pytest.mark.parametrize("off", [0.0, 3.0])
    def test_inner_product_must_be_symmetric(self, tmp_path, pipeline, off):
        X = make_spd(2, 3)
        X[0, 1] += off
        write_mtx(tmp_path / "x.mtx", X, symmetry="general")
        path = self.write_circle_manifest(tmp_path)
        manifest = json.loads(path.read_text())
        manifest.update(inner_product="x.mtx", pipeline=pipeline)
        path.write_text(json.dumps(manifest))
        if not off:
            assert load_family(path)[1]["pipeline"] == pipeline
            return
        with pytest.raises(ManifestError, match="x.mtx is not Hermitian") \
                as err:
            load_family(path)
        assert err.value.field == "inner_product"

    def test_coercivity_pipeline_requires_inner_product(self, tmp_path):
        fam = unit_circle_family()
        write_mtx(tmp_path / "a1.mtx", fam.terms[0].dense())
        write_mtx(tmp_path / "a2.mtx", fam.terms[1].dense())
        manifest = {"Q": 2, "P": 1, "domain": [[0.0, 3.14]],
                    "theta": ["cos(mu1)", "sin(mu1)"],
                    "terms": ["a1.mtx", "a2.mtx"], "pipeline": "coercivity"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError) as err:
            load_family(path)
        assert err.value.field == "inner_product"

    @pytest.mark.parametrize("pipeline", ["coercivity", "singular"])
    def test_inner_product_must_be_positive_definite(self, tmp_path,
                                                     pipeline):
        path = write_problem_files("one-param", str(tmp_path), spec={"N": 8},
                                   pipeline=pipeline)
        write_mtx(tmp_path / "inner_product.mtx",
                  np.diag([-1.0] + [1.0] * 7))
        with pytest.raises(ManifestError, match="inner_product.mtx is not "
                           "positive definite") as err:
            load_family(path)
        assert err.value.field == "inner_product"

    def test_theta_domain_error_caught_by_probe(self, tmp_path):
        fam = unit_circle_family()
        write_mtx(tmp_path / "a1.mtx", fam.terms[0].dense())
        write_mtx(tmp_path / "a2.mtx", fam.terms[1].dense())
        manifest = {"Q": 2, "P": 1, "domain": [[-1.0, 1.0]],
                    "theta": ["sqrt(mu1)", "1"],
                    "terms": ["a1.mtx", "a2.mtx"]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError) as err:
            load_family(path)
        assert err.value.field == "theta"
