"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import functools
import math
import time

import numpy as np
import pytest

from eigenbounds import (beta_gap, f_bound,
                         joint_rayleigh, lower_bound,
                         one_parameter_analytic_family, random_family,
                         random_training_set, ritz_upper_bound,
                         scm_greedy, singular_value_expansion,
                         subspace_greedy, subspace_lower_bound,
                         unit_circle_family, upper_bound,
                         worst_case_family)
from eigenbounds.cli import main as cli_main
from eigenbounds.driver import RunConfig, run_pipeline
from helpers import build_pool, build_state, make_smooth_family


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL "
                      f"[{time.perf_counter() - t0:.1f}s]")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS "
                  f"[{time.perf_counter() - t0:.1f}s] {detail}")
        return wrapper
    return deco


def dense_oracle(family, points, chunk=50):
    out = np.empty(len(points))
    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        mats = np.stack([family.assemble_dense(mu) for mu in block])
        out[start:start + chunk] = np.linalg.eigvalsh(mats)[:, 0]
    return out


# --- criteria 2 and 3 share ten greedy runs -------------------------------

CASCADE_CASES = [(2, 50), (3, 50), (4, 50), (2, 200), (3, 200), (4, 200),
                 (2, 400), (3, 400), (4, 400), (4, 200)]


@pytest.fixture(scope="module")
def cascade_runs():
    t0 = time.perf_counter()
    runs = []
    for seed, (q, n) in enumerate(CASCADE_CASES):
        fam = random_family(q, n, delta=0.2, seed=seed)
        train = random_training_set(fam.domain, 200, seed=100 + seed)
        res = subspace_greedy(fam, train, eps=1e-14, j_max=10)
        oracle = dense_oracle(fam, train.points)
        runs.append((fam, res, oracle))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_scale_runs(tmp_path_factory):
    """Criterion 9/10 pipelines through the driver, with oracle columns."""
    base = tmp_path_factory.mktemp("desk")
    fam = random_family(4, 300, delta=0.2, seed=0)
    sub_dir = str(base / "subspace")
    sub_cfg = RunConfig(pipeline="subspace", eps=1e-4, j_max=200, n_train=500,
                        train_seed=1, oracle=True)
    sub_summary = run_pipeline(sub_cfg, fam, sub_dir)
    j_term = sub_summary["termination"]["iterations"]
    scm_dir = str(base / "scm")
    scm_cfg = RunConfig(pipeline="scm", eps=1e-4, j_max=j_term, n_train=500,
                        train_seed=1, oracle=True)
    scm_summary = run_pipeline(scm_cfg, fam, scm_dir)
    return {"sub_dir": sub_dir, "scm_dir": scm_dir,
            "sub_summary": sub_summary, "scm_summary": scm_summary}


@criterion(1, "rotation-family lower-bound exactness")
def test_criterion_01_example_exactness():
    t0 = time.perf_counter()
    fam = unit_circle_family()
    state = build_state(fam, [[0.0], [np.pi / 2], [np.pi]])

    def lam_lb(mu):
        return lower_bound(state, [mu])[0]

    worst = 0.0
    for mu in np.linspace(np.pi / 4, np.pi / 2, 101):
        worst = max(worst, abs(lam_lb(mu) - (-np.cos(mu) - np.sin(mu))))
    for mu in np.linspace(np.pi / 2, 3 * np.pi / 4, 101):
        worst = max(worst, abs(lam_lb(mu) - (np.cos(mu) - np.sin(mu))))
    assert worst <= 1e-12

    h = 1e-7
    mid = lam_lb(np.pi / 2)
    left = (mid - lam_lb(np.pi / 2 - h)) / h
    right = (lam_lb(np.pi / 2 + h) - mid) / h
    assert abs(left - 1.0) <= 1e-6
    assert abs(right + 1.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return f"max formula deviation {worst:.2e}, slopes {left:+.6f}/{right:+.6f}"


@criterion(2, "cascade ordering on ten random families")
def test_criterion_02_cascade(cascade_runs):
    runs, build_seconds = cascade_runs
    t0 = time.perf_counter()
    worst = 0.0
    for fam, res, oracle in runs:
        tabs = res.tables
        slack = 1e-8 * (1.0 + np.abs(oracle))
        assert np.all(tabs["lam_lb"] <= tabs["lam_slb"] + slack)
        assert np.all(tabs["lam_slb"] <= oracle + slack)
        assert np.all(oracle <= tabs["lam_sub"] + slack)
        assert np.all(tabs["lam_sub"] <= tabs["lam_ub"] + slack)
        worst = max(worst,
                    np.max((tabs["lam_slb"] - oracle) / (1 + np.abs(oracle))),
                    np.max((oracle - tabs["lam_sub"]) / (1 + np.abs(oracle))))
    elapsed = build_seconds + (time.perf_counter() - t0)
    assert elapsed < 120.0
    return (f"10 families x 200 points in {elapsed:.0f}s, worst certified "
            f"violation {worst:.2e}")


@criterion(3, "interpolation of all four bounds at greedy samples")
def test_criterion_03_interpolation(cascade_runs):
    worst = 0.0
    for fam, res, _ in cascade_runs[0]:
        pool = res.model
        for i, mu in enumerate(pool.samples):
            lam = float(np.linalg.eigvalsh(fam.assemble_dense(mu))[0])
            lb = lower_bound(pool, mu)[0]
            slb = subspace_lower_bound(pool, mu)[0]
            sub = float(ritz_upper_bound(pool, mu, r=1).values[0])
            ub = upper_bound(pool, mu)
            for val in (lb, slb, sub, ub):
                worst = max(worst, abs(val - lam))
                assert abs(val - lam) <= 1e-6
    return f"worst sample deviation {worst:.2e}"


@criterion(4, "Hermite gradient interpolation windows")
def test_criterion_04_gradients():
    fam, theta_grad = make_smooth_family(seed=8)
    samples = [[-0.5, -0.4], [0.0, 0.3], [0.45, -0.2], [-0.2, 0.5],
               [0.3, 0.1]]
    for mu in samples:  # verified simple smallest eigenvalue
        w = np.linalg.eigvalsh(fam.assemble_dense(mu))
        assert w[1] - w[0] > 1e-3
    pool = build_pool(fam, samples)
    state = build_state(fam, samples)

    def fd_grad(fn, mu, h):
        out = np.empty(2)
        for p in range(2):
            e = np.zeros(2)
            e[p] = h
            out[p] = (fn(mu + e) - fn(mu - e)) / (2 * h)
        return out

    bound_fns = {
        "ub": lambda mu: upper_bound(state, mu),
        "sub": lambda mu: float(ritz_upper_bound(pool, mu, r=1).values[0]),
        "slb": lambda mu: subspace_lower_bound(pool, mu, r_max=1)[0],
    }
    ratios = {}
    for name, fn in bound_fns.items():
        for i, mu in enumerate(pool.samples):
            mu = np.asarray(mu)
            v = pool.basis @ pool.coeffs[i][:, 0]
            analytic = theta_grad(mu) @ joint_rayleigh(fam, v)
            e3 = np.linalg.norm(fd_grad(fn, mu, 1e-3) - analytic)
            e4 = np.linalg.norm(fd_grad(fn, mu, 1e-4) - analytic)
            ratio = e3 / max(e4, 1e-300)
            ratios.setdefault(name, []).append(ratio)
            assert 50.0 <= ratio <= 200.0
    spans = {k: (min(v), max(v)) for k, v in ratios.items()}
    return "h-ratio spans " + ", ".join(
        f"{k}: [{lo:.0f}, {hi:.0f}]" for k, (lo, hi) in spans.items())


@criterion(5, "worst-case family attains the lower bound")
def test_criterion_05_worst_case_family():
    worst = 0.0
    for seed in range(5):
        fam = random_family(2, 20, delta=0.4, seed=seed)
        train = random_training_set(fam.domain, 40, seed=50 + seed)
        res = scm_greedy(fam, train, eps=1e-14, j_max=3)
        state = res.model
        rng = np.random.default_rng(seed)
        mu_t = rng.uniform(0.0, 0.4, size=1)
        val, sol = lower_bound(state, mu_t)
        bar = worst_case_family(state, sol.y)
        err_t = abs(np.linalg.eigvalsh(bar.assemble_dense(mu_t))[0] - val)
        assert err_t <= 1e-8
        worst = max(worst, err_t)
        for i, mu_i in enumerate(state.samples):
            err_i = abs(np.linalg.eigvalsh(bar.assemble_dense(mu_i))[0]
                        - state.values[i])
            assert err_i <= 1e-8
            worst = max(worst, err_i)
    return f"5 instances, worst equality violation {worst:.2e}"


@criterion(6, "residual bound function monotone and continuous")
def test_criterion_06_f_property():
    rng = np.random.default_rng(6)
    n = 100_000
    lam = rng.standard_normal(n) * 10
    rho = np.abs(rng.standard_normal(n)) * 3
    rho[:2000] = 0.0
    eta1 = rng.standard_normal(n) * 10
    eta2 = eta1 + np.abs(rng.standard_normal(n)) * 5
    mono_fail = int(np.sum(f_bound(lam, eta1, rho)
                           > f_bound(lam, eta2, rho) + 1e-14))
    eps = 1e-9
    jump = np.abs(f_bound(lam, lam - eps, rho) - f_bound(lam, lam + eps, rho))
    cont_fail = int(np.sum(jump > 1e-8))
    exact_jump = np.abs(f_bound(lam, lam - 1e-15, rho) - f_bound(lam, lam, rho))
    assert mono_fail == 0
    assert cont_fail == 0
    assert np.max(exact_jump) <= 1e-12
    return f"100000 triples, 0 monotonicity / 0 continuity failures"


@criterion(7, "certified eigenvalue shift at samples")
def test_criterion_07_beta_validity():
    worst = -np.inf
    for seed in range(20):
        ell = 1 if seed % 2 == 0 else 2
        fam = random_family(3, 30, delta=0.3, seed=seed)
        rng = np.random.default_rng(200 + seed)
        mu0 = rng.uniform(0.0, 0.3, size=2)
        pool = build_pool(fam, [mu0], ell=ell)
        lam0 = pool.sample_values[0][0]
        A0 = fam.assemble_dense(mu0)
        w = rng.standard_normal(pool.dim)
        w /= np.linalg.norm(w)
        beta = beta_gap(pool, 0, w.reshape(-1, 1))
        U = (pool.basis @ w).reshape(-1, 1)
        Uperp = np.linalg.svd(np.eye(30) - U @ U.T)[0][:, :29]
        oracle = np.linalg.eigvalsh(Uperp.T @ A0 @ Uperp)[0]
        margin = lam0 + beta - oracle
        worst = max(worst, margin)
        assert margin <= 1e-9
    return f"20 instances, worst margin {worst:+.2e}"


@criterion(8, "geometric convergence on the analytic one-parameter family")
def test_criterion_08_exponential_convergence():
    t0 = time.perf_counter()
    fam = one_parameter_analytic_family(n=40, gap=1.0, seed=0)
    grid = np.linspace(-1.0, 1.0, 150)
    oracle = dense_oracle(fam, grid.reshape(-1, 1))
    js = list(range(2, 15))
    errs_sub, errs_slb = [], []
    for J in js:
        nodes = np.cos((2 * np.arange(1, J + 1) - 1) / (2 * J) * np.pi)
        pool = build_pool(fam, [[mu] for mu in nodes])
        e_sub = e_slb = 0.0
        for k, mu in enumerate(grid):
            sub = float(ritz_upper_bound(pool, [mu], r=1).values[0])
            slb = subspace_lower_bound(pool, [mu], r_max=1)[0]
            e_sub = max(e_sub, sub - oracle[k])
            e_slb = max(e_slb, oracle[k] - slb)
        errs_sub.append(max(e_sub, 1e-16))
        errs_slb.append(max(e_slb, 1e-16))
    slope_sub = np.polyfit(js, np.log(errs_sub), 1)[0]
    slope_slb = np.polyfit(js, np.log(errs_slb), 1)[0]
    assert slope_sub <= math.log(0.7)
    assert slope_slb <= math.log(0.7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    return (f"log-error slopes {slope_sub:.2f} (upper) / {slope_slb:.2f} "
            f"(lower), threshold {math.log(0.7):.3f}")


@criterion(9, "desk-scale random family: subspace vs classical")
def test_criterion_09_desk_scale(desk_scale_runs):
    sub = desk_scale_runs["sub_summary"]
    scm = desk_scale_runs["scm_summary"]
    assert sub["termination"]["converged"]
    assert sub["termination"]["iterations"] <= 200
    factor = scm["final_max_ratio"] / sub["final_max_ratio"]
    assert factor >= 10.0
    total = sub["wall_seconds"] + scm["wall_seconds"]
    assert total < 300.0
    return (f"subspace met 1e-4 at J={sub['termination']['iterations']}, "
            f"classical ratio {scm['final_max_ratio']:.2e} "
            f"({factor:.0f}x larger), {total:.0f}s total")


@criterion(10, "residual heuristic becomes reliable and compare reports it")
def test_criterion_10_heuristic_star(desk_scale_runs, capsys):
    jstar = desk_scale_runs["sub_summary"]["heuristic_first_valid_iteration"]
    assert jstar is not None
    code = cli_main(["compare", desk_scale_runs["scm_dir"],
                     desk_scale_runs["sub_dir"]])
    out = capsys.readouterr().out
    assert code == 0
    assert f"from iteration {jstar} on" in out
    return f"heuristic uniformly below the oracle from J*={jstar}"


@criterion(11, "squared singular values through the expanded family")
def test_criterion_11_singular_pipeline():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = 40
        terms = [rng.standard_normal((n, n)) for _ in range(2)]
        g = rng.standard_normal((n, n))
        X = g @ g.T / n + np.eye(n)
        fam = singular_value_expansion(terms, ["1", "mu1"], [(0.0, 1.0)], X)
        L = np.linalg.cholesky(X)
        for mu in rng.uniform(0.0, 1.0, 20):
            lam = np.linalg.eigvalsh(fam.assemble_dense([mu]))[0]
            M = np.linalg.solve(L, np.linalg.solve(L, (terms[0]
                                                       + mu * terms[1]).T).T)
            sigma = np.linalg.svd(M, compute_uv=False)[-1]
            err = abs(math.sqrt(max(lam, 0.0)) - sigma)
            worst = max(worst, err)
            assert err <= 1e-8
    return f"10 instances x 20 parameters, worst deviation {worst:.2e}"


@criterion(12, "warm-start caching changes nothing")
def test_criterion_12_warm_start_equivalence():
    fam = random_family(3, 80, delta=0.25, seed=12)
    train = random_training_set(fam.domain, 60, seed=13)
    worst = 0.0
    res_on = scm_greedy(fam, train, eps=1e-6, j_max=12,
                        warm_start=True)
    res_off = scm_greedy(fam, train, eps=1e-6, j_max=12,
                         warm_start=False)
    assert res_on.records[-1].lp_count < res_off.records[-1].lp_count
    for key in ("lam_lb", "lam_ub"):
        diff = np.max(np.abs(res_on.tables[key] - res_off.tables[key]))
        worst = max(worst, diff)
        assert diff <= 1e-12
    sub_on = subspace_greedy(fam, train, eps=1e-6, j_max=12,
                             warm_start=True)
    sub_off = subspace_greedy(fam, train, eps=1e-6, j_max=12,
                              warm_start=False)
    for key in ("lam_lb", "lam_slb", "lam_sub", "lam_ub"):
        diff = np.max(np.abs(sub_on.tables[key] - sub_off.tables[key]))
        worst = max(worst, diff)
        assert diff <= 1e-12
    for a, b in zip(sub_on.records, sub_off.records):
        worst = max(worst, abs(a.max_ratio - b.max_ratio))
        assert abs(a.max_ratio - b.max_ratio) <= 1e-12
    return f"classical + subspace runs, worst bound difference {worst:.2e}"
