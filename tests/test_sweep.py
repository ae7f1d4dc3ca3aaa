"""The batched training-set sweep against the per-point loop it replaced.

``_reference_bounds`` is the per-point body of ``subspace_lower_bound`` and
of the greedy sweep as they were before the sweep was batched: one Ritz
eigensolve, the cross matrix from ``einsum``, ``beta_gap`` per active sample
and ``tighten_and_resolve`` per Ritz dimension r, which re-solves the
active system where the batched code takes eta by weak duality from the LP
multipliers.  The batched code sums in another order, so it is compared
within tolerances fixed beforehand:

* ``lam_lb``, ``lam_sub`` and ``eta``: 1e-10 * max(1, |value|);
* ``rho**2``: 16 * dim * u * ||A(mu)||**2 with u = 2**-53 and ||A(mu)||
  bounded by sum_q |theta_q| * max(|lo_q|, |hi_q|) from the box.  rho**2 is
  a difference of O(||A||**2) terms, so near sample points no relative
  bound on rho can hold;
* ``lam_slb``: |delta rho| + 1e-10 * max(1, |value|);
* ``chosen_r``: may differ only where the two candidates tie within the
  ``lam_slb`` tolerance.
"""

import math
import types

import numpy as np
import pytest

from eigenbounds import (AffineFamily, LPBatch, LPProblem, SubspacePool,
                         beta_gap, f_bound, lower_bound,
                         lp_minimize,
                         one_parameter_analytic_family, random_family,
                         random_training_set, ritz_upper_bound,
                         subspace_greedy, subspace_lower_bound, sweep_bounds,
                         tighten_and_resolve)
from eigenbounds import subspace

U = 2.0 ** -53
REL = 1e-10


def _rho_reference(P_block, values):
    B = P_block - np.diag(values ** 2)
    rho2 = float(np.linalg.eigvalsh(0.5 * (B + B.conj().T)).max())
    assert rho2 >= subspace.RHO_SQ_FLOOR
    return math.sqrt(max(rho2, 0.0))


def _stacked(sols, n_rows):
    """The one-row LP batches ``sols`` as one batch over ``n_rows`` sample
    rows; a batch over fewer sample rows has its box rows moved up."""
    active = [np.where(s.active >= s.n_rows, s.active + n_rows - s.n_rows,
                       s.active) for s in sols]
    return LPBatch(active=np.concatenate(active), n_rows=n_rows, **{
        f: np.concatenate([getattr(s, f) for s in sols])
        for f in ("y", "value", "theta_mat", "psi", "z", "row_pivots",
                  "row_degenerate")})


def _reference_bounds(pool, mu, sol, r_max):
    """Per-point bounds from a known LP solution, as the old loop did them.

    Returns the best bound, the candidates for r = 0..r_hi, and the
    chosen r with its rho and eta, the r = 1 residual and the smallest
    Ritz value.
    """
    th = pool.family.theta_at(mu)
    H = np.tensordot(th, pool.reduced, axes=1)
    vals, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    S = np.einsum("q,p,qpij->ij", th, th, pool.cross, optimize=True)
    r_hi = int(min(r_max, pool.dim, pool.family.n // 2))
    W1 = vecs[:, :1]
    (lam_lb,), (active,) = sol.value, sol.active
    out = {"lam_lb": lam_lb, "lam_sub": float(vals[0]),
           "residual": _rho_reference(W1.conj().T @ S @ W1, vals[:1]),
           "r": 0, "rho": None, "eta": None,
           "cands": [lam_lb]}
    best_val = lam_lb
    if r_hi >= 1:
        W_hi = vecs[:, :r_hi]
        P_full = W_hi.conj().T @ S @ W_hi
        for r in range(1, r_hi + 1):
            W = vecs[:, :r]
            rho = _rho_reference(P_full[:r, :r], vals[:r])
            betas = {i: beta_gap(pool, i, W)
                     for i in active[active < sol.n_rows]}
            tight = tighten_and_resolve(sol, betas, th)
            cand = f_bound(vals[0], tight.eta, rho)
            out["cands"].append(cand)
            if cand > best_val:
                best_val = cand
                out.update(r=r, rho=rho, eta=tight.eta)
    out["lam_slb"] = float(best_val)
    return out


def _tol(value):
    return REL * max(1.0, abs(value))


def _check_row(new, k, ref, rho2_tol):
    """Compare row k of a sweep_bounds result with one reference row."""
    assert abs(new["lam_lb"][k] - ref["lam_lb"]) <= _tol(ref["lam_lb"])
    assert abs(new["lam_sub"][k] - ref["lam_sub"]) <= _tol(ref["lam_sub"])
    assert abs(new["residual"][k] ** 2 - ref["residual"] ** 2) <= rho2_tol
    r = int(new["chosen_r"][k])
    if r == ref["r"]:
        if r:
            assert abs(new["rho"][k] ** 2 - ref["rho"] ** 2) <= rho2_tol
            assert abs(new["eta"][k] - ref["eta"]) <= _tol(ref["eta"])
            d_rho = abs(new["rho"][k] - ref["rho"])
        else:
            d_rho = 0.0
    else:
        # a tie: the reference's candidate at the new r is as good
        d_rho = math.sqrt(rho2_tol)
        gap = abs(ref["cands"][r] - ref["lam_slb"])
        assert gap <= d_rho + _tol(ref["lam_slb"])
    assert abs(new["lam_slb"][k] - ref["lam_slb"]) <= d_rho + _tol(ref["lam_slb"])


def _rho2_tol(pool, th):
    norm_a = float(np.sum(np.abs(th) * np.maximum(np.abs(pool.box.lower),
                                                  np.abs(pool.box.upper))))
    return 16 * pool.dim * U * norm_a ** 2


def _complex_family():
    rng = np.random.default_rng(31)
    n = 40
    terms = []
    for _ in range(2):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        terms.append(0.5 * (g + g.conj().T))
    return AffineFamily(terms=tuple(terms),
                        theta=lambda mu: np.array([1.0, mu[0]]),
                        domain=((0.0, 0.5),))


def _cluster_family(seed=48, n=40):
    """Two nearly equal smallest eigenvalues, so Ritz dimension 2 can win."""
    rng = np.random.default_rng(seed)
    base = np.concatenate([[0.0, 0.02],
                           1.0 + np.sort(rng.uniform(0.0, 3.0, n - 2))])
    qmat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    terms = [qmat @ np.diag(base) @ qmat.T]
    for _ in range(2):
        g = rng.standard_normal((n, n))
        terms.append(0.1 * (g + g.T) / np.sqrt(n))
    return AffineFamily(terms=tuple(terms),
                        theta=lambda mu: np.concatenate([[1.0], mu]),
                        domain=((0.0, 1.0), (0.0, 1.0)))


FAMILIES = {
    "cluster": _cluster_family,
    "random-q3": lambda: random_family(3, 40, delta=0.3, seed=40),
    "random-q4": lambda: random_family(4, 60, delta=0.2, seed=41),
    "one-param": lambda: one_parameter_analytic_family(n=40, seed=42),
    "complex": _complex_family,
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def problem(request):
    fam = FAMILIES[request.param]()
    train = random_training_set(fam.domain, 16, seed=43)
    return fam, train.points


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("r_choice", ["zero", "one", "Q"])
@pytest.mark.parametrize("warm,subset", [(False, False), (True, False),
                                         (True, True)])
def test_batched_sweep_matches_per_point_loop(problem, ell, r_choice, warm,
                                              subset):
    """With ``warm`` a row whose LP minimizer satisfies the new constraint
    keeps its solution without an LP call; with ``subset`` the sweep gets
    only the rows whose warm start missed: rows of a batch must not
    couple, and bounds kept from a smaller pool stay below the upper bound
    of the grown one."""
    fam, pts = problem
    r_max = {"zero": 0, "one": 1, "Q": fam.q}[r_choice]
    m = len(pts)
    theta = fam.theta_table(pts)
    pool = SubspacePool(fam, ell=ell)
    sols = [None] * m
    lam_slb = np.full(m, -math.inf)
    for it, s in enumerate([0, 7, 11, 3, 14]):
        pool.add_sample(pts[s])
        lam_new, th_new = pool.rhs[-1], pool.rows[-1]
        cache_ok = np.array([warm and it > 0 and
                             float(th_new @ sols[i].y[0]) >= lam_new - 1e-8
                             for i in range(m)])
        idx = np.flatnonzero(~cache_ok) if subset else np.arange(m)
        for i in np.flatnonzero(~cache_ok):
            _, sols[i] = lower_bound(pool, pts[i])
        new = sweep_bounds(pool, theta[idx],
                           _stacked([sols[i] for i in idx], pool.j),
                           r_max=r_max)
        for k, i in enumerate(idx):
            ref = _reference_bounds(pool, pts[i], sols[i], r_max)
            _check_row(new, k, ref, _rho2_tol(pool, theta[i]))
            lam_slb[i] = new["lam_slb"][k]
        for i in range(m):
            sub = ritz_upper_bound(pool, pts[i]).values[0]
            assert lam_slb[i] <= sub + _tol(sub)


def test_all_box_vertex_gives_the_lp_value():
    fam = FAMILIES["random-q3"]()
    pool = SubspacePool(fam)
    for mu in ([0.05, 0.2], [0.25, 0.1], [0.15, 0.28]):
        pool.add_sample(mu)
    pts = np.array([[0.1, 0.1], [0.2, 0.25]])
    theta = fam.theta_table(pts)
    sols = []
    for mu in pts:
        _, sol = lower_bound(pool, mu)
        assert np.any(sol.active < sol.n_rows)
        sols.append(sol)
    # the LP over the box alone: its active set holds no sample row
    box_only = lp_minimize(LPProblem(c=theta[0], lower=pool.box.lower,
                                     upper=pool.box.upper,
                                     rows=np.zeros((0, fam.q)),
                                     rhs=np.zeros(0)))
    assert np.all(box_only.active >= box_only.n_rows)
    sols[0] = box_only
    new = sweep_bounds(pool, theta, _stacked(sols, pool.j), r_max=fam.q)
    for k, (mu, sol) in enumerate(zip(pts, sols)):
        ref = _reference_bounds(pool, mu, sol, fam.q)
        _check_row(new, k, ref, _rho2_tol(pool, theta[k]))
    # no sample row to shift: eta is the LP value, so r = 0 wins
    assert new["chosen_r"][0] == 0
    assert new["lam_slb"][0] == box_only.value[0]


def _ill_conditioned_vertex():
    """Samples 1e-13 apart give two nearly parallel sample rows.  Their
    intersection, the tangent point of the sampled eigenvalue curve, is an
    optimal vertex for a parameter between them, with cond >= 1e12 (a
    restart from that active set keeps it; a cold solve steps around it
    within its tolerance).  Returns the family, box, pool, objective, LP
    data without the right-hand side, the restart's active set and the
    solution there."""
    fam = random_family(2, 40, delta=0.3, seed=40)
    pool = SubspacePool(fam)
    box = pool.box
    gap = 1e-13
    for mu in ([0.0], [0.1], [0.1 + gap], [0.3]):
        pool.add_sample(mu)
    c = fam.theta_at(np.array([0.1 + gap / 2]))
    lp = dict(c=c, lower=box.lower, upper=box.upper, rows=pool.rows)
    pair = types.SimpleNamespace(active=np.array([[1, 2]]), n_rows=pool.j)
    sol = lp_minimize(LPProblem(rhs=pool.rhs, **lp), start=pair)
    return fam, box, pool, c, lp, pair, sol


def test_ill_conditioned_vertex_y_on_its_active_rows():
    *_, sol = _ill_conditioned_vertex()
    (theta,), (y,), (psi,) = sol.theta_mat, sol.y, sol.psi
    assert np.linalg.cond(theta) >= 1e12
    scale = np.abs(theta) @ np.abs(y) + np.abs(psi)
    assert np.all(np.abs(theta @ y - psi) <= 4 * U * scale)


def test_ill_conditioned_vertex_eta_below_bumped_lp(monkeypatch):
    """At the vertex of :func:`_ill_conditioned_vertex`, every swept eta is
    at most the minimum of the LP with every sample row bumped by beta_r,
    as weak duality promises for any nonnegative multipliers."""
    fam, box, pool, c, lp, pair, sol = _ill_conditioned_vertex()
    assert np.array_equal(sol.active, pair.active)
    assert np.linalg.cond(sol.theta_mat[0]) >= 1e12
    assert tighten_and_resolve(sol, {1: 1.0, 2: 1.0},
                               c).fallback == "ill_conditioned"

    swept = []

    def spy(lam_v1, eta, rho):
        swept.append(np.array(eta))
        return f_bound(lam_v1, eta, rho)

    monkeypatch.setattr(subspace, "f_bound", spy)
    sweep_bounds(pool, c[None], sol, r_max=fam.q)
    (eta,) = swept[0]
    assert eta.size == 2
    vals, vecs = np.linalg.eigh(np.tensordot(c, pool.reduced, axes=1))
    for r, eta_r in enumerate(eta, start=1):
        beta = np.array([beta_gap(pool, i, vecs[:, :r])
                         for i in range(pool.j)])
        cold = lp_minimize(LPProblem(rhs=pool.rhs + beta, **lp))
        best = float(c @ cold.y[0])
        assert eta_r <= best + 16 * U * max(1.0, abs(best))
        # and it beats the LP value the old fallback would have kept
        assert eta_r > sol.value[0]


def test_chunked_sweep_matches_one_chunk(monkeypatch):
    fam = FAMILIES["random-q4"]()
    pts = random_training_set(fam.domain, 9, seed=44).points
    theta = fam.theta_table(pts)
    pool = SubspacePool(fam, ell=2)
    for mu in pts[[0, 4, 8]]:
        pool.add_sample(mu)
    sols = _stacked([lower_bound(pool, mu)[1] for mu in pts], pool.j)
    whole = sweep_bounds(pool, theta, sols)
    monkeypatch.setattr(subspace, "SWEEP_CHUNK_BYTES", 1)
    chunked = sweep_bounds(pool, theta, sols)
    for k in range(len(pts)):
        ref = {"lam_lb": whole["lam_lb"][k], "lam_sub": whole["lam_sub"][k],
               "residual": whole["residual"][k], "r": int(whole["chosen_r"][k]),
               "rho": whole["rho"][k], "eta": whole["eta"][k],
               "lam_slb": whole["lam_slb"][k], "cands": None}
        if chunked["chosen_r"][k] == ref["r"]:
            _check_row(chunked, k, ref, _rho2_tol(pool, theta[k]))
        else:
            assert abs(chunked["lam_slb"][k] - whole["lam_slb"][k]) <= 1e-7


def test_one_row_call_matches_batched_row():
    fam = FAMILIES["random-q3"]()
    pts = random_training_set(fam.domain, 6, seed=45).points
    pool = SubspacePool(fam)
    for mu in pts[[0, 3]]:
        pool.add_sample(mu)
    batch = sweep_bounds(pool, fam.theta_table(pts), _stacked(
        [lower_bound(pool, mu)[1] for mu in pts], pool.j))
    for k, mu in enumerate(pts):
        slb, data, sol = subspace_lower_bound(pool, mu)
        assert abs(slb - batch["lam_slb"][k]) <= 1e-9
        assert data.r == batch["chosen_r"][k]
        assert sol.value[0] == batch["lam_lb"][k]
        rd = ritz_upper_bound(pool, mu, r=max(data.r, 1))
        assert abs(rd.values[0] - batch["lam_sub"][k]) <= _tol(rd.values[0])


def test_subspace_run_fills_lp_seconds():
    fam = random_family(3, 60, delta=0.3, seed=46)
    train = random_training_set(fam.domain, 30, seed=47)
    res = subspace_greedy(fam, train, eps=1e-8, j_max=6)
    last = res.records[-1]
    assert last.lp_count > 0
    assert last.lp_seconds > 0.0
    assert last.reduced_seconds > 0.0
    for rec in res.records:
        parts = rec.eig_seconds + rec.lp_seconds + rec.reduced_seconds
        assert parts <= rec.wall_seconds
