import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenbounds import (InfeasibleError, LPBatch, LPProblem, dual_bound,
                         lp_minimize, tighten_and_resolve)

SQ2 = math.sqrt(2.0)
U = 2.0 ** -53


def enumerate_vertices(problem):
    """Brute-force oracle: solve every Q-subset of constraints as equalities,
    keep the feasible ones, return the minimal objective value."""
    q = problem.q
    rows = [(problem.rows[i], problem.rhs[i]) for i in range(problem.n_rows)]
    for k in range(q):
        e = np.zeros(q)
        e[k] = 1.0
        rows.append((e, problem.lower[k]))
        rows.append((e, problem.upper[k]))
    best = None
    best_y = None
    for combo in itertools.combinations(range(len(rows)), q):
        A = np.vstack([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        y = np.linalg.solve(A, b)
        feasible = (np.all(y >= problem.lower - 1e-9)
                    and np.all(y <= problem.upper + 1e-9)
                    and (problem.n_rows == 0
                         or np.all(problem.rows @ y >= problem.rhs - 1e-9)))
        if feasible:
            val = float(problem.c @ y)
            if best is None or val < best:
                best, best_y = val, y
    return best, best_y


def sample_rows(sol):
    """The sample rows in the active set of a one-row batch."""
    (active,) = sol.active
    return active[active < sol.n_rows].tolist()


def gauss_solve(A, b):
    """Independent Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, p]] = A[[p, k]]
        b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            f = A[i, k] / A[k, k]
            A[i, k:] -= f * A[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - A[k, k + 1:] @ x[k + 1:]) / A[k, k]
    return x


class TestLpProblem:
    @pytest.mark.parametrize("bad", [
        {"rows": [[1.0], [2.0], [3.0], [4.0]], "rhs": [0.0, 0.0]},
        {"rows": [1.0, 2.0], "rhs": [0.0]},
        {"lower": [0.0, 0.0, 0.0], "upper": [1.0, 1.0, 1.0]},
        {"lower": [[0.0, 0.0]], "upper": [[1.0, 1.0]]},
    ])
    def test_misshaped_input_rejected(self, bad):
        data = {"c": [1.0, 1.0], "lower": [0.0, 0.0], "upper": [1.0, 1.0],
                "rows": [[1.0, 1.0]], "rhs": [0.5]}
        with pytest.raises(ValueError, match="must have shape"):
            LPProblem(**{**data, **bad})

    @pytest.mark.parametrize("rows", [[], np.zeros((0, 2))])
    def test_empty_rows_accepted(self, rows):
        p = LPProblem(c=[1.0, 1.0], lower=[0, 0], upper=[1, 1], rows=rows,
                      rhs=[])
        assert p.rows.shape == (0, 2)


class TestLpMinimize:
    def test_two_sample_vertex(self):
        # objective along the diagonal over the half-open box with three cuts
        p = LPProblem(c=[SQ2 / 2, SQ2 / 2], lower=[-1, -1], upper=[1, 1],
                      rows=[[1, 0], [0, 1], [-1, 0]], rhs=[-1, -1, -1])
        sol = lp_minimize(p)
        assert_allclose(sol.y[0], [-1.0, -1.0], atol=1e-12)
        assert_allclose(sol.value[0], -SQ2, atol=1e-12)
        assert sol.active.tolist() == [[0, 1]]    # sample rows 0 and 1
        assert sample_rows(sol)

    def test_box_only(self):
        p = LPProblem(c=[1.0, 0.0], lower=[0, 0], upper=[1, 1],
                      rows=np.zeros((0, 2)), rhs=[])
        sol = lp_minimize(p)
        assert sol.value[0] == 0.0
        assert sol.y[0, 0] == 0.0
        assert not sample_rows(sol)
        assert sol.active.shape == (1, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        q, j = 3, 5
        lo = -1.0 - rng.random(q)
        hi = 1.0 + rng.random(q)
        rows = rng.standard_normal((j, q))
        # right-hand sides low enough to keep the region nonempty
        rhs = rows @ ((lo + hi) / 2) - rng.random(j) - 0.5
        p = LPProblem(c=rng.standard_normal(q), lower=lo, upper=hi,
                      rows=rows, rhs=rhs)
        sol = lp_minimize(p)
        best, _ = enumerate_vertices(p)
        assert best is not None
        assert_allclose(sol.value[0], best, atol=1e-9)

    def test_active_set_reconstructs_optimum(self):
        rng = np.random.default_rng(3)
        p = LPProblem(c=rng.standard_normal(4), lower=-np.ones(4),
                      upper=np.ones(4), rows=rng.standard_normal((6, 4)),
                      rhs=-np.abs(rng.standard_normal(6)) - 2.0)
        sol = lp_minimize(p)
        (theta,), (psi,), (y_opt,) = sol.theta_mat, sol.psi, sol.y
        y = np.linalg.solve(theta, psi)
        assert_allclose(y, y_opt, atol=1e-10)
        assert np.linalg.norm(theta @ y_opt - psi) <= \
            1e-10 * max(np.linalg.norm(psi), 1.0)

    def test_optimum_below_random_feasible_points(self):
        rng = np.random.default_rng(4)
        q, j = 3, 4
        rows = rng.standard_normal((j, q))
        rhs = -np.abs(rng.standard_normal(j)) - 3.0
        p = LPProblem(c=rng.standard_normal(q), lower=-np.ones(q),
                      upper=np.ones(q), rows=rows, rhs=rhs)
        sol = lp_minimize(p)
        count = 0
        while count < 1000:
            y = rng.uniform(-1.0, 1.0, size=q)
            if np.all(rows @ y >= rhs):
                count += 1
                assert sol.value[0] <= p.c @ y + 1e-9

    def test_redundant_row_does_not_change_value(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((4, 3))
        rhs = -np.abs(rng.standard_normal(4)) - 2.0
        p1 = LPProblem(c=rng.standard_normal(3), lower=-np.ones(3),
                       upper=np.ones(3), rows=rows, rhs=rhs)
        sol1 = lp_minimize(p1)
        # duplicate a row and dominate another: optimum must not move
        rows2 = np.vstack([rows, rows[0], rows[1]])
        rhs2 = np.concatenate([rhs, [rhs[0]], [rhs[1] - 1.0]])
        p2 = LPProblem(c=p1.c, lower=p1.lower, upper=p1.upper,
                       rows=rows2, rhs=rhs2)
        sol2 = lp_minimize(p2)
        assert_allclose(sol2.value[0], sol1.value[0], atol=1e-10)

    def test_feasibility_of_reported_minimizer(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rows = rng.standard_normal((6, 3))
            rhs = -np.abs(rng.standard_normal(6)) - 2.5
            p = LPProblem(c=rng.standard_normal(3), lower=-np.ones(3),
                          upper=np.ones(3), rows=rows, rhs=rhs)
            (y,) = lp_minimize(p).y
            assert np.all(y >= p.lower - 1e-9)
            assert np.all(y <= p.upper + 1e-9)
            assert np.all(rows @ y >= rhs - 1e-9)

    def test_infeasible_raises(self):
        p = LPProblem(c=[1.0], lower=[0.0], upper=[1.0],
                      rows=[[1.0], [-1.0]], rhs=[0.8, -0.2])  # y>=0.8, y<=0.2
        with pytest.raises(InfeasibleError):
            lp_minimize(p)

    def test_emptiness_within_tolerance_accepted(self):
        # y >= 0.5 and y <= 0.5 - gap: empty, but only by gap; the
        # acceptance is 1e-8 * (1 + max|h|) = 2e-8
        def problem(gap):
            return LPProblem(c=[1.0], lower=[0.0], upper=[1.0],
                             rows=[[1.0], [-1.0]], rhs=[0.5, -0.5 + gap])
        with pytest.raises(InfeasibleError):
            lp_minimize(problem(1e-7))
        assert_allclose(lp_minimize(problem(1e-8)).value[0], 0.5, atol=1e-7)

    def test_degenerate_vertex_flagged_and_lexicographic(self):
        # four constraints tight at the optimal corner
        p = LPProblem(c=[SQ2 / 2, SQ2 / 2], lower=[-1, -1], upper=[1, 1],
                      rows=[[1, 0], [0, 1]], rhs=[-1, -1])
        sol = lp_minimize(p)
        assert sol.degenerate
        assert sol.active.tolist() == [[0, 1]]    # sample rows 0 and 1

    def test_degenerate_vertex_reports_an_optimal_active_set(self):
        # (-1, -1) minimizes y1 + 2 y2; four constraints are tight there.
        # {row 0, row 1} is independent but has multipliers (1.5, -0.5):
        # bumping row 0 by 0.5 would then give eta = -2.25, above the
        # bumped LP's minimum -2.5
        c = np.array([1.0, 2.0])
        p = LPProblem(c=c, lower=[-1, -1], upper=[1, 1],
                      rows=[[1.0, 1.0], [1.0, -1.0]], rhs=[-2.0, 0.0])
        sol = lp_minimize(p)
        assert sol.degenerate
        assert_allclose(sol.value[0], -3.0, atol=1e-12)
        assert np.all(np.linalg.solve(sol.theta_mat[0].T, c) >= 0.0)
        bumped = LPProblem(c=c, lower=p.lower, upper=p.upper, rows=p.rows,
                           rhs=p.rhs + [0.5, 0.0])
        best, _ = enumerate_vertices(bumped)
        assert_allclose(best, -2.5, atol=1e-12)
        bumps = {i: 0.5 * (i == 0) for i in sample_rows(sol)}
        assert tighten_and_resolve(sol, bumps, c).eta <= best + 1e-12

    @pytest.mark.parametrize("seed", range(24))
    def test_every_solution_certifies_itself(self, seed):
        # half the LPs get extra rows through their optimal vertex, so that
        # more than Q constraints are tight there
        rng = np.random.default_rng(100 + seed)
        q = 2 + seed % 3
        lo = -1.0 - rng.random(q)
        hi = 1.0 + rng.random(q)
        rows = rng.standard_normal((q + 1, q))
        rhs = rows @ ((lo + hi) / 2) - rng.random(q + 1) - 0.2
        c = rng.standard_normal(q)
        if seed % 2:
            (corner,) = lp_minimize(LPProblem(c=c, lower=lo, upper=hi,
                                              rows=rows, rhs=rhs)).y
            extra = rng.standard_normal((2, q))
            rows = np.vstack([extra, rows])
            rhs = np.concatenate([extra @ corner, rhs])
        p = LPProblem(c=c, lower=lo, upper=hi, rows=rows, rhs=rhs)
        sol = lp_minimize(p)
        assert sol.degenerate == bool(seed % 2)
        z = np.linalg.solve(sol.theta_mat[0].T, c)
        assert np.all(z >= -1e-8 * (1.0 + np.max(np.abs(c))))
        best, _ = enumerate_vertices(p)
        assert_allclose(sol.value[0], best, atol=1e-9)

    def test_fixed_coordinate_box(self):
        # degenerate box interval lower == upper
        p = LPProblem(c=[1.0, -1.0], lower=[2.0, 0.0], upper=[2.0, 1.0],
                      rows=[[1.0, 1.0]], rhs=[2.1])
        sol = lp_minimize(p)
        assert_allclose(sol.y[0, 0], 2.0)
        assert_allclose(sol.value[0], 2.0 - 1.0, atol=1e-10)


class TestTightenAndResolve:
    def test_identity_system(self):
        p = LPProblem(c=[SQ2 / 2, SQ2 / 2], lower=[-1, -1], upper=[1, 1],
                      rows=[[1, 0], [0, 1]], rhs=[-1, -1])
        sol = lp_minimize(p)
        out = tighten_and_resolve(sol, {0: 0.5, 1: 0.5}, p.c)
        assert_allclose(out.y, [-0.5, -0.5], atol=1e-12)
        assert_allclose(out.eta, -SQ2 / 2, atol=1e-12)
        assert out.fallback is None

    def test_zero_bumps_reproduce_value(self):
        rng = np.random.default_rng(8)
        p = LPProblem(c=rng.standard_normal(3), lower=-np.ones(3),
                      upper=np.ones(3), rows=rng.standard_normal((5, 3)),
                      rhs=-np.abs(rng.standard_normal(5)) - 2.0)
        sol = lp_minimize(p)
        bumps = {i: 0.0 for i in sample_rows(sol)}
        out = tighten_and_resolve(sol, bumps, p.c)
        assert_allclose(out.y, sol.y[0], atol=1e-10)
        assert_allclose(out.eta, sol.value[0], atol=1e-10)

    def test_matches_independent_gaussian_elimination(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((6, 3))
        rhs = rows @ rng.uniform(-0.5, 0.5, 3) - 0.1  # rows cut into the box
        p = LPProblem(c=rng.standard_normal(3), lower=-np.ones(3),
                      upper=np.ones(3), rows=rows, rhs=rhs)
        sol = lp_minimize(p)
        bumps = {i: float(abs(np.sin(i + 1))) for i in sample_rows(sol)}
        assert bumps
        out = tighten_and_resolve(sol, bumps, p.c)
        psi = sol.psi[0].copy()
        for k, g in enumerate(sol.active[0]):
            if g < sol.n_rows:
                psi[k] += bumps[g]
        expected = gauss_solve(sol.theta_mat[0], psi)
        assert_allclose(out.y, expected, atol=1e-12)

    def test_all_box_fallback(self):
        p = LPProblem(c=[1.0, 1.0], lower=[0, 0], upper=[1, 1],
                      rows=np.zeros((0, 2)), rhs=[])
        sol = lp_minimize(p)
        out = tighten_and_resolve(sol, {}, p.c)
        assert out.fallback == "box_only"
        assert out.eta == sol.value[0]

    def test_missing_bump_rejected(self):
        p = LPProblem(c=[1.0, 1.0], lower=[-1, -1], upper=[1, 1],
                      rows=[[1, 0], [0, 1]], rhs=[-0.5, -0.5])
        sol = lp_minimize(p)
        with pytest.raises(ValueError):
            tighten_and_resolve(sol, {}, p.c)


def grown_lps(q, seed, n_rows):
    """LPs over one box and objective, each with one row more than the
    last; every row cuts near an interior point, so each stays feasible
    and most new rows cut off the previous optimum."""
    rng = np.random.default_rng(seed)
    lo = -1.0 - rng.random(q)
    hi = 1.0 + rng.random(q)
    c = rng.standard_normal(q)
    inner = lo + (hi - lo) * rng.uniform(0.3, 0.7, q)
    rows = rng.standard_normal((n_rows, q))
    rhs = rows @ inner - 0.3 * rng.random(n_rows)
    return [LPProblem(c=c, lower=lo, upper=hi, rows=rows[:j], rhs=rhs[:j])
            for j in range(n_rows + 1)]


class TestWeakDuality:
    @pytest.mark.parametrize("q,seed", [(2, 0), (2, 1), (4, 2), (4, 3),
                                        (10, 4), (10, 5)])
    def test_value_bounds_the_minimum_for_any_multipliers(self, q, seed):
        rng = np.random.default_rng(50 + seed)
        for p in grown_lps(q, seed, 2 * q)[1:]:
            sol = lp_minimize(p)
            (y,), (theta,), (psi,) = sol.y, sol.theta_mat, sol.psi
            best = float(p.c @ y)
            assert abs(sol.value[0] - best) <= 1e-12 * max(1.0, abs(best))
            if q <= 4 and p.n_rows <= 6:
                exact, _ = enumerate_vertices(p)
                assert abs(best - exact) <= 1e-9 * (1.0 + abs(exact))
            reach = np.maximum(np.abs(p.lower), np.abs(p.upper))
            for rows, rhs in ((theta, psi), (p.rows, p.rhs)):
                k = len(rhs)
                for z in (rng.exponential(size=k) * rng.integers(0, 2, k),
                          sol.z[0] * rng.uniform(0.999, 1.001, q)
                          if k == q else rng.exponential(size=k),
                          10.0 * rng.exponential(size=k)):
                    value = dual_bound(p.c, z, rows, rhs, p.lower, p.upper)
                    scale = (np.abs(z) @ np.abs(rhs) + np.abs(p.c) @ reach
                             + np.abs(z) @ np.abs(rows) @ reach
                             + np.abs(p.c) @ np.abs(y))
                    assert value <= best + (k + q) * U * scale

    def test_negative_multipliers_count_as_zero(self):
        # min y over the box [-1, 2] cut by -y >= -1.5 is -1.  Taken as it
        # is, z = -1 on the row would give 1.5 (psi z = 1.5 and r = 0),
        # above the minimum; weak duality admits only z >= 0, so it counts
        # as zero and leaves the box's bound
        c, rows, rhs, lo, hi = [1.0], [[-1.0]], [-1.5], [-1.0], [2.0]
        assert dual_bound(c, [-1.0], rows, rhs, lo, hi) == -1.0
        assert dual_bound(c, [0.0], rows, rhs, lo, hi) == -1.0


class TestDualSimplexRestart:
    @pytest.mark.parametrize("q,seed", [(2, 0), (2, 1), (4, 2), (4, 3),
                                        (10, 4), (10, 5)])
    def test_restart_matches_cold_solve(self, q, seed):
        problems = grown_lps(q, seed, 3 * q if q < 10 else 16)
        prev = None
        for p in problems:
            cold = lp_minimize(p)
            warm = lp_minimize(p, start=prev)
            prev = warm
            for sol in (cold, warm):
                v = sol.value[0]
                assert abs(v - cold.value[0]) <= 1e-12 * (1.0 + abs(v))
                z = np.linalg.solve(sol.theta_mat[0].T, p.c)
                assert np.all(z >= -1e-8 * (1.0 + np.max(np.abs(p.c))))
                assert abs(sol.psi[0] @ z - v) <= 1e-12 * max(1.0, abs(v))
            if q <= 4 and p.n_rows <= 8:
                best, _ = enumerate_vertices(p)
                assert abs(cold.value[0] - best) <= 1e-9 * (1.0 + abs(best))
        # the restarts need fewer pivots than the cold solves
        assert (sum(lp_minimize(p, start=s).pivots for p, s in zip(
            problems[1:], map(lp_minimize, problems)))
                < sum(lp_minimize(p).pivots for p in problems[1:]))

    def test_row_that_empties_the_polytope_raises(self):
        c = [1.0, 1.0]
        first = LPProblem(c=c, lower=[0, 0], upper=[1, 1],
                          rows=[[1.0, 1.0]], rhs=[1.0])
        sol = lp_minimize(first)
        assert_allclose(sol.value[0], 1.0, atol=1e-12)
        # y1 + y2 <= 0.5 against y1 + y2 >= 1
        empty = LPProblem(c=c, lower=[0, 0], upper=[1, 1],
                          rows=[[1.0, 1.0], [-1.0, -1.0]], rhs=[1.0, -0.5])
        with pytest.raises(InfeasibleError):
            lp_minimize(empty)
        with pytest.raises(InfeasibleError):
            lp_minimize(empty, start=sol)

    def test_objective_parallel_to_duplicated_facet(self):
        # every point of y1 + y2 = -1 in the box is optimal; the facet's row
        # appears three times and a fourth row passes through (0, -1)
        c = np.array([1.0, 1.0])
        rows = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        rhs = np.array([-1.0, -1.0, -1.0, 1.0])
        prev = None
        for j in range(1, 5):
            p = LPProblem(c=c, lower=[-1, -1], upper=[1, 1], rows=rows[:j],
                          rhs=rhs[:j])
            best, _ = enumerate_vertices(p)
            for start in (None, prev):
                sol = lp_minimize(p, start=start)
                assert_allclose(sol.value[0], best, atol=1e-12)
                assert np.all(p.rows @ sol.y[0] >= p.rhs - 1e-12)
            prev = sol
        assert best == -1.0

    def test_no_rows_is_the_box_corner_in_no_pivots(self):
        p = LPProblem(c=[1.0, -2.0, 0.0], lower=[-1, -2, -3],
                      upper=[1, 2, 3], rows=np.zeros((0, 3)), rhs=[])
        sol = lp_minimize(p)
        assert sol.pivots == 0
        assert_allclose(sol.y[0], [-1.0, 2.0, -3.0])
        # lower bounds of y_0 and y_2 and the upper bound of y_1
        assert sol.active.tolist() == [[0, 2, 4]]

    def test_restart_from_an_all_box_active_set(self):
        c = np.array([1.0, 2.0, -1.0])
        box = {"lower": -np.ones(3), "upper": np.ones(3)}
        corner = lp_minimize(LPProblem(c=c, rows=np.zeros((0, 3)), rhs=[],
                                       **box))
        assert not sample_rows(corner)
        # the new row cuts off the corner (-1, -1, 1)
        p = LPProblem(c=c, rows=[[1.0, 1.0, -1.0]], rhs=[-2.0], **box)
        warm = lp_minimize(p, start=corner)
        best, _ = enumerate_vertices(p)
        assert_allclose(warm.value[0], best, atol=1e-12)
        assert_allclose(warm.value[0], lp_minimize(p).value[0], atol=1e-12)
        assert 1 <= warm.pivots <= 2
        assert sample_rows(warm) == [0]

    def test_start_optimal_for_another_objective(self):
        # a box bound with the wrong reduced cost moves to its other end; a
        # sample row with a wrong-signed multiplier sends the solve back to
        # the box corner
        box = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
        p = LPProblem(c=[1.0, 1.0], rows=[[1.0, 1.0]], rhs=[1.0], **box)
        sol = lp_minimize(p)
        assert sample_rows(sol) == [0]
        for c, best in (([-1.0, -1.0], -2.0), ([1.0, -1.0], -1.0),
                        ([1.0, 2.0], 1.0)):
            q = LPProblem(c=c, rows=p.rows, rhs=p.rhs, **box)
            assert_allclose(lp_minimize(q, start=sol).value[0], best,
                            atol=1e-12)

    def test_dual_bland_order_picks_the_entering_row(self):
        # the objective is parallel to sample row 1.  Entering rows by dual
        # Bland rank (box rows first, then sample rows) reach (0.5, 0) on
        # rows 0 and 1; entering them in G's row order would stop at
        # (5/6, -2/3) on rows 1 and 2 after three pivots
        p = LPProblem(c=[-2.0, -1.0], lower=[-1, -1], upper=[1, 1],
                      rows=[[2.0, -2.0], [-2.0, -1.0], [-2.0, 2.0]],
                      rhs=[1.0, -1.0, -3.0])
        sol = lp_minimize(p)
        assert sol.active.tolist() == [[0, 1]]    # sample rows 0 and 1
        assert_allclose(sol.y[0], [0.5, 0.0], atol=1e-12)
        assert sol.pivots == 2

    def test_fixed_coordinate_across_a_restart(self):
        # y_0 is fixed at 2: its box row must never leave the active set
        box = {"lower": [2.0, 0.0, -1.0], "upper": [2.0, 1.0, 1.0]}
        c = [1.0, -1.0, 1.0]
        corner = lp_minimize(LPProblem(c=c, rows=np.zeros((0, 3)), rhs=[],
                                       **box))
        p = LPProblem(c=c, rows=[[1.0, -1.0, 1.0]], rhs=[1.5], **box)
        for start in (None, corner):
            sol = lp_minimize(p, start=start)
            assert_allclose(sol.y[0], [2.0, 0.0, -0.5], atol=1e-12)
            # sample row 0 and the lower bounds of y_0 and y_1
            assert sol.active.tolist() == [[0, 1, 2]]
            assert sol.pivots == 2
        # y_0 >= 2.5 cannot hold with y_0 fixed at 2
        empty = LPProblem(c=c, rows=[[1.0, 0.0, 0.0]], rhs=[2.5], **box)
        for start in (None, corner):
            with pytest.raises(InfeasibleError):
                lp_minimize(empty, start=start)


def _row_by_row(p, start=None):
    """One-objective solves of each row of the stacked ``p``, each from its
    row of the batch ``start``."""
    out = []
    for i, c in enumerate(p.c):
        row = None if start is None else start.take([i])
        out.append(lp_minimize(LPProblem(c=c, lower=p.lower, upper=p.upper,
                                         rows=p.rows, rhs=p.rhs),
                               start=row))
    return out


def _assert_rows_match(batch, sols):
    """The stacked solve's rows equal the one-objective solves."""
    assert len(batch.value) == len(sols)
    for i, sol in enumerate(sols):
        assert sol.n_rows == batch.n_rows
        assert batch.active[i].tolist() == sol.active[0].tolist()
        v = sol.value[0]
        assert abs(batch.value[i] - v) <= 1e-12 * max(1.0, abs(v))
        assert np.all(np.abs(batch.y[i] - sol.y[0])
                      <= 1e-12 * np.maximum(1.0, np.abs(sol.y[0])))
        assert batch.row_pivots[i] == sol.pivots
        assert batch.row_degenerate[i] == sol.degenerate
    assert batch.pivots == sum(s.pivots for s in sols)
    assert batch.degenerate == sum(s.degenerate for s in sols)


class TestStackedLpMinimize:
    @pytest.mark.parametrize("q,seed", [(2, 0), (2, 1), (4, 2), (4, 3),
                                        (10, 4), (10, 5)])
    def test_matches_row_by_row_cold_warm_and_mixed(self, q, seed):
        rng = np.random.default_rng(200 + seed)
        lo = -1.0 - rng.random(q)
        hi = 1.0 + rng.random(q)
        inner = lo + (hi - lo) * rng.uniform(0.3, 0.7, q)
        n_rows = 2 * q + 4
        rows = rng.standard_normal((n_rows, q))
        rhs = rows @ inner - 0.3 * rng.random(n_rows)
        objectives = rng.standard_normal((12, q))
        first = LPProblem(c=objectives, lower=lo, upper=hi,
                          rows=rows[:q], rhs=rhs[:q])
        cold = lp_minimize(first)
        assert cold.cache_hit is False
        _assert_rows_match(cold, _row_by_row(first))
        full = LPProblem(c=objectives, lower=lo, upper=hi, rows=rows,
                         rhs=rhs)
        warm = lp_minimize(full, start=cold)
        _assert_rows_match(warm, _row_by_row(full, cold))
        assert np.all(rows @ warm.y.T >= rhs[:, None] - 1e-9)
        assert warm.pivots < lp_minimize(full).pivots

    def test_one_objective_is_a_stack_of_one(self):
        problems = grown_lps(4, 7, 8)
        start = lp_minimize(problems[4])
        for begin in (None, start):
            one = lp_minimize(problems[-1], start=begin)
            stacked = lp_minimize(replace(problems[-1],
                                          c=problems[-1].c[None]),
                                  start=begin)
            assert isinstance(one, LPBatch)
            for f in fields(LPBatch):
                assert np.array_equal(getattr(one, f.name),
                                      getattr(stacked, f.name)), f.name
            assert one.y.shape == (1, 4)

    def test_fixed_coordinate(self):
        box = {"lower": [2.0, 0.0, -1.0], "upper": [2.0, 1.0, 1.0]}
        objectives = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0],
                               [1.0, 1.0, -1.0], [-3.0, -1.0, -1.0]])
        corner = lp_minimize(LPProblem(c=objectives, rows=np.zeros((0, 3)),
                                       rhs=[], **box))
        p = LPProblem(c=objectives, rows=[[1.0, -1.0, 1.0], [0.0, 1.0, 1.0]],
                      rhs=[1.5, -0.5], **box)
        for start in (None, corner):
            sols = lp_minimize(p, start=start)
            _assert_rows_match(sols, _row_by_row(p, start))
            assert np.all(sols.y[:, 0] == 2.0)
            # a box row of coordinate 0 stays in every active set
            assert np.all(np.any((sols.active == 2) | (sols.active == 5),
                                 axis=1))

    def test_objective_parallel_to_a_duplicated_facet(self):
        # y1 + y2 >= -1 three times over, and a row through (0, -1): the
        # first objective is parallel to the facet
        objectives = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0],
                               [-1.0, 1.0]])
        p = LPProblem(c=objectives, lower=[-1, -1], upper=[1, 1],
                      rows=[[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
                      rhs=[-1.0, -1.0, -1.0, 1.0])
        sols = lp_minimize(p)
        _assert_rows_match(sols, _row_by_row(p))
        assert sols.degenerate > 0
        for c, value in zip(objectives, sols.value):
            best, _ = enumerate_vertices(LPProblem(
                c=c, lower=p.lower, upper=p.upper, rows=p.rows, rhs=p.rhs))
            assert_allclose(value, best, atol=1e-12)

    def test_emptying_row_within_and_beyond_tolerance(self):
        # y >= 0.5 and y <= 0.5 - gap: empty, but only by gap; the
        # acceptance is 1e-8 * (1 + max|h|) = 2e-8
        objectives = np.array([[1.0], [-1.0], [2.0]])
        first = LPProblem(c=objectives, lower=[0.0], upper=[1.0],
                          rows=[[1.0]], rhs=[0.5])
        start = lp_minimize(first)

        def problem(gap):
            return LPProblem(c=objectives, lower=[0.0], upper=[1.0],
                             rows=[[1.0], [-1.0]], rhs=[0.5, -0.5 + gap])
        for begin in (None, start):
            with pytest.raises(InfeasibleError):
                lp_minimize(problem(1e-7), start=begin)
            sols = lp_minimize(problem(1e-8), start=begin)
            _assert_rows_match(sols, _row_by_row(problem(1e-8), begin))
            assert_allclose(sols.y[:, 0], 0.5, atol=1e-7)

    def test_empty_stack(self):
        p = LPProblem(c=np.zeros((0, 2)), lower=[0, 0], upper=[1, 1],
                      rows=[[1.0, 1.0]], rhs=[0.5])
        for start in (None, lp_minimize(p)):
            sols = lp_minimize(p, start=start)
            assert sols.value.shape == (0,) and sols.active.shape == (0, 2)
            assert sols.pivots == 0

    def test_restart_renumbers_the_kept_rows(self):
        # the greedy's step: restart every row over one more sample row; a
        # row the new sample row does not cut keeps its vertex
        objectives = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 2.0]])
        box = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
        rows, rhs = np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0.5, 0.2])
        first = lp_minimize(LPProblem(c=objectives, rows=rows[:1],
                                      rhs=rhs[:1], **box))
        grown = LPProblem(c=objectives, rows=rows, rhs=rhs, **box)
        held = lp_minimize(grown, start=first)
        assert held.n_rows == 2
        # the kept row's box rows move up by the one new sample row
        kept = first.active[2]
        assert held.active[2].tolist() == np.where(kept >= 1, kept + 1,
                                                   kept).tolist()
        assert held.row_pivots[2] == 0
        for f in ("y", "z", "value"):
            assert np.array_equal(getattr(held, f)[2],
                                  getattr(first, f)[2]), f
        _assert_rows_match(held, _row_by_row(grown, first))
        # the same vertices as cold solves, after fewer pivots
        cold = lp_minimize(grown)
        assert np.array_equal(held.active, cold.active)
        assert_allclose(held.value, cold.value, rtol=1e-12, atol=1e-12)
        assert held.pivots < cold.pivots
