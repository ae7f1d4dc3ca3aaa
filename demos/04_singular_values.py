"""Smallest singular values via the squared expanded family.

For a nonsymmetric parametric matrix B(mu) measured in an SPD inner
product X, the smallest singular value of L^{-1} B(mu) L^{-T} is the
square root of the smallest eigenvalue of a Hermitian family with
coefficient products theta_i * theta_j.  The expansion below builds that
family and the greedy loop certifies sigma_min over the domain.
"""

import numpy as np

from eigenbounds import (random_training_set, singular_value_expansion,
                         subspace_greedy)

rng = np.random.default_rng(5)
n = 60
B1 = rng.standard_normal((n, n)) + 3.0 * np.eye(n)  # keep sigma_min away from 0
B2 = 0.5 * rng.standard_normal((n, n))
g = rng.standard_normal((n, n))
X = g @ g.T / n + np.eye(n)

family = singular_value_expansion([B1, B2], ["1", "mu1"], [(0.0, 1.0)], X)
print(f"expanded family: {family.q} Hermitian terms from 2 raw terms")
print(f"coefficients: {family.theta_source}")

train = random_training_set(family.domain, 120, seed=6)
result = subspace_greedy(family, train, eps=1e-6, j_max=40)
print(result.reason)

L = np.linalg.cholesky(X)
print(f"\n{'mu':>7} {'sqrt(lam_SLB)':>14} {'sigma_min (SVD)':>16} "
      f"{'sqrt(lam_SUB)':>14}")
for idx in np.linspace(0, len(train) - 1, 8, dtype=int):
    mu = train.points[idx][0]
    M = np.linalg.solve(L, np.linalg.solve(L, (B1 + mu * B2).T).T)
    sigma = np.linalg.svd(M, compute_uv=False)[-1]
    slb = np.sqrt(max(result.tables["lam_slb"][idx], 0.0))
    sub = np.sqrt(max(result.tables["lam_sub"][idx], 0.0))
    print(f"{mu:7.4f} {slb:14.9f} {sigma:16.9f} {sub:14.9f}")
