"""Coercivity constants as parametric smallest eigenvalues.

A stiffness family A(mu) measured in an energy inner product X defines
the pencil (A(mu), X), whose smallest eigenvalue is the discrete
coercivity constant.  X is factored once (sparse, never dense) and attached
to the family; every eigensolve then runs on the pencil, and the bound
machinery certifies the constant over the whole parameter domain.
"""

import numpy as np
import scipy.linalg

from eigenbounds import (coercivity_transform, random_training_set,
                         subspace_greedy)
from eigenbounds.family import AffineFamily

# 1-D diffusion stiffness with a parametrized reaction block
n = 120
main = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
react = np.zeros((n, n))
react[n // 3:2 * n // 3, n // 3:2 * n // 3] = np.eye(n // 3)
stiff = AffineFamily(terms=(main * (n + 1), react),
                     theta=lambda mu: np.array([1.0, mu[0]]),
                     domain=((0.0, 50.0),))

# energy inner product: the stiffness at the domain center plus a mass shift
X = main * (n + 1) + 25.0 * react + 0.5 * np.eye(n)
family = coercivity_transform(stiff, X)

train = random_training_set(family.domain, 200, seed=3)
result = subspace_greedy(family, train, eps=1e-4, j_max=30)
print(result.reason)

print(f"\n{'mu':>8} {'lam_SLB':>12} {'generalized eig':>16} {'lam_SUB':>12}")
for idx in np.linspace(0, len(train) - 1, 8, dtype=int):
    mu = train.points[idx]
    exact = scipy.linalg.eigh(stiff.assemble_dense(mu), X,
                              eigvals_only=True)[0]
    print(f"{mu[0]:8.3f} {result.tables['lam_slb'][idx]:12.8f} "
          f"{exact:16.8f} {result.tables['lam_sub'][idx]:12.8f}")
print("\nthe certified interval [lam_SLB, lam_SUB] brackets the discrete "
      "coercivity constant at every training parameter.")
