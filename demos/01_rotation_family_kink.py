"""Bounds on the 2x2 rotation family: where classical lower bounds kink.

The family cos(mu) A1 + sin(mu) A2 has smallest eigenvalue identically -1,
but the LP lower bound built from three samples {0, pi/2, pi} is a
piecewise-smooth curve that dips to -sqrt(2) between samples and has a
corner at pi/2.  The subspace bounds, fed by the sampled eigenvectors,
recover the exact eigenvalue everywhere once two distinct samples are in.
One ``bounds_at`` call on the sample pool gives both kinds of bounds at
every parameter.
"""

import numpy as np

from eigenbounds import (SubspacePool, append_sample, compute_bounding_box,
                         unit_circle_family)

family = unit_circle_family()
box = compute_bounding_box(family)
print(f"bounding box: [{box.lower[0]:+.2f},{box.upper[0]:+.2f}] x "
      f"[{box.lower[1]:+.2f},{box.upper[1]:+.2f}]")

pool = SubspacePool(family, ell=1, r_max=2)
for mu in ([0.0], [np.pi / 2], [np.pi]):
    append_sample(pool, mu)


def bounds(mus):
    """The classical and subspace bound columns at the parameters mus."""
    return pool.bounds_at(box, family.theta_table(np.reshape(mus, (-1, 1))))[0]


mus = np.linspace(0.3, np.pi - 0.3, 13)
cols = bounds(mus)
print(f"\n{'mu':>8} {'exact':>8} {'lam_LB':>9} {'lam_UB':>9} "
      f"{'lam_SLB':>9} {'lam_SUB':>9}")
for k, mu in enumerate(mus):
    print(f"{mu:8.4f} {-1.0:8.4f} {cols['lam_lb'][k]:9.5f} "
          f"{cols['lam_ub'][k]:9.5f} {cols['lam_slb'][k]:9.5f} "
          f"{cols['lam_sub'][k]:9.5f}")

h = 1e-6
left, mid, right = bounds(np.pi / 2 + np.array([-h, 0.0, h]))["lam_lb"]
print(f"\nclassical lower bound one-sided slopes at pi/2: "
      f"{(mid - left) / h:+.3f} / {(right - mid) / h:+.3f}")
print("the exact eigenvalue is flat (-1) there: the LP bound cannot "
      "interpolate derivatives, the subspace bound can.")
