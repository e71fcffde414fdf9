"""Posterior widths and single-shot mean errors do not show the contradiction.

Both Bayesian-style uncertainty measures -- the order-q entropy length of
the posterior shift distribution and the generalized mean estimation error
-- have a single interior optimum in alpha for every order examined, and
they all diverge toward both ends of the shape axis.  Neither reproduces
the vanishing-uncertainty behaviour of the q < 1/2 sensitivity, which is
the point of comparing them.
"""

import math

from genfisher import fisher_closed, mean_error_closed
from genfisher.cli import AlphaGrid, SweepConfig, run_sweep
from genfisher.probe import ProbeDistribution

GRID = AlphaGrid(0.76, 100.0, 60, "log")

for quantity, label in (("posterior_width", "posterior width"), ("mean_error", "mean error")):
    config = SweepConfig(
        quantity=quantity, q_list=(0.25, 0.5, 2.0), energy=1.0,
        alpha_grid=GRID,
    )
    rows = run_sweep(config)
    print(f"{label}: all {len(rows)} rows converged against the closed form:"
          f" {all(r.status == 'ok' for r in rows)}")
    for q in config.q_list:
        vals = [(r.alpha, r.closed_value) for r in rows if r.q == q]
        k = min(range(len(vals)), key=lambda i: vals[i][1])
        print(f"  q = {q:<5g} minimum {vals[k][1]:8.4f} at alpha = {vals[k][0]:7.3f} "
              f"(ends: {vals[0][1]:8.4f}, {vals[-1][1]:8.4f})")
    print()

print("products  mean_error(q) * fisher(q)^q  along the grid (classical")
print("Cramer-Rao bound at q = 1/2 -- saturated only by the Gaussian):")
print(f"{'alpha':>9} {'q=1/4':>9} {'q=1/2':>9} {'q=2':>9}")
for alpha in (0.8, 1.0, 1.5, 2.0, 3.0, 5.0, 20.0):
    d = ProbeDistribution.from_shape_energy(alpha, 1.0)
    cells = []
    for q in (0.25, 0.5, 2.0):
        p = mean_error_closed(d, q).value * fisher_closed(d, q).value ** q
        cells.append(f"{p:9.5f}")
    print(f"{alpha:9.2f} " + " ".join(cells))
print("\nq = 1/2 never dips below 1; at other orders the product is not")
print("bounded away from zero, so no analogous lower bound is evident.")

d2 = ProbeDistribution.from_shape_energy(2.0, 1.0)
sat = mean_error_closed(d2, 0.5).value * math.sqrt(fisher_closed(d2, 0.5).value)
print(f"saturation check at alpha = 2: product = {sat:.12f}")
