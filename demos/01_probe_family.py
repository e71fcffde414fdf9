"""Tour of the exponential power probe family.

The shape parameter alpha morphs the density from a sharp two-sided
exponential (alpha = 1) through the Gaussian (alpha = 2) toward a square
pulse.  Holding the mean energy fixed while varying alpha is what makes
the family interesting for probing shifts: the script tabulates the
density at fixed unit energy, round-trips the energy through quadrature,
and checks the exact scale-mixture sampler (one gamma variate and one
uniform per draw) against the density.
"""

import math

import numpy as np

from genfisher import ProbeDistribution

print("density at fixed unit mean energy")
print(f"{'alpha':>7} {'gamma':>9} {'P(0)':>9} {'P(0.5)':>9} {'P(1)':>9} {'P(2)':>9}")
for alpha in (0.6, 1.0, 2.0, 5.0, 20.0, 100.0):
    d = ProbeDistribution.from_shape_energy(alpha, 1.0)
    row = " ".join(f"{d.pdf(x):9.5f}" for x in (0.0, 0.5, 1.0, 2.0))
    print(f"{alpha:7.1f} {d.gamma_scale:9.5f} {row}")
print("(the peak flattens and widens: the probe spends its energy differently)\n")

print("mean energy round trip (closed scale vs quadrature)")
for alpha in (0.55, 1.0, 3.0, 10.0):
    for energy in (0.5, 2.0):
        d = ProbeDistribution.from_shape_energy(alpha, energy)
        back = d.mean_energy_quadrature()
        print(f"  alpha={alpha:<5g} target={energy:<4g} quadrature={back:.10f}")
print()

print("sampler check: histogram mass vs integrated density, alpha = 0.8")
d = ProbeDistribution.from_shape_scale(0.8, 1.0)
x = d.sample(np.random.default_rng(12345), 400_000)
edges = np.array([-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0])
hist, _ = np.histogram(x, bins=edges)
for lo, hi, count in zip(edges, edges[1:], hist):
    mid = 0.5 * (lo + hi)
    # crude cell mass estimate from Simpson's rule on the cell
    mass = (hi - lo) * (d.pdf(lo) + 4.0 * d.pdf(mid) + d.pdf(hi)) / 6.0
    print(f"  [{lo:5.1f},{hi:5.1f}]  empirical={count / x.size:8.5f}  density={mass:8.5f}")

print("\nsample mean", float(x.mean()), "(symmetric family: expect ~0)")
print("fraction outside [-3, 3]:", float((np.abs(x) > 3).mean()))
print("heavy left tail of alpha < 1 shapes decays as exp(-2|x|^alpha):",
      d.pdf(3.0), "at x = 3 vs", math.exp(-2.0 * 3.0**0.8) * d.norm_const, "expected")
