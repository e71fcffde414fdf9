"""The sensitivity contradiction: the best probe depends on the measure.

The minimum detectable shift eps_min = F_q**(-q) is swept over the shape
alpha at fixed unit energy for three orders q.  The three curves disagree
about which probe is best:

* q = 2   : eps_min is smallest at alpha = 1 and grows toward both ends;
* q = 1/2 : eps_min = 1/2 regardless of alpha (classical Fisher route);
* q = 1/4 : eps_min is LARGEST at alpha = 1 and collapses toward zero at
            both ends -- apparently unbounded sensitivity at fixed energy.
"""

import math

from genfisher.cli import AlphaGrid, SweepConfig, run_sweep

config = SweepConfig(
    quantity="eps_min",
    q_list=(0.25, 0.5, 2.0),
    energy=1.0,
    alpha_grid=AlphaGrid(0.751, 100.0, 60, "log"),
)
rows = run_sweep(config)
columns = {q: [r for r in rows if r.q == q] for q in config.q_list}
alphas = [r.alpha for r in columns[0.5]]

print(f"{'alpha':>9} {'ln a':>7} {'q=1/4':>10} {'q=1/2':>10} {'q=2':>12}")
for k in range(0, 60, 5):
    print(
        f"{alphas[k]:9.4f} {math.log(alphas[k]):7.3f} "
        f"{columns[0.25][k].closed_value:10.5f} "
        f"{columns[0.5][k].closed_value:10.5f} "
        f"{columns[2.0][k].closed_value:12.5f}"
    )

k_near_one = min(range(60), key=lambda k: abs(math.log(alphas[k])))
low = [r.closed_value for r in columns[0.25]]
high = [r.closed_value for r in columns[2.0]]
print(f"\ngrid point nearest alpha = 1: index {k_near_one} (alpha = {alphas[k_near_one]:.4f})")
print(f"q = 2   attains its minimum there: argmin = {min(range(60), key=lambda k: high[k])}")
print(f"q = 1/4 attains its maximum there: argmax = {max(range(60), key=lambda k: low[k])}")
print(f"q = 1/4 end values: {low[0]:.5f} (alpha = {alphas[0]:.4f}), "
      f"{low[-1]:.5f} (alpha = {alphas[-1]:.1f}) -- both far below the peak {max(low):.5f}")
print("\nso for q < 1/2 a fixed energy budget appears to buy arbitrarily fine")
print("sensitivity by pushing alpha toward 1 - q or infinity, while q > 1/2")
print("says the two-sided exponential (alpha = 1) is the optimum.")

statuses = [r.status for r in rows]
print(f"\nquadrature cross-check over {len(rows)} rows: "
      + ", ".join(f"{statuses.count(s)} {s}" for s in sorted(set(statuses))))
