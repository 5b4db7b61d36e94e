"""The full degree-bound chain, certified end to end on the family of maps.

For each degree d, the chain

    sum deg(h_y)  <=  sum (2e-1) deg(P_e)  <=  deg F  <=  3(d-1)

is computed exactly; the middle sum meets deg F on this family, showing
the bound is tight, while the outer bound stays strict.
"""

from fiberbound import run_analysis
from fiberbound.fixtures import make_example2, make_family

print(f"{'d':>3} {'sum deg':>8} {'weighted':>9} {'deg F':>6} "
      f"{'3(d-1)-indeg':>13} {'3(d-1)':>7}")
for d in (4, 5, 6, 7):
    rep = run_analysis(make_family(d))
    ch = rep.chain
    print(f"{d:>3} {ch.sum_deg:>8} {ch.sum_weighted:>9} {ch.degF:>6} "
          f"{ch.refined:>13} {ch.outer:>7}   chain ok: {rep.chain_ok}")

print("\ndegree-6 example with multiplicity weighting visible:")
rep = run_analysis(make_example2())
ch = rep.chain
print(f"  {ch.sum_deg} <= {ch.sum_weighted} <= {ch.degF} <= {ch.outer}")
print(f"  refined: deg F = {ch.degF} <= {ch.refined} = 3(d-1) - indeg(Syz)")
print("  the fiber with h_y = X1^2 contributes 2 to the left sum but")
print("  2*2 - 1 = 3 to the weighted sum: multiple factors count double-ish.")
