"""Fiber equations h_y and the discovery of contracted divisors.

For a target point y, the divisorial part of the fiber is cut out by
h_y = gcd of the combinations f_i - y_i * f_{i0} / y_{i0}.  Discovery
restricts the square-free part of F to lines, factors each restriction into
closed points of Z(F) and pushes them through the map; the first decisive
line finds every rational y with a one-dimensional fiber.
"""

from fiberbound import (ProjectivePoint, discover_fibers, fiber_equation,
                        gcd_of_minors, build_jacobian, minors)
from fiberbound.fixtures import make_example2, make_family

fam = make_family(4)
names = fam.varnames
print(f"family map at d = 4: {[f.to_str(names) for f in fam.f]}")
y = ProjectivePoint.create(fam.field, (0, 0, 1, 1))
h = fiber_equation(fam, y)
print(f"fiber over y = {y.to_str(fam.field)}: h_y = {h.to_str(names)}")
print("(the whole line X0 = X1 is squashed onto this single point)")

y_generic = ProjectivePoint.create(fam.field, (3, 5, 7, 11))
print(f"fiber over a generic point {y_generic.to_str(fam.field)}: "
      f"h_y = {fiber_equation(fam, y_generic).to_str(names)}  "
      "(no divisorial part)")

print("\nfull discovery on the degree-6 example (seed 42, budget 200):")
inp = make_example2()
F = gcd_of_minors(minors(build_jacobian(inp), 3))
disc = discover_fibers(inp, F, budget=200, seed=42)
total = 0
for r in disc.records:
    print(f"  y = {r.y.to_str(inp.field)}   h_y = {r.h.to_str(names)}   "
          f"deg {r.deg_h}   weighted {r.weighted_deg}")
    total += r.deg_h
print(f"sum of fiber degrees: {total}")
print(f"coverage: {disc.covered_degree} of deg(squarefree(F)) = "
      f"{disc.squarefree_f_degree}; the rest of Z(F) is "
      + ("contracted to no rational point (decisive line)" if disc.decisive
         else "unexplained within the budget"))
print("\nNote the point (1 : 0 : -1 : 0): its divisor X0^2 + X2^2 has just")
print("one rational point (a base point), so it is only reachable through")
print("the conjugate quadratic points that discovery factors out of a line.")
