"""Graded syzygies, the initial degree, and the Euler syzygy from the minors.

The syzygy module in degree nu is the kernel of an exact linear map; its
initial degree refines the bound on deg F.  The four signed 3x3 minors of
a surface map assemble into an explicit syzygy of degree 3(d-1) - deg F.
"""

from fiberbound import (euler_syzygy, graded_syzygy_kernel, indeg_syzygy,
                        jacobian_report)
from fiberbound.fixtures import make_cube_dependent, make_example2

inp = make_example2()
names = inp.varnames
print(f"degree-6 surface map; kernel dimensions of (a_0..a_3) -> sum a_i f_i:")
for nu in range(4):
    k = graded_syzygy_kernel(inp, nu)
    print(f"  degree {nu}: dim {k.dimension}")
    if k.dimension and nu <= 2:
        a = k.basis[0]
        print("    e.g. (" + ", ".join(ai.to_str(names) for ai in a) + ")")
res = indeg_syzygy(inp)
print(f"indeg(Syz) = {res.indeg}")

jr = jacobian_report(inp)
F = jr.F
es = euler_syzygy(inp, jr)
print(f"\nEuler syzygy from the signed minors: delta = 3(d-1) - deg F "
      f"= {es.delta}")
print(f"entry degrees: {[a.total_degree() for a in es.a]}; "
      "sum a_i f_i = 0 holds exactly")
print(f"refined bound: deg F = {F.total_degree()} <= 3(d-1) - indeg "
      f"= {3 * (inp.d - 1) - res.indeg}")

cube = make_cube_dependent()
res0 = indeg_syzygy(cube)
print(f"\ndependent cubes: indeg(Syz) = {res0.indeg} "
      "(a constant relation, the dependent case)")
