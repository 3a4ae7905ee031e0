"""Strengthen the LP relaxation with pooling inequalities in a cut loop.

Shows the bound moving from the plain envelope value to the global optimum
as violated nonlinear inequalities are linearized at successive LP optima.
"""

import poolblend as pb
from poolblend.instances import haverly

pq = pb.build_pq(haverly())
rm = pb.relax(pq.model)

cb = pb.add_all_pooling_inequalities(rm, pq)
print("triplet parameters:")
for key, par in sorted(cb.params.items()):
    print(f"  {key}: eta=[{par.eta_lo:+.2f},{par.eta_hi:+.2f}] "
          f"beta=[{par.beta_lo:+.2f},{par.beta_hi:+.2f}]")

res = pb.solve_lp(rm.lp)
for iteration in range(10):
    print("Iter {}: {}".format(iteration, res.objective))
    new_cuts = pb.add_valid_cuts(cb, rm, res.x)
    print("  Adding {} cuts".format(new_cuts))
    if not new_cuts:
        break
    # re-optimize from the previous optimal basis: only the new cut rows move
    res = pb.solve_lp(rm.lp, start=res)

print("installed gradient cuts:")
print(cb.dump_cut_pool())
