"""Strengthen the LP relaxation with pooling inequalities in a cut loop.

Shows the bound moving from the plain envelope value to the global optimum
as violated nonlinear inequalities are linearized at successive LP optima.
The loop is the root cut loop of ``branch_and_cut``, so the last bound
printed is the root bound the solver reaches.
"""

import poolblend as pb
from poolblend.instances import haverly
from poolblend.solve import _cut_loop, print_cut_rounds

pq = pb.build_pq(haverly())
rm = pb.relax(pq.model)

cb = pb.add_all_pooling_inequalities(rm, pq)
print("triplet parameters:")
for key, par in sorted(cb.params.items()):
    print(f"  {key}: eta=[{par.eta_lo:+.2f},{par.eta_hi:+.2f}] "
          f"beta=[{par.beta_lo:+.2f},{par.beta_hi:+.2f}]")

# each round re-optimizes from the previous optimal basis: only the new cut
# rows move
print_cut_rounds(*_cut_loop(rm, cb))

print("installed gradient cuts:")
print(cb.dump_cut_pool())
