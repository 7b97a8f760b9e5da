# The headline worked example: the plane filtration
#   I_n = (x)^ceil(n pi)  meet  (x, y)^ceil(2 n pi)
# is discrete valued with irrational multipliers.  Its normalized saturation
# lengths converge to pi^2, and localizing at the line (x) gives pi.  All
# ceilings of n*pi are certified by interval refinement, never float-rounded.

from epsmult import epsilon_report
from epsmult.fixtures import pi_plane
from epsmult.textio import decimal_str, format_generators
from epsmult.valuation import ExactScalar, ceil_mul

pi = ExactScalar(1, "pi")
F = pi_plane()  # its docstring states the definition above

print("I_1 =", format_generators(F.ideal_at(1)))
print("I_2 =", format_generators(F.ideal_at(2)))
print("ceil(7 pi) =", ceil_mul(pi, 7), " (certified, 7 pi = 21.99...)")

# lengths lambda(I_n^sat / I_n) follow the closed form D(D+1)/2 with
# D = ceil(2 n pi) - ceil(n pi); the report normalizes by 2! / n^2
rep = epsilon_report(F, 200, window=100)
print(f"\nclassification: {rep.classification}")
print("estimate:", decimal_str(rep.estimate, 8), " (pi^2 = 9.86960440...)")
print("last row:", rep.rows()[-1])

# localizing at the line (x) leaves the one-variable family (x^ceil(n pi))
loc = epsilon_report(F.localize([0]), 200, window=100)
print(f"\nlocalized at (x): {loc.classification},",
      "estimate", decimal_str(loc.estimate, 8), " (pi = 3.14159265...)")
