# Integral closures of Rees algebras, compared degree by degree.  Membership
# of x^a at degree m asks for some r with r*a inside the Newton polyhedron of
# I_(rm); exclusions are certified by a weight that undervalues the monomial
# against an affine-in-r lower bound, so a "different" verdict is a proof.

from epsmult import (
    MonomialIdeal,
    RingContext,
    epsilon_difference_check,
    integral_closure,
    rees_closure_compare,
    truncation_sweep,
    verify_separation_certificate,
)
from epsmult.fixtures import pi_plane, staircase_pair, template_family
from epsmult.textio import decimal_str, format_generators

ctx = RingContext(2)

print("integral closure of (x^2, y^3):",
      format_generators(integral_closure(MonomialIdeal(ctx, [(2, 0), (0, 3)]))))

# same closure: (x^2, x y^(2n)) against (x^2, x y^n); each cross membership
# is witnessed by a square
fast = template_family("2*n")
slow = template_family("n")
verdict = rees_closure_compare(fast, slow, 20, 4)
print("\n(x^2, xy^2n) vs (x^2, xy^n):", verdict.outcome,
      f"(all memberships at r <= {verdict.max_r_used})")

# different closure: (x^n) against (x^(n+1), x^n y); the monomial x at degree
# 1 is excluded for every power by the weight (1,1)
I, J = staircase_pair()
verdict = rees_closure_compare(I, J, 10, 6)
cert = verdict.certificate
print("(x^n) vs (x^(n+1), x^n y):", verdict.outcome,
      f"at degree {verdict.degree}; weight {cert.weight}, slope {cert.slope},",
      f"intercept {cert.intercept}; re-verified:",
      verify_separation_certificate(J, cert, 100))

# the same pair has equal local limits everywhere, so closure equality is
# genuinely stronger than matching multiplicities
diff = epsilon_difference_check(J, I, 60, window=15)
print("difference residual for the pair:", diff.residual)

# truncations: the subfiltration generated by degrees <= i approaches the
# parent as i grows (here the plane ceil-pi filtration)
sweep = truncation_sweep(pi_plane(), [1, 2, 3, 4, 5], 60, window=20)
print("\ntruncation estimates vs parent", decimal_str(sweep.parent_estimate, 5))
for level, est, gap in sweep.levels:
    print(f"  level {level}: {decimal_str(est, 5)}   gap {decimal_str(gap, 5)}")
