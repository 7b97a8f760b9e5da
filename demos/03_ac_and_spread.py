# The saturation comparison A(c) asks that (I_n : m^infty) and I_n agree
# inside m^(cn) for every n; it is exactly what makes the normalized length
# sequence converge.  The family K_n = (x^2, x y^(a n)) satisfies A(c)
# precisely when c > a, and failures come with re-checkable witnesses.

from epsmult import (
    PowerFiltration,
    RingContext,
    check_Ac,
    maximal_power,
    spread_max_test,
    spread_zero_test,
    toric_rank_bound,
    verify_ac_witness,
    verify_zero_certificate,
)
from epsmult.fixtures import pi_line, rational_plane, template_family
from epsmult.textio import format_monomial

ctx = RingContext(2)

print("A(c) on K_n = (x^2, x y^(a n)), n <= 50:")
for a in (1, 2, 3):
    K = template_family(f"{a}*n")
    row = []
    for c in range(1, 6):
        rep = check_Ac(K, c, 50)
        row.append(f"c={c}:{'holds' if rep.holds else 'fails'}")
        if not rep.holds:
            assert verify_ac_witness(K, rep)
    print(f"  a={a}: ", "  ".join(row), "   (holds iff c > a)")

# a failure witness in full: it lies in the saturation and in m^(cn) but not
# in the ideal itself
K2 = template_family("2*n")
rep = check_Ac(K2, 2, 50)
print("\nK with a=2 fails A(2) at n =", rep.witness_n,
      "with witness", format_monomial(rep.witness, ctx.names))

# spread certificates: a saturation gap pushes the analytic spread to the
# ring dimension for certified representations, such as the rational
# discrete-valued (x)^(3n) meet m^(6n)
cert = spread_max_test(rational_plane(), 5)
print("\nrational discrete-valued (3, 6):", cert.note)

# the one-variable ceil-pi family instead has zero spread: every generator
# power eventually falls into m * I_(rn), with r sized by the ceiling defect
line = pi_line()  # (x^ceil(n pi)) in one variable
zero = spread_zero_test(line, 12, 10)
print("zero-spread certificates (n, r):",
      [(n, r) for n, _, r in zero.entries])
print("re-verified:", verify_zero_certificate(line, zero))
print("note the spike at n=7: ceil(7 pi) is nearly exact, so r jumps to 113")

print("\ntoric rank bound for powers of m^2:",
      toric_rank_bound(PowerFiltration(maximal_power(ctx, 2)), 4))
