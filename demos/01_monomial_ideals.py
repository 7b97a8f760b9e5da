# Tour of the exact monomial ideal kernel: ideals are antichains of exponent
# vectors, every operation is lattice arithmetic, and lengths of finite
# quotients are staircase point counts (summed over slices in 3 or more
# variables).

from epsmult import (
    MonomialIdeal,
    RingContext,
    colength,
    colon,
    dim_quotient,
    intersect,
    localize,
    maximal_power,
    quotient_length,
    saturate,
)
from epsmult.textio import format_generators

ctx = RingContext(2)  # k[x, y] localized at (x, y)

I = MonomialIdeal(ctx, [(2, 0), (1, 1), (2, 1)])
print("minimal generators drop x^2*y:", format_generators(I))

# intersections are componentwise maxima (lcms) of generators; in two
# variables the kernel merges the two staircases in one pass
X = intersect(MonomialIdeal(ctx, [(4, 0)]), maximal_power(ctx, 7))
print("(x^4) meet m^7 =", format_generators(X))

# saturation removes the maximal-ideal torsion
print("sat(x^2, xy) =", format_generators(saturate(MonomialIdeal(ctx, [(2, 0), (1, 1)]))))
print("colon (x^2,xy) : (x,y) =", format_generators(
    colon(MonomialIdeal(ctx, [(2, 0), (1, 1)]), MonomialIdeal.maximal(ctx))))

# the quotient (x^4) / (x^4 meet m^7) is a finite staircase triangle
print("length (x^4)/(x^4 meet m^7) =", quotient_length(MonomialIdeal(ctx, [(4, 0)]), X))

# colengths count the standard monomials under the staircase
print("colength m^2 =", colength(maximal_power(ctx, 2)))
print("colength (x^2, xy, y^3) =", colength(MonomialIdeal(ctx, [(2, 0), (1, 1), (0, 3)])))
infinite = colength(MonomialIdeal(ctx, [(1, 0)])) is None
print("colength (x) is", "infinite" if infinite else "finite")

# localization deletes coordinates (those variables become units)
print("(x^4) meet m^7 localized at (x):", format_generators(localize(X, [0])))

ctx3 = RingContext(3)
print("dim R/(xy, xz) in 3 variables =", dim_quotient(
    MonomialIdeal(ctx3, [(1, 1, 0), (1, 0, 1)])))

# in three variables a length is a sum over slices x = c, each a two-variable
# staircase count: (x^2)/((x^2) meet m^4) = x^2 (k[x,y,z] / m^2) has length 4
X2 = MonomialIdeal(ctx3, [(2, 0, 0)])
print("length (x^2)/(x^2 meet m^4) in 3 variables =",
      quotient_length(X2, intersect(X2, maximal_power(ctx3, 4))))
