"""The ODE-defined family M_{m,T} and its infinitesimal automorphism.

q_T is the unique formal solution of u q' = tan(q)/(1 + T tan(q)) with
q(0) = 0, q'(0) = 1, solved coefficient by coefficient.  The surface
Im w = Re w tan(q_T(m|z|^2)/m) has a single resonance at k = m+1, and the
holomorphic vector field X = (m/2)(1 - iT) z w^m d/dz + w^{m+1} d/dw is
tangent to it: the defining-function derivative 2 Re(X rho) vanishes
identically along the surface.
"""

from fractions import Fraction

from nfc import char_poly, gen_X, gen_mmt, infinitesimal_defect, jet7, solve_qT

print(__doc__)

T = Fraction(1)
q = solve_qT(T, 8)
print(f"q_T coefficients for T = {T}: {[str(q.coeff(j)) for j in range(q.n + 1)]}")
print("(T = 0 would give arcsin: u q' = tan q is solved by q = arcsin u)\n")

for (m, TT) in ((1, Fraction(1)), (2, Fraction(1)), (3, Fraction(2))):
    M = gen_mmt(m, TT, 11)
    rep = char_poly(jet7(M))
    Xz, Xw = gen_X(m, TT, 11)
    defect = infinitesimal_defect(M, Xz, Xw)
    print(f"M_(m={m}, T={TT}): phi22 = {M.phi.coeff(2, 2, 1)}, "
          f"phi33 = {M.phi.coeff(3, 3, 1)}, resonances = {rep.resonances}, "
          f"X tangent: {defect.is_zero()}")

print("\nThe tangent direction is rigid: scaling only the z-component breaks it.")
m, TT = 2, Fraction(1)
M = gen_mmt(m, TT, 9)
Xz, Xw = gen_X(m, TT, 9)
from nfc.scalar import GaussianRational
bad = infinitesimal_defect(M, Xz * GaussianRational(Fraction(1, 4)), Xw)
print("defect after scaling X_z by 1/4 alone is zero:", bad.is_zero())
