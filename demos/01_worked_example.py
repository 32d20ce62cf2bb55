"""Walk through the fully worked four-generator example (8, 12, 26, 53).

The surface attached to this semigroup has a rational homology sphere link
but not an integral one; its resolution graph contains a superfluous -1
curve that the contraction pass removes.
"""

from branchlink import (
    assemble_full_resolution,
    build_intersection_matrix,
    classify_link,
    compute_qresolution,
    derive_from_generators,
    det_S,
    det_exact,
    h1_link,
    minimize,
    monomial_curve_equations,
    pullback_on_full_resolution,
    rupture_census,
    strict_self_intersection,
)

cd = derive_from_generators((8, 12, 26, 53))
print("generators      :", cd.beta)
print("gcd chain e     :", cd.e)
print("exponents n     :", cd.n)
print("curve equations :")
for eq in monomial_curve_equations(cd):
    print("   ", eq, "= 0")

qr = compute_qresolution(cd)
print("\ncomponent counts r :", qr.r)
print("multiplicities N   :", qr.N[1:])
print("singular points    :")
for pt in qr.census:
    kind = "smooth" if pt.is_smooth else f"1/{pt.hj.d}(1,{pt.hj.q})"
    print(f"    {pt.kind:<4} x{pt.total}  {kind}")
print("self-intersections :", [f"-{a}" for a in qr.a[1:]])

matrix = build_intersection_matrix(qr)
print("\nintersection matrix determinant :", det_exact(matrix))
print("surface determinant det(S)      :", det_S(cd, qr))
print("link class                      :", classify_link(cd).kind.value)

pg = assemble_full_resolution(qr)
print("\nfull resolution:", pg.n, "curves; strict transforms at",
      [strict_self_intersection(qr, k) for k in range(1, cd.g)])
mult = pullback_on_full_resolution(pg, qr)
print("pull-back multiplicities:",
      sorted(zip(pg.labels, mult)))
print("H1 of the link:", h1_link(pg))

rc = rupture_census(qr)
print("\nrupture curves:", rc.rupture_count,
      "| last curve contractible:", rc.e_last_contractible)
reduced, contracted = minimize(pg)
print("contraction pass removed", contracted, "->", reduced.n, "curves")
