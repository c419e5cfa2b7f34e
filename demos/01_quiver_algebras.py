"""Build the finite-dimensional graded algebras attached to subspaces
W of Q^n and inspect their structure.

The algebra of W has one idempotent per quiver vertex, arrows A_i (degree 0)
and B_i (degree 1), loops l_i = A_i B_i at the outer vertices, and g
independent loop classes at the hub coming from Q^n / W.  Its dimension is
always 4n + g + 1.
"""

from curvealg.quiver import SubspaceW, build_ew, gm_rescale

# the one-point, genus-one algebra: W = 0 inside Q^1
E = build_ew(SubspaceW.zero(1))
print("cuspidal algebra:", E)
print("  basis:", E.labels)
print("  graded dims:", E.graded_dims())
print("  B1 * A1 =", {E.labels[k]: str(c) for k, c in
                      E.mul_basis(E.b_idx[0], E.a_idx[0]).items()})

# two points, W spanned by e1 + e2: the loops B1 A1 and B2 A2 become
# opposite classes in Q^2 / W
E2 = build_ew(SubspaceW(2, [[1, 1]]))
print("\ntwo-point algebra:", E2)
for i in range(2):
    prod = E2.mul_basis(E2.b_idx[i], E2.a_idx[i])
    print("  B%d * A%d =" % (i + 1, i + 1),
          {E2.labels[k]: str(c) for k, c in prod.items()})

# radical cubed vanishes: any three non-idempotent basis elements multiply
# to zero
triple = E2.mul(E2.mul_basis(E2.a_idx[0], E2.b_idx[0]),
                {E2.a_idx[0]: 1})
print("  (A1 B1) * A1 =", triple, "(radical^3 = 0)")

# the torus rescaling B_i -> lambda_i B_i is an isomorphism onto the algebra
# of the componentwise-rescaled subspace
iso = gm_rescale(E2, [2, 1])
print("\nrescaling by (2, 1):")
print("  target W rows:", iso.target.w.to_json()["rows"])
print("  intertwines the products:", iso.intertwines())
