"""Special-curve coordinate rings: presentations, verified bases, the
branchwise embedding, Krichever windows, and transversal gluing.

A special curve (n, S, a) has n branches joined at one point; branches in S
carry the cusp generators f_i, h_i, the others the linear generators
h_{S,j}.  All claims are checked by exact rank computations.
"""

from curvealg.curves import (SpecialCurveData, branch_model, component_type,
                             glue, grassmannian_point, krichever_window,
                             special_curve_algebra, verify_basis)

d = SpecialCurveData(2, [1], {(1, 2): 2})
pres = special_curve_algebra(d)
print("relations for n=2, S={1}, a_{12}=2:")
for r in pres.system.relations:
    print("  ", r, "= 0")
print("closure check:", pres.system.closure_check(12).to_json()["verdict"])
print("basis verified to degree 12:", bool(verify_basis(d, 12)))
print("component 1 is", component_type(d, 1))
print("Grassmannian point rows:", grassmannian_point(d).to_json()["rows"])

win = krichever_window(d, 8)
print("\nKrichever window at depth 8:")
print("  intersection with the nonnegative part is constants:",
      win.verdicts["intersection_is_constants"])
print("  codimension of W + H_{>=0}:", win.codim, "(= g)")
print("  W + t^{-1}k[[t]] fills the window:",
      win.verdicts["complement_condition"])

# gluing two cuspidal curves at smooth points gives genus 2
cusp = branch_model(SpecialCurveData(1, [1]), 10)
glued, report = glue(cusp, (0, 1), cusp, (0, 1))
print("\nglued two cuspidal curves at x=1:")
print("  branches:", report["branches"], " genus:", report["genus"],
      " additive:", report["additive"])
