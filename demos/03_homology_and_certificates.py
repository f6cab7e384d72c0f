"""Exact homology of open books, rank certificates, and stabilization.

The closed manifold of an open book has first homology presented by the
monodromy action on the page: for directly specified monodromies it is the
cokernel of (action - identity).  The minimal generator count of that group
bounds the rank of the fundamental group from below; the certificate is the
computable side of the rank-four hypothesis.
"""

from tribranch import (
    IntMatrix,
    MonodromyH1,
    OpenBookSpec,
    SurfaceSig,
    cokernel,
    h1_open_book,
    intersection_form,
    invariant_factors,
    min_generators,
    rank_certificate,
    stabilize,
    transvection,
)

print("=" * 70)
print("Invariant factors and cokernels over the integers, exactly")
print("=" * 70)
print("H_1 below is the cokernel of one integer matrix; the cokernel needs")
print("only the invariant factors s_1 | s_2 | ... of that matrix.")
for rows in ([[2, 4], [6, 8]], [[2, 4], [3, 6]]):
    a = IntMatrix.from_rows(rows)
    print("  A =", a.to_json())
    print("    det A:", a.det())
    print("    invariant factors:", invariant_factors(a))
    print("    cokernel of A:", cokernel(a))

print()
print("=" * 70)
print("First homology of open books")
print("=" * 70)
for g, b in [(0, 5), (1, 1), (0, 3)]:
    page = SurfaceSig(g, b)
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page))
    h1 = h1_open_book(spec)
    cert = rank_certificate(spec)
    print(f"  page {page}, identity monodromy: H_1 = {h1}, "
          f"min generators {min_generators(h1)}, {cert.verdict}")

print()
print("A Dehn twist acts on homology by a transvection; products of")
print("transvections are always valid monodromy matrices:")
page = SurfaceSig(1, 1)
j = intersection_form(page)
t = transvection(j, [1, 0])
print("  twist along the first handle curve:", t.to_json())
spec = OpenBookSpec(page=page, monodromy=MonodromyH1(t))
print("  H_1 of the resulting book:", h1_open_book(spec))
print("  certificate:", rank_certificate(spec).statement)

print()
print("=" * 70)
print("Stabilization: plumbing a positive Hopf band")
print("=" * 70)
print("The page gains a handle, the Euler characteristic drops by one, and")
print("the ambient manifold (hence its homology) does not change.  The twist")
print("along the stabilizing curve is parallel to the fresh boundary circle,")
print("so its whole homological content is the winding of that circle.")
disc = OpenBookSpec(page=SurfaceSig(0, 1), monodromy=MonodromyH1.identity(SurfaceSig(0, 1)),
                    name="disc book (the three-sphere)")
print(f"  {disc.name}: H_1 = {h1_open_book(disc)}")
res = stabilize(disc, site=1)
print(f"  stabilized page: {res.spec.page} (the positive Hopf band)")
print(f"  H_1 after: {h1_open_book(res.spec)}")
print("  change of basis:", res.change_of_basis.to_json())

spec = OpenBookSpec(page=SurfaceSig(1, 1), monodromy=MonodromyH1.identity(SurfaceSig(1, 1)))
chain = spec
print("  repeated stabilization of the one-holed torus book:")
for step in range(3):
    h1 = h1_open_book(chain)
    print(f"    page {chain.page}: H_1 = {h1}")
    chain = stabilize(chain, site=1).spec
print(f"    page {chain.page}: H_1 = {h1_open_book(chain)}")
