"""The two tribranched surface constructions inside an open book.

The three-page construction joins three parallel copies of the page along
the spine: no disc branches and injective branch inclusions, but each block
is a product over the whole page, so a big page means a big block.  The
outer construction instead spreads the pages along a closed-up pants path
and chops the complement with horizontal annuli until every block needs at
most three generators.
"""

from tribranch import (
    MonodromyH1,
    OpenBookSpec,
    PantsPath,
    SurfaceSig,
    check_local_models,
    construct_naive,
    construct_outer,
    euler_audit,
    standard_decomposition,
    validate_spec,
)


def degenerate_spec(g, b):
    page = SurfaceSig(g, b)
    pd = standard_decomposition(page)
    path = PantsPath(start=pd, moves=[], closure={c: c for c in pd.edges})
    return OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page),
                        pants_path=path)


print("=" * 70)
print("Three-page construction on the one-holed torus")
print("=" * 70)
spec = degenerate_spec(1, 1)
tc = construct_naive(spec)
print("  inventory:", tc.inventory())
for branch in tc.branches:
    print(f"    branch {branch.id}: {branch.sig} ({branch.taxonomy})")
for circle in tc.circles:
    print(f"    circle {circle.id} germs: {circle.germs}")
for block in tc.blocks:
    print(f"    block {block.id}: {block.kind} over {block.base}, "
          f"rank bound {block.pi1_rank_bound}")
print("  local models:", check_local_models(tc).summary())

print()
print("=" * 70)
print("Outer construction on the four-holed sphere (single curve)")
print("=" * 70)
spec = degenerate_spec(0, 4)
tc = construct_outer(validate_spec(spec))
print("  inventory:", tc.inventory())
print("  branches by taxonomy:")
for branch in tc.branches:
    print(f"    {branch.id:12s} {str(branch.sig):8s} {branch.taxonomy}")
print("  the curve circle, its push-off circle, and one spine circle:")
for circle in tc.circles[:3]:
    print(f"    {circle.id}: {circle.germs}")
print("  sides (branch -> blocks):")
for branch_id in sorted(tc.sides):
    print(f"    {branch_id:12s} -> {tc.sides[branch_id]}")
audit = euler_audit(tc)
print("  euler audit:", "clean" if audit.ok else audit.report.summary())
print(f"    chi from branches  = {audit.chi_from_branches}")
print(f"    chi from inventory = {audit.chi_from_inventory}")
print(f"    per-level page chi = {audit.per_level_page_chi}")
