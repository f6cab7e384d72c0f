"""Tribranched surface complexes inside open books.

A tribranched surface is a closed subset of a 3-manifold locally modelled on
a plane or on three half-planes meeting along a line, whose triple locus is a
union of circles.  Its combinatorial avatar here is a
:class:`TribranchedComplex`: the branches (surface pieces, recorded by the
homeomorphism type of their compactification), the branching circles (each
carrying exactly three germs of branch boundary circles), the blocks
(components of the complement) and all incidences.

Two constructions are provided for an open book with page F and monodromy
phi.

``construct_naive``: three parallel copies of the page joined along the
spine, one triple circle per boundary circle of F.  Each branch is a copy of
the page interior, each of the three blocks is a product over the page.

``construct_outer``: the page copies are placed at the levels of a closed-up
pants path (C_0, ..., C_n) connecting a pants decomposition C_0 to its
monodromy image, and the complement is chopped by horizontal annuli: for
each curve shared by C_k and C_{k+1} an annulus climbs from the curve on
page k to its push-off on page k+1.  The boundary tori of the mapping torus
are added as branches, so the spine's solid tori become blocks of their own.
Every block is then a product over a thrice punctured sphere, a four-holed
sphere or a one-holed torus (the support of the move between consecutive
levels), or a solid torus, so no block's fundamental group needs more than
three generators.

Push-off convention: the push-off of a curve sits on the curve's positive
side (endpoint 1 of the edge), disjoint from all decomposition curves and
all other push-offs.  When a curve both receives a push-off and launches an
annulus at the same level, the strip between the curve and its push-off is
its own branch (a push-off annulus).

Degenerate paths: a path with no moves describes a monodromy fixing the
curve system.  The level range of the construction would be empty, so by
convention the system is placed at a single level and every curve is treated
as shared, giving every curve a horizontal annulus.  Reports state when this
convention fired.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import ConstructionError, TribranchError
from .openbook import CheckedSpec, OpenBookSpec
from .paths import common_curves
from .reports import ValidationReport
from .surfaces import SurfaceSig, components, cut_structure

# Branch taxonomy.
HORIZONTAL_ANNULUS = "HorizontalAnnulus"
PUSHOFF_ANNULUS = "PushoffAnnulus"
PANTS_PIECE = "PantsPiece"
MERGED_PIECE = "MergedPiece"
TORUS_ANNULUS = "TorusAnnulus"
NAIVE_PAGE = "NaivePage"

PAGE_TAXONOMIES = (PANTS_PIECE, MERGED_PIECE, NAIVE_PAGE)
ANNULUS_TAXONOMIES = (HORIZONTAL_ANNULUS, PUSHOFF_ANNULUS, TORUS_ANNULUS)

# Block kinds.
PRODUCT_BLOCK = "ProductBlock"
SOLID_TORUS = "SolidTorus"

# The surfaces the outer construction's branches and block bases are made of.
PANTS = SurfaceSig(0, 3)
FOUR_HOLED_SPHERE = SurfaceSig(0, 4)
ONE_HOLED_TORUS = SurfaceSig(1, 1)
ANNULUS = SurfaceSig(0, 2)


class Branch(namedtuple("Branch", "id sig taxonomy slots level refs")):
    """One branch, recorded by the type of its compactification.

    ``sig`` is the compactification's :class:`SurfaceSig` and ``slots`` a
    tuple naming its boundary circles; each slot is matched to exactly one
    germ of exactly one branching circle.  ``level`` is an int or None, and
    ``refs`` a dict of provenance, a fresh one per branch when omitted.
    """

    __slots__ = ()

    def __new__(cls, id: str, sig: SurfaceSig, taxonomy: str, slots: tuple,
                level: int = None, refs: dict = None):
        return tuple.__new__(cls, (id, sig, taxonomy, slots, level,
                                   {} if refs is None else refs))


class BranchingCircle(namedtuple("BranchingCircle", "id germs")):
    """A component of the branching set with its three germs.

    ``germs`` is a tuple of three (branch_id, slot) pairs.
    """

    __slots__ = ()


class Block(namedtuple("Block", "id kind base boundary_label pi1_rank_bound",
                       defaults=(None, None, 0))):
    """A component of the complement of the surface.

    Product blocks are (0,1) x base, with ``base`` a :class:`SurfaceSig`;
    their fundamental group is free of rank 2*genus + boundary - 1 of the
    base.  Solid torus blocks carry a ``boundary_label`` and have rank 1.
    """

    __slots__ = ()


def product_block(block_id: str, base: SurfaceSig) -> Block:
    if base.n_boundary < 1:
        raise TribranchError("product block bases must have boundary")
    return Block(
        id=block_id,
        kind=PRODUCT_BLOCK,
        base=base,
        pi1_rank_bound=2 * base.genus + base.n_boundary - 1,
    )


def solid_torus_block(block_id: str, label: int) -> Block:
    return Block(id=block_id, kind=SOLID_TORUS, boundary_label=label, pi1_rank_bound=1)


class TribranchedComplex(namedtuple("TribranchedComplex",
                                     "branches circles blocks sides meta")):
    """Branches, branching circles, blocks, and their incidences.

    ``branches``, ``circles`` and ``blocks`` are tuples.  ``sides`` is a
    dict assigning each of the two sides of each branch to the block it
    faces: branch id -> (block on side 0, block on side 1).  ``meta`` is a
    dict, a fresh one per complex when omitted.  The complex's JSON form is
    written by :func:`tribranch.schema.complex_json`.
    """

    __slots__ = ()

    def __new__(cls, branches: tuple, circles: tuple, blocks: tuple, sides: dict,
                meta: dict = None):
        return tuple.__new__(cls, (branches, circles, blocks, sides,
                                   {} if meta is None else meta))

    def inventory(self) -> dict:
        """The sizes, the branches per taxonomy and the blocks per kind."""
        taxonomy = Counter(b.taxonomy for b in self.branches)
        kinds = Counter(b.kind for b in self.blocks)
        return {
            "branches": len(self.branches),
            "circles": len(self.circles),
            "blocks": len(self.blocks),
            "branch_taxonomy": dict(sorted(taxonomy.items())),
            "block_kinds": dict(sorted(kinds.items())),
        }

    def is_connected(self) -> bool:
        """Whether branches and circles, joined by the germs, form one piece."""
        nodes = [b.id for b in self.branches] + [c.id for c in self.circles]
        return len(components(nodes, [(c.id, g[0]) for c in self.circles for g in c.germs])) <= 1


# ---------------------------------------------------------------------------
# Naive construction.
# ---------------------------------------------------------------------------


def construct_naive(spec: OpenBookSpec) -> TribranchedComplex:
    """Three page copies joined along the spine.

    Requires a page of nonpositive Euler characteristic (otherwise the page
    copies would be discs).  The result has exactly three branches, each a
    copy of the page, three product blocks over the page, and one branching
    circle per boundary circle of the page, with one germ from each branch.
    """
    page = spec.page
    if page.euler_char > 0:
        raise ConstructionError(
            f"page {page} has euler characteristic {page.euler_char} > 0; "
            "chi(F) <= 0 required"
        )
    if page.n_boundary < 1:
        raise ConstructionError("open book pages need at least one boundary circle")
    b = page.n_boundary
    slots = tuple(f"bd:{label}" for label in range(1, b + 1))
    branches = tuple(
        Branch(
            id=f"page:{i}",
            sig=page,
            taxonomy=NAIVE_PAGE,
            slots=slots,
            level=i,
        )
        for i in range(3)
    )
    circles = tuple(
        BranchingCircle(
            id=f"spine:{label}",
            germs=tuple((f"page:{i}", f"bd:{label}") for i in range(3)),
        )
        for label in range(1, b + 1)
    )
    blocks = tuple(product_block(f"slab:{i}", page) for i in range(3))
    sides = {
        f"page:{i}": (f"slab:{(i - 1) % 3}", f"slab:{i}") for i in range(3)
    }
    return TribranchedComplex(
        branches=branches,
        circles=circles,
        blocks=blocks,
        sides=sides,
        meta={"construction": "naive", "page": page, "levels": 3},
    )


# ---------------------------------------------------------------------------
# Outer construction.
# ---------------------------------------------------------------------------


def construct_outer(checked: CheckedSpec) -> TribranchedComplex:
    """The essential candidate: pages along a pants path plus boundary tori.

    ``checked`` is the result of :func:`validate_spec`; the construction
    builds on the decompositions and the closure vertex map that its path
    check replayed.  See the module docstring for the geometry.  Branch
    taxonomy of the result: horizontal annuli (one per shared curve per
    level), push-off annuli (curve both receives and launches at a level),
    page pieces (thrice punctured spheres, or the four-holed sphere /
    one-holed torus support of a move when it stays uncut), and torus annuli
    (page gaps on the boundary tori).  Blocks: one product block per
    component of the page cut along each shared-curve system, plus one solid
    torus per boundary circle.
    """
    spec = checked.spec
    page = spec.page
    if page.euler_char >= 0:
        raise ConstructionError(
            f"page {page} has euler characteristic {page.euler_char} >= 0; "
            "chi(F) < 0 required"
        )
    if spec.pants_path is None:
        raise ConstructionError("pants data required for outer construction")
    if not checked.report.ok:
        raise ConstructionError(f"invalid spec: {checked.report.summary()}")

    path = spec.pants_path
    decomps = checked.decomps
    b = page.n_boundary
    degenerate = not path.moves
    if degenerate and not spec.degenerate_path_convention:
        raise ConstructionError(
            "path has no moves and the degenerate path convention is "
            "disabled; the construction would have no horizontal pieces"
        )
    pages = decomps[:1] if degenerate else decomps[:-1]
    levels = len(pages)

    # First pass: the curves D_k departing from page k (shared with page
    # k+1, in page k's ids), and the slab between pages k and k+1 chopped by
    # the horizontal annuli over them, one product block per component;
    # ``block_of[k]`` maps each pants of page k to its block.
    dep, blocks, block_of = [], [], []
    for k, pd in enumerate(pages):
        dep.append(frozenset(pd.edges) if degenerate else common_curves(pd, decomps[k + 1]))
        lookup = {}
        for i, comp in enumerate(cut_structure(pd, dep[k])):
            if comp.sig not in (PANTS, FOUR_HOLED_SPHERE, ONE_HOLED_TORUS):
                raise ConstructionError(f"level {k}: unexpected block base {comp.sig}")
            blocks.append(product_block(f"block:{k}:{i}", comp.sig))
            lookup.update(dict.fromkeys(comp.pants, f"block:{k}:{i}"))
        block_of.append(lookup)
    blocks += [solid_torus_block(f"st:{label}", label) for label in range(1, b + 1)]
    # The slab below page k belongs to the previous level; across the wrap
    # the pants correspondence goes through the closure vertex map, which a
    # clean report guarantees.
    to_final = {v: k for k, v in checked.closure_map.items()}
    below = [{p: block_of[-1][to_final[p]] for p in pages[0].pants}] + block_of[:-1]
    # The push-offs arriving at page k departed from page k - 1; across the
    # wrap they arrive at page 0 through the closure.
    arr = [frozenset(path.closure[c] for c in dep[-1])] + dep[:-1]
    inv_closure = {v: k for k, v in path.closure.items()}

    # Second pass: each level's branches, their sides and its branching
    # circles.  ``owner`` maps the provenance of each boundary circle of a
    # page piece to the piece's germ: (branch id, slot name).
    branches, circles, sides, tori = [], [], {}, []
    for k, pd in enumerate(pages):
        pieces = cut_structure(pd, dep[k] | arr[k])
        if sum(p.sig.euler_char for p in pieces) != page.euler_char:
            raise ConstructionError(f"level {k}: cut pieces do not add up to the page")
        owner = {}
        for i, piece in enumerate(pieces):
            allowed = (FOUR_HOLED_SPHERE, ONE_HOLED_TORUS) if piece.glued else (PANTS,)
            if piece.sig not in allowed:
                raise ConstructionError(f"level {k}: unexpected page piece {piece.sig}")
            branch_id = f"piece:{k}:{i}"
            for prov in piece.boundary:
                if prov[0] == "leg":
                    owner[prov] = (branch_id, f"leg:{prov[1]}")
                else:
                    _, curve, end = prov
                    departs = curve in dep[k] and (end == 0 or curve not in arr[k])
                    owner[prov] = (branch_id, f"{'curve' if departs else 'pushoff'}:{curve}:{end}")
            branches.append(Branch(
                id=branch_id,
                sig=piece.sig,
                taxonomy=MERGED_PIECE if piece.glued else PANTS_PIECE,
                slots=tuple(owner[prov][1] for prov in piece.boundary),
                level=k,
                refs={"pants": sorted(piece.pants), "uncut_curves": sorted(piece.glued)},
            ))
            anchor = min(piece.pants)
            sides[branch_id] = (below[k][anchor], block_of[k][anchor])
        for curve in sorted(dep[k] & arr[k]):
            (p0, _), (p1, _) = pd.edges[curve]
            branches.append(Branch(id=f"po:{k}:{curve}", sig=ANNULUS,
                                   taxonomy=PUSHOFF_ANNULUS, slots=("inner", "outer"),
                                   level=k, refs={"curve": curve}))
            sides[f"po:{k}:{curve}"] = (below[k][p0], block_of[k][p1])
        # A departing curve meets the two page pieces along it (or its
        # push-off strip) and the climbing annulus; an arriving push-off meets
        # its page pieces and the annulus arriving from below.
        for curve in sorted(dep[k]):
            (p0, _), (p1, _) = pd.edges[curve]
            branches.append(Branch(id=f"h:{k}:{curve}", sig=ANNULUS,
                                   taxonomy=HORIZONTAL_ANNULUS, slots=("start", "end"),
                                   level=k, refs={"curve": curve}))
            sides[f"h:{k}:{curve}"] = (block_of[k][p0], block_of[k][p1])
            mid = (f"po:{k}:{curve}", "inner") if curve in arr[k] else owner[("cut", curve, 1)]
            circles.append(BranchingCircle(
                id=f"curve:{k}:{curve}",
                germs=(owner[("cut", curve, 0)], mid, (f"h:{k}:{curve}", "start")),
            ))
        for curve in sorted(arr[k]):
            h_id = f"h:{levels - 1}:{inv_closure[curve]}" if k == 0 else f"h:{k - 1}:{curve}"
            mid = (f"po:{k}:{curve}", "outer") if curve in dep[k] else owner[("cut", curve, 0)]
            circles.append(BranchingCircle(
                id=f"pushoff:{k}:{curve}",
                germs=(mid, owner[("cut", curve, 1)], (h_id, "end")),
            ))
        for label in range(1, b + 1):
            tori.append(Branch(id=f"ta:{label}:{k}", sig=ANNULUS,
                               taxonomy=TORUS_ANNULUS, slots=("end0", "end1"),
                               level=k, refs={"boundary_label": label}))
            sides[f"ta:{label}:{k}"] = (block_of[k][pd.legs[label][0]], f"st:{label}")
            circles.append(BranchingCircle(
                id=f"spine:{k}:{label}",
                germs=(
                    owner[("leg", label)],
                    (f"ta:{label}:{(k - 1) % levels}", "end1"),
                    (f"ta:{label}:{k}", "end0"),
                ),
            ))
    branches += sorted(tori, key=lambda br: (br.refs["boundary_label"], br.level))

    n_shared = sum(len(d) for d in dep)
    if len(circles) != 2 * n_shared + levels * b:
        raise ConstructionError("branching circle count differs from the shared curve count")
    meta = {
        "construction": "outer",
        "page": page,
        "levels": levels,
        "degenerate_path_convention_used": degenerate,
        "shared_curve_counts": [len(d) for d in dep],
        "s_move_supports": sum(
            1 for br in branches if br.taxonomy == MERGED_PIECE and br.sig == ONE_HOLED_TORUS
        ) + sum(1 for bl in blocks if bl.base == ONE_HOLED_TORUS),
    }
    return TribranchedComplex(
        branches=tuple(branches),
        circles=tuple(circles),
        blocks=tuple(blocks),
        sides=sides,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def check_local_models(tc: TribranchedComplex) -> ValidationReport:
    """Verify the local structure of a complex.

    Three germs per circle, each germ naming an existing branch boundary
    slot, every slot matched exactly once, and both sides of every branch
    assigned to an existing block.
    """
    report = ValidationReport()
    branch_ids = {b.id: b for b in tc.branches}
    block_ids = {b.id for b in tc.blocks}
    seen_slots = {}
    for circle in tc.circles:
        if len(circle.germs) != 3:
            report.add(
                "germ-count",
                f"circle {circle.id} has {len(circle.germs)} germs (expected 3)",
            )
        for branch_id, slot in circle.germs:
            if branch_id not in branch_ids:
                report.add("germ-branch", f"circle {circle.id} references unknown "
                           f"branch {branch_id}")
                continue
            if slot not in branch_ids[branch_id].slots:
                report.add(
                    "germ-slot",
                    f"circle {circle.id} references unknown slot {slot} of {branch_id}",
                )
                continue
            key = (branch_id, slot)
            if key in seen_slots:
                report.add(
                    "slot-reused",
                    f"slot {slot} of {branch_id} appears in circles "
                    f"{seen_slots[key]} and {circle.id}",
                )
            seen_slots[key] = circle.id
    for branch in tc.branches:
        for slot in branch.slots:
            if (branch.id, slot) not in seen_slots:
                report.add(
                    "slot-unmatched",
                    f"slot {slot} of {branch.id} is not part of any circle",
                )
        if branch.id not in tc.sides:
            report.add("sides-missing", f"branch {branch.id} has no block assignment")
            continue
        assigned = tc.sides[branch.id]
        if len(assigned) != 2:
            report.add(
                "sides-count",
                f"branch {branch.id} has {len(assigned)} side assignments (expected 2)",
            )
        for block_id in assigned:
            if block_id not in block_ids:
                report.add(
                    "sides-block",
                    f"branch {branch.id} assigned to unknown block {block_id}",
                )
    for branch_id in tc.sides:
        if branch_id not in branch_ids:
            report.add("sides-branch", f"side assignment for unknown branch {branch_id}")
    touched = {blk for pair in tc.sides.values() for blk in pair}
    for block in tc.blocks:
        if block.id not in touched:
            report.add("block-isolated", f"block {block.id} meets no branch")
    return report


class EulerAudit(namedtuple("EulerAudit", "chi_from_branches chi_from_inventory "
                                         "per_level_page_chi report")):
    """Consistency audit of Euler characteristics, computed two ways.

    ``chi_from_inventory`` is None when the construction is not a built-in
    one, ``per_level_page_chi`` a dict level -> chi of that level's page
    pieces and ``report`` the :class:`ValidationReport` of the audit.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.report.ok

    def to_json(self) -> dict:
        return {
            "chi_from_branches": self.chi_from_branches,
            "chi_from_inventory": self.chi_from_inventory,
            "per_level_page_chi": {str(k): v for k, v in sorted(self.per_level_page_chi.items())},
            "issues": self.report.to_json(),
        }


def euler_audit(tc: TribranchedComplex) -> EulerAudit:
    """Cross-check Euler characteristics of a constructed complex.

    The complex's characteristic equals the sum over branch
    compactifications: the branching circles are glued along circles, whose
    Euler characteristic is zero, so the gluing correction 2 * (number of
    circles) * chi(S^1) vanishes.  For the built-in constructions the same
    number is recomputed from the page inventory, and the page pieces of
    each level must add up to the page.
    """
    chi_from_branches = sum(b.sig.euler_char for b in tc.branches)
    chi_from_inventory, sums, report = None, {}, ValidationReport()
    for branch in tc.branches:
        if branch.taxonomy in ANNULUS_TAXONOMIES and branch.sig.euler_char != 0:
            report.add(
                "annulus-chi",
                f"{branch.taxonomy} {branch.id} has chi {branch.sig.euler_char} != 0",
            )
    construction = tc.meta.get("construction")
    page = tc.meta.get("page")
    if construction == "naive" and page is not None:
        chi_from_inventory = 3 * page.euler_char
        for branch in tc.branches:
            if branch.sig.euler_char != page.euler_char:
                report.add(
                    "naive-branch-chi",
                    f"branch {branch.id} has chi {branch.sig.euler_char}, "
                    f"page has {page.euler_char}",
                )
    elif construction == "outer" and page is not None:
        levels = tc.meta.get("levels", 0)
        chi_from_inventory = levels * page.euler_char
        sums = {k: 0 for k in range(levels)}
        for branch in tc.branches:
            if branch.taxonomy in (PANTS_PIECE, MERGED_PIECE):
                sums[branch.level] += branch.sig.euler_char
        for k, value in sums.items():
            if value != page.euler_char:
                report.add(
                    "level-chi",
                    f"page pieces at level {k} sum to chi {value}, "
                    f"page has {page.euler_char}",
                )
    if chi_from_inventory is not None and chi_from_inventory != chi_from_branches:
        report.add(
            "chi-mismatch",
            f"branch sum {chi_from_branches} != inventory {chi_from_inventory}",
        )
    return EulerAudit(chi_from_branches, chi_from_inventory, sums, report)
