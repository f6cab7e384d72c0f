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

from dataclasses import dataclass, field

from .errors import ConstructionError, TribranchError
from .openbook import CheckedSpec, OpenBookSpec
from .paths import common_curves
from .reports import ValidationReport
from .surfaces import SurfaceSig, connected, cut_structure

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


@dataclass(frozen=True)
class Branch:
    """One branch, recorded by the type of its compactification.

    ``slots`` names the boundary circles of the compactification; each slot
    is matched to exactly one germ of exactly one branching circle.
    """

    id: str
    sig: SurfaceSig
    taxonomy: str
    slots: tuple
    level: int = None
    refs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "sig": {"genus": self.sig.genus, "boundary": self.sig.n_boundary},
            "taxonomy": self.taxonomy,
            "slots": list(self.slots),
            "level": self.level,
            "refs": {k: self.refs[k] for k in sorted(self.refs)},
        }


@dataclass(frozen=True)
class BranchingCircle:
    """A component of the branching set with its three germs."""

    id: str
    germs: tuple  # three (branch_id, slot) pairs

    def to_json(self) -> dict:
        return {"id": self.id, "germs": [list(g) for g in self.germs]}


@dataclass(frozen=True)
class Block:
    """A component of the complement of the surface.

    Product blocks are (0,1) x base; their fundamental group is free of rank
    2*genus + boundary - 1 of the base.  Solid torus blocks have rank 1.
    """

    id: str
    kind: str
    base: SurfaceSig = None
    boundary_label: int = None
    pi1_rank_bound: int = 0

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "base": None if self.base is None
            else {"genus": self.base.genus, "boundary": self.base.n_boundary},
            "boundary_label": self.boundary_label,
            "pi1_rank_bound": self.pi1_rank_bound,
        }


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


@dataclass(frozen=True)
class TribranchedComplex:
    """Branches, branching circles, blocks, and their incidences.

    ``sides`` assigns each of the two sides of each branch to the block it
    faces: branch id -> (block on side 0, block on side 1).
    """

    branches: tuple
    circles: tuple
    blocks: tuple
    sides: dict
    meta: dict = field(default_factory=dict)

    def branch(self, branch_id: str) -> Branch:
        for b in self.branches:
            if b.id == branch_id:
                return b
        raise KeyError(branch_id)

    def taxonomy_counts(self) -> dict:
        counts = {}
        for b in self.branches:
            counts[b.taxonomy] = counts.get(b.taxonomy, 0) + 1
        return counts

    def block_counts(self) -> dict:
        counts = {}
        for b in self.blocks:
            counts[b.kind] = counts.get(b.kind, 0) + 1
        return counts

    def inventory(self) -> dict:
        return {
            "branches": len(self.branches),
            "circles": len(self.circles),
            "blocks": len(self.blocks),
            "branch_taxonomy": dict(sorted(self.taxonomy_counts().items())),
            "block_kinds": dict(sorted(self.block_counts().items())),
        }

    def is_connected(self) -> bool:
        """Whether branches and circles, joined by the germs, form one piece."""
        nodes = [b.id for b in self.branches] + [c.id for c in self.circles]
        return connected(nodes, [(c.id, g[0]) for c in self.circles for g in c.germs])

    def to_json(self) -> dict:
        return {
            "branches": [b.to_json() for b in self.branches],
            "circles": [c.to_json() for c in self.circles],
            "blocks": [b.to_json() for b in self.blocks],
            "sides": {k: list(self.sides[k]) for k in sorted(self.sides)},
            "meta": _meta_json(self.meta),
            "inventory": self.inventory(),
        }


def _meta_json(meta: dict) -> dict:
    out = {}
    for key in sorted(meta):
        value = meta[key]
        if isinstance(value, SurfaceSig):
            value = {"genus": value.genus, "boundary": value.n_boundary}
        out[key] = value
    return out


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
    n_moves = len(path.moves)
    b = page.n_boundary

    degenerate = n_moves == 0
    if degenerate:
        if not spec.degenerate_path_convention:
            raise ConstructionError(
                "path has no moves and the degenerate path convention is "
                "disabled; the construction would have no horizontal pieces"
            )
        levels = 1
        pages = [decomps[0]]
        d_sets = [frozenset(decomps[0].edges)]
    else:
        levels = n_moves
        pages = decomps[:levels]
        d_sets = [
            frozenset(common_curves(decomps[k], decomps[k + 1]))
            for k in range(levels)
        ]

    closure = dict(path.closure)
    inv_closure = {v: k for k, v in closure.items()}
    # Pants correspondence across the wrap: start pants -> final-level pants.
    # A clean report means the closure extended to this vertex map.
    vmap_start_to_final = {v: k for k, v in checked.closure_map.items()}

    # Departing curves and arriving push-offs per level, in that level's ids.
    dep = [set(d_sets[k]) for k in range(levels)]
    arr = []
    for k in range(levels):
        if k == 0:
            arr.append({closure[c] for c in d_sets[levels - 1]})
        else:
            arr.append(set(d_sets[k - 1]))

    branches = []
    circles = []
    sides = {}
    # (level, curve, end) -> (branch id, slot name) for the page-side germs.
    page_slot_owner = {}
    # (level, leg label) -> (branch id, slot name).
    leg_owner = {}
    piece_branches = []  # (level, CutPiece, branch id)

    for k in range(levels):
        pd = pages[k]
        cut = dep[k] | arr[k]
        pieces = cut_structure(pd, cut)
        if sum(p.sig.euler_char for p in pieces) != page.euler_char:
            raise ConstructionError(f"level {k}: cut pieces do not add up to the page")
        for i, piece in enumerate(pieces):
            merged = bool(piece.glued)
            taxonomy = MERGED_PIECE if merged else PANTS_PIECE
            allowed = (SurfaceSig(0, 4), SurfaceSig(1, 1)) if merged else (SurfaceSig(0, 3),)
            if piece.sig not in allowed:
                raise ConstructionError(f"level {k}: unexpected page piece {piece.sig}")
            branch_id = f"piece:{k}:{i}"
            slots = []
            for prov in piece.boundary:
                if prov[0] == "leg":
                    slot = f"leg:{prov[1]}"
                    leg_owner[(k, prov[1])] = (branch_id, slot)
                else:
                    _, curve, end = prov
                    if curve in dep[k] and curve in arr[k]:
                        kind = "curve" if end == 0 else "pushoff"
                    elif curve in dep[k]:
                        kind = "curve"
                    else:
                        kind = "pushoff"
                    slot = f"{kind}:{curve}:{end}"
                    page_slot_owner[(k, curve, end)] = (branch_id, slot)
                slots.append(slot)
            branches.append(
                Branch(
                    id=branch_id,
                    sig=piece.sig,
                    taxonomy=taxonomy,
                    slots=tuple(slots),
                    level=k,
                    refs={
                        "pants": sorted(piece.pants),
                        "uncut_curves": sorted(piece.glued),
                    },
                )
            )
            piece_branches.append((k, piece, branch_id))
        for curve in sorted(dep[k] & arr[k]):
            branches.append(
                Branch(
                    id=f"po:{k}:{curve}",
                    sig=SurfaceSig(0, 2),
                    taxonomy=PUSHOFF_ANNULUS,
                    slots=("inner", "outer"),
                    level=k,
                    refs={"curve": curve},
                )
            )
        for curve in sorted(dep[k]):
            branches.append(
                Branch(
                    id=f"h:{k}:{curve}",
                    sig=SurfaceSig(0, 2),
                    taxonomy=HORIZONTAL_ANNULUS,
                    slots=("start", "end"),
                    level=k,
                    refs={"curve": curve},
                )
            )
    for label in range(1, b + 1):
        for k in range(levels):
            branches.append(
                Branch(
                    id=f"ta:{label}:{k}",
                    sig=SurfaceSig(0, 2),
                    taxonomy=TORUS_ANNULUS,
                    slots=("end0", "end1"),
                    level=k,
                    refs={"boundary_label": label},
                )
            )

    # Branching circles.  A departing curve meets the two page pieces along
    # it (or its push-off strip) and the climbing annulus; an arriving
    # push-off meets its page pieces and the annulus arriving from below.
    for k in range(levels):
        for curve in sorted(dep[k]):
            end0 = page_slot_owner[(k, curve, 0)]
            if curve in arr[k]:
                mid = (f"po:{k}:{curve}", "inner")
            else:
                mid = page_slot_owner[(k, curve, 1)]
            circles.append(
                BranchingCircle(
                    id=f"curve:{k}:{curve}",
                    germs=(end0, mid, (f"h:{k}:{curve}", "start")),
                )
            )
        for curve in sorted(arr[k]):
            if k == 0:
                h_id = f"h:{levels - 1}:{inv_closure[curve]}"
            else:
                h_id = f"h:{k - 1}:{curve}"
            end1 = page_slot_owner[(k, curve, 1)]
            if curve in dep[k]:
                mid = (f"po:{k}:{curve}", "outer")
            else:
                mid = page_slot_owner[(k, curve, 0)]
            circles.append(
                BranchingCircle(
                    id=f"pushoff:{k}:{curve}",
                    germs=(mid, end1, (h_id, "end")),
                )
            )
        for label in range(1, b + 1):
            circles.append(
                BranchingCircle(
                    id=f"spine:{k}:{label}",
                    germs=(
                        leg_owner[(k, label)],
                        (f"ta:{label}:{(k - 1) % levels}", "end1"),
                        (f"ta:{label}:{k}", "end0"),
                    ),
                )
            )

    # Blocks: the slab between pages k and k+1 is chopped by the horizontal
    # annuli over the shared curves D_k, one product block per component.
    blocks = []
    block_of_pants = []
    for k in range(levels):
        comps = cut_structure(pages[k], dep[k])
        lookup = {}
        for i, comp in enumerate(comps):
            base = comp.sig
            if base not in (SurfaceSig(0, 3), SurfaceSig(0, 4), SurfaceSig(1, 1)):
                raise ConstructionError(f"level {k}: unexpected block base {base}")
            block_id = f"block:{k}:{i}"
            blocks.append(product_block(block_id, base))
            for pants_id in comp.pants:
                lookup[pants_id] = block_id
        block_of_pants.append(lookup)
    for label in range(1, b + 1):
        blocks.append(solid_torus_block(f"st:{label}", label))

    def below_lookup(k: int, pants_id: str) -> str:
        # The slab below page k is indexed by the previous level; across the
        # wrap the pants correspondence goes through the closure.
        if k == 0:
            return block_of_pants[levels - 1][vmap_start_to_final[pants_id]]
        return block_of_pants[k - 1][pants_id]

    for k, piece, branch_id in piece_branches:
        anchor = min(piece.pants)
        sides[branch_id] = (below_lookup(k, anchor), block_of_pants[k][anchor])
    for k in range(levels):
        pd = pages[k]
        for curve in sorted(dep[k] & arr[k]):
            (p0, _), (p1, _) = pd.edges[curve]
            sides[f"po:{k}:{curve}"] = (
                below_lookup(k, p0),
                block_of_pants[k][p1],
            )
        for curve in sorted(dep[k]):
            (p0, _), (p1, _) = pd.edges[curve]
            sides[f"h:{k}:{curve}"] = (
                block_of_pants[k][p0],
                block_of_pants[k][p1],
            )
        for label in range(1, b + 1):
            leg_pants = pd.legs[label][0]
            sides[f"ta:{label}:{k}"] = (
                block_of_pants[k][leg_pants],
                f"st:{label}",
            )

    n_shared = sum(len(d) for d in d_sets)
    if len(circles) != 2 * n_shared + levels * b:
        raise ConstructionError("branching circle count differs from the shared curve count")
    meta = {
        "construction": "outer",
        "page": page,
        "levels": levels,
        "degenerate_path_convention_used": degenerate,
        "shared_curve_counts": [len(d_sets[k]) for k in range(levels)],
        "s_move_supports": sum(
            1 for br in branches if br.taxonomy == MERGED_PIECE and br.sig == SurfaceSig(1, 1)
        ) + sum(1 for bl in blocks if bl.base == SurfaceSig(1, 1)),
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


@dataclass
class EulerAudit:
    """Consistency audit of Euler characteristics, computed two ways."""

    chi_from_branches: int
    chi_from_inventory: int = None
    per_level_page_chi: dict = field(default_factory=dict)
    report: ValidationReport = field(default_factory=ValidationReport)

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
    audit = EulerAudit(
        chi_from_branches=sum(b.sig.euler_char for b in tc.branches)
    )
    for branch in tc.branches:
        if branch.taxonomy in ANNULUS_TAXONOMIES and branch.sig.euler_char != 0:
            audit.report.add(
                "annulus-chi",
                f"{branch.taxonomy} {branch.id} has chi {branch.sig.euler_char} != 0",
            )
    construction = tc.meta.get("construction")
    page = tc.meta.get("page")
    if construction == "naive" and page is not None:
        audit.chi_from_inventory = 3 * page.euler_char
        for branch in tc.branches:
            if branch.sig.euler_char != page.euler_char:
                audit.report.add(
                    "naive-branch-chi",
                    f"branch {branch.id} has chi {branch.sig.euler_char}, "
                    f"page has {page.euler_char}",
                )
    elif construction == "outer" and page is not None:
        levels = tc.meta.get("levels", 0)
        audit.chi_from_inventory = levels * page.euler_char
        sums = {k: 0 for k in range(levels)}
        for branch in tc.branches:
            if branch.taxonomy in (PANTS_PIECE, MERGED_PIECE):
                sums[branch.level] += branch.sig.euler_char
        audit.per_level_page_chi = sums
        for k, value in sums.items():
            if value != page.euler_char:
                audit.report.add(
                    "level-chi",
                    f"page pieces at level {k} sum to chi {value}, "
                    f"page has {page.euler_char}",
                )
    if audit.chi_from_inventory is not None:
        if audit.chi_from_inventory != audit.chi_from_branches:
            audit.report.add(
                "chi-mismatch",
                f"branch sum {audit.chi_from_branches} != inventory "
                f"{audit.chi_from_inventory}",
            )
    return audit
