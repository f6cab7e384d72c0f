"""The four essentiality conditions and their certificates.

A tribranched surface is essential when

  (1) no branch is a disc,
  (2) no component of the surface is contained in a ball,
  (3) for each block, each branch in its closure includes pi_1-injectively
      into the block's compactification, and
  (4) no block's inclusion into the ambient manifold is surjective on the
      fundamental group.

Each condition has its function: :func:`no_disc_branch` (1),
:func:`no_component_in_ball` (2), :func:`pi1_injective` (3) and
:func:`no_block_surjects` (4); :func:`check_essential` runs the four on a
complex whose local models are clean.

Condition (1) is decided outright.  Conditions (2) and (3) are certified
structurally: the built-in constructions produce only incidences whose
injectivity is guaranteed by how the pieces sit in the product and solid
torus blocks, and a connected complex with a page-derived branch of negative
Euler characteristic cannot fit in a ball.  A complex outside this whitelist
is reported NotCertified, never Pass: the checker performs no group theory
and refuses to fabricate any.

Condition (4) combines two facts: every block of the outer construction has
a fundamental group generated by at most three elements, and the rank
certificate establishes rank pi_1(M) >= 4.  An Uncertified rank certificate
makes the condition NotCertified, which means "not established", never
"false".
"""

from __future__ import annotations

from collections import namedtuple

from .complexes import (
    HORIZONTAL_ANNULUS,
    MERGED_PIECE,
    NAIVE_PAGE,
    PAGE_TAXONOMIES,
    PANTS_PIECE,
    PRODUCT_BLOCK,
    PUSHOFF_ANNULUS,
    SOLID_TORUS,
    TORUS_ANNULUS,
    TribranchedComplex,
)
from .errors import TribranchError
from .openbook import CERTIFIED, RankCertificate
from .reports import ValidationReport
from .surfaces import SurfaceSig

PASS = "Pass"
STRUCTURAL_PASS = "StructuralPass"
FAIL = "Fail"
NOT_CERTIFIED = "NotCertified"

ESSENTIAL = "Essential"
NOT_ESTABLISHED = "NotEstablished"

# (branch taxonomy, block kind) pairs whose pi_1-injectivity is guaranteed by
# the constructions: page pieces and climbing/push-off annuli sit as essential
# subsurfaces in the product blocks next to them; torus annuli run in the
# longitude direction of their solid torus and laterally along the products.
PI1_INJECTIVE_WHITELIST = frozenset(
    [
        (NAIVE_PAGE, PRODUCT_BLOCK),
        (PANTS_PIECE, PRODUCT_BLOCK),
        (MERGED_PIECE, PRODUCT_BLOCK),
        (HORIZONTAL_ANNULUS, PRODUCT_BLOCK),
        (PUSHOFF_ANNULUS, PRODUCT_BLOCK),
        (TORUS_ANNULUS, PRODUCT_BLOCK),
        (TORUS_ANNULUS, SOLID_TORUS),
    ]
)

MAX_BLOCK_RANK = 3
DISC = SurfaceSig(0, 1)

CONDITION_NAMES = {
    1: "no branch is a disc",
    2: "no component lies in a ball",
    3: "branch-to-block inclusions are pi_1-injective",
    4: "no block carries the whole fundamental group",
}


class ConditionResult(namedtuple("ConditionResult", "number status witness")):
    """The status of one numbered condition and the witness behind it."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "condition": f"({self.number})",
            "name": CONDITION_NAMES[self.number],
            "status": self.status,
            "witness": self.witness,
        }


class EssentialityReport(namedtuple("EssentialityReport", "conditions notes")):
    """Per-condition statuses and the overall verdict.

    ``conditions`` is the list of :class:`ConditionResult` and ``notes`` a
    list of strings, a fresh one per report when omitted.  The overall
    verdict is Essential exactly when every condition is Pass or
    StructuralPass.
    """

    __slots__ = ()

    def __new__(cls, conditions: list, notes: list = None):
        return tuple.__new__(cls, (conditions, [] if notes is None else notes))

    @property
    def verdict(self) -> str:
        good = all(c.status in (PASS, STRUCTURAL_PASS) for c in self.conditions)
        return ESSENTIAL if good else NOT_ESTABLISHED

    def condition(self, number: int) -> ConditionResult:
        for c in self.conditions:
            if c.number == number:
                return c
        raise KeyError(number)

    def to_json(self) -> dict:
        return {
            "conditions": [c.to_json() for c in self.conditions],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def no_disc_branch(tc: TribranchedComplex) -> ConditionResult:
    """Condition (1), decided outright: no branch is a disc."""
    discs = [b.id for b in tc.branches if b.sig == DISC]
    if discs:
        return ConditionResult(1, FAIL, f"disc branches: {', '.join(sorted(discs))}")
    return ConditionResult(1, PASS, f"none of the {len(tc.branches)} branches is a disc")


def no_component_in_ball(tc: TribranchedComplex) -> ConditionResult:
    """Condition (2), certified structurally by connectivity plus a
    page-derived branch of negative Euler characteristic."""
    if not tc.is_connected():
        return ConditionResult(2, NOT_CERTIFIED, "complex is disconnected")
    anchor = next(
        (
            b.id
            for b in tc.branches
            if b.taxonomy in PAGE_TAXONOMIES and b.sig.euler_char < 0
        ),
        None,
    )
    if anchor is None:
        return ConditionResult(
            2, NOT_CERTIFIED, "no page-derived branch of negative Euler characteristic"
        )
    return ConditionResult(
        2,
        STRUCTURAL_PASS,
        f"complex is connected and contains the page-derived branch "
        f"{anchor} with negative Euler characteristic",
    )


def pi1_injective(tc: TribranchedComplex) -> ConditionResult:
    """Condition (3), certified structurally: every branch-block incidence
    is on :data:`PI1_INJECTIVE_WHITELIST`.

    Raises :class:`TribranchError` on a branch with no side assignment or
    one facing an unknown block, which dirty local models allow.
    """
    kinds = {b.id: b.kind for b in tc.blocks}
    offending = []
    for branch in tc.branches:
        if branch.id not in tc.sides:
            raise TribranchError(f"branch {branch.id} has no block assignment")
        for block_id in tc.sides[branch.id]:
            if block_id not in kinds:
                raise TribranchError(
                    f"branch {branch.id} assigned to unknown block {block_id}")
            if (branch.taxonomy, kinds[block_id]) not in PI1_INJECTIVE_WHITELIST:
                offending.append((branch.id, block_id))
    if offending:
        first = offending[0]
        return ConditionResult(
            3,
            NOT_CERTIFIED,
            f"{len(offending)} incidence(s) outside the certified patterns, "
            f"first: branch {first[0]} in block {first[1]}",
        )
    return ConditionResult(
        3,
        STRUCTURAL_PASS,
        "every branch-block incidence matches a construction-certified "
        "pi_1-injective pattern",
    )


def no_block_surjects(tc: TribranchedComplex, cert: RankCertificate) -> ConditionResult:
    """Condition (4): every block needs at most :data:`MAX_BLOCK_RANK`
    generators and the rank certificate establishes rank pi_1(M) >= 4."""
    oversized = [b.id for b in tc.blocks if b.pi1_rank_bound > MAX_BLOCK_RANK]
    if oversized:
        return ConditionResult(
            4,
            NOT_CERTIFIED,
            "blocks with fundamental group rank bound above "
            f"{MAX_BLOCK_RANK}: {', '.join(sorted(oversized))}",
        )
    if cert.verdict != CERTIFIED:
        return ConditionResult(
            4,
            NOT_CERTIFIED,
            f"rank certificate is {cert.verdict} (lower bound "
            f"{cert.lower_bound} < 4): hypothesis not established, "
            "not asserted false",
        )
    max_rank = max((b.pi1_rank_bound for b in tc.blocks), default=0)
    return ConditionResult(
        4,
        PASS,
        f"every block needs at most {max_rank} <= {MAX_BLOCK_RANK} "
        f"generators while rank pi_1(M) >= {cert.lower_bound} >= 4",
    )


def check_essential(tc: TribranchedComplex, cert: RankCertificate,
                    local: ValidationReport) -> EssentialityReport:
    """Evaluate the four essentiality conditions for a complex.

    ``local`` is :func:`~tribranch.complexes.check_local_models` of ``tc``.
    The conditions require clean local models (three germs per circle and
    consistent incidences), so a dirty report is rejected outright.
    """
    if not local.ok:
        raise TribranchError(f"dirty local models: {local.summary()}")
    in_ball = no_component_in_ball(tc)
    conditions = [no_disc_branch(tc), in_ball, pi1_injective(tc),
                  no_block_surjects(tc, cert)]
    notes = []
    if in_ball.status == STRUCTURAL_PASS:
        notes.append(
            "condition (2) is certified by this tool's structural reading: "
            "a connected complex with a page-derived branch of negative "
            "Euler characteristic cannot fit in a ball"
        )
    if tc.meta.get("degenerate_path_convention_used"):
        notes.append(
            "degenerate path convention used: the curve system sits at a "
            "single level and every curve carries a horizontal annulus"
        )
    s_supports = tc.meta.get("s_move_supports", 0)
    if s_supports:
        notes.append(
            f"{s_supports} one-holed torus support piece(s) occurred "
            "(S-move variant; rank bound 2)"
        )
    return EssentialityReport(conditions=conditions, notes=notes)
