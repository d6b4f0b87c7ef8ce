"""A complete verification problem: graded cohomology, special pair,
cobordism map, grading-convention flag, and optional chain-level data.

Instances are always stored internally in the cohomology convention;
``convention`` records how the source document was graded so reports can
show the user's numbers.  ``relabel`` is the one place that convention is
applied, at the document and report boundary.  ``chain_instance`` is the
one path from chain-level data to an instance, for loader and generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import NotAChainMap, ValidationError
from .froyshov import ChainSpecial, SpecialPair, induce_special
from .graded import CochainComplex, GradedMap, GradedSpace, cohomology, induced_map, regrade

HOMOLOGY = "homology"
COHOMOLOGY = "cohomology"
LEVEL_COHOMOLOGY = "cohomology-level"
LEVEL_CHAIN = "chain-level"


def relabel(x, convention: str):
    """A space or map between the internal grading and ``convention``.

    Homology relabels degrees with ``regrade``, an involution, so the same
    call serves loading and writing; cohomology is the internal grading.
    """
    return regrade(x) if convention == HOMOLOGY else x


@dataclass(frozen=True)
class Instance:
    space: GradedSpace
    pair: SpecialPair
    w: GradedMap
    w_label: str = "W"
    convention: str = COHOMOLOGY
    level: str = LEVEL_COHOMOLOGY
    complex: CochainComplex | None = None
    chain_special: ChainSpecial | None = None
    chain_w: GradedMap | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.convention not in (HOMOLOGY, COHOMOLOGY):
            raise ValidationError(f"unknown convention {self.convention!r}")
        if self.level not in (LEVEL_COHOMOLOGY, LEVEL_CHAIN):
            raise ValidationError(f"unknown level {self.level!r}")
        if self.w.shift != 0 or self.w.source != self.space or self.w.target != self.space:
            raise ValidationError("cobordism map must be a degree-preserving endomap")
        self.pair.validate_against(self.space)
        if self.level == LEVEL_CHAIN and (
            self.complex is None or self.chain_special is None or self.chain_w is None
        ):
            raise ValidationError(
                "chain-level instance needs its complex, special data and chain map"
            )

    @property
    def name(self) -> str:
        return str(self.metadata.get("name", "unnamed"))


def chain_instance(
    cx: CochainComplex, cs: ChainSpecial, chain_w: GradedMap, n_max: int,
    w_label: str = "W", convention: str = COHOMOLOGY, metadata: Mapping[str, Any] | None = None,
) -> Instance:
    """The instance chain-level data determines: the cohomology of ``cx``
    and the families and the map W induced on it, each computed once."""
    coh = cohomology(cx)
    pair = induce_special(cs, coh, n_max)
    try:
        w = induced_map(chain_w, coh, coh)
    except NotAChainMap:
        raise NotAChainMap("W does not commute with the differentials") from None
    return Instance(
        coh.h_space, pair, w, w_label, convention, LEVEL_CHAIN,
        complex=cx, chain_special=cs, chain_w=chain_w, metadata=metadata or {},
    )
