"""The pipeline of one stacky fan, fan -> twisted sectors -> class spaces ->
Xi/Xi* -> restricted functionals -> the PEff cone, as one object.

The Xi stages live in :mod:`stackycones.orbcones`, which this module
imports only when ``xi`` or ``functionals`` is first read (``peff`` reads
``functionals``), so the commands that stop at the class spaces
(``validate``, ``rays``, ``box``, ``sectors``, ``ns``) never load it.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from .boxes import BoxElement, twisted_sectors
from .cones import Cone
from .fan import StackyFan
from .linalg import RatVec
from .neron_severi import AmbientSpaces, build_spaces

if TYPE_CHECKING:
    from .orbcones import XiSystem


class Analysis:
    """The pipeline of one stacky fan.  Each stage is built once, on first
    use, and kept for the lifetime of this object.

    ``peff`` is the cone on the restricted functionals: Mov_1,orb is
    ``peff.dual()`` and the PEff_orb extremal rays are
    ``peff.canonical_generators()``.  The fan must be valid.
    """

    def __init__(self, fan: StackyFan):
        self.fan = fan

    @cached_property
    def sectors(self) -> tuple[BoxElement, ...]:
        return twisted_sectors(self.fan)

    @cached_property
    def spaces(self) -> AmbientSpaces:
        return build_spaces(self.fan, self.sectors)

    @cached_property
    def xi(self) -> XiSystem:
        from .orbcones import build_xi
        return build_xi(self.fan, self.sectors, self.spaces)  # raises unless Xi*.Xi = I

    @cached_property
    def functionals(self) -> tuple[RatVec, ...]:
        from .orbcones import restricted_functionals
        return restricted_functionals(self.spaces, self.xi)

    @cached_property
    def peff(self) -> Cone:
        return Cone(self.spaces.dim_ns_orb, self.functionals)
