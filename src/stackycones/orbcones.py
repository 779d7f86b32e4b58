"""The distinguished dual pair of bases of the orbifold curve/divisor
spaces, orbifold classes of one-parameter subgroups, the movable cone of
curve classes, the pseudo-effective generators, and the verifier that
checks the generator description against the dual of the movable cone.

For each ray rho put bb_rho = c_rho * v_rho.  The basis of V_orb indexed
by eta in {rays} + {twisted sectors} is

    Xi_rho = bb_rho,
    Xi_Y   = v_Y + sum_rho a_rho(Y) * bb_rho,

with dual basis in U_orb

    Xi*_rho = (1/c_rho) u_rho - sum_Y a_rho(Y) u_Y,
    Xi*_Y   = u_Y.

Both bases are sparse: Xi_Y has at most d+1 nonzeros and Xi*_Y exactly
one.  build_xi sets each row from its nonzeros and checks Xi* . Xi = I on
every entry as a sparse product in integers, over each row's nonzeros
cleared of denominators: O(t (d+1)^2) products, not the dense (n+t)^3.

The movable cone is cone{Xi_eta} intersected with the curve space.  Since
{Xi_eta} is a basis, the inequality description of cone{Xi_eta} is exactly
{<Xi*_eta, .> >= 0}, so the intersection is computed by restricting each
Xi*_eta to the curve basis and dualizing in the curve coordinates.  The
same restricted functionals are the pairing vectors of the classes
lambda_orb(Xi*_eta), so the cone on them is the generator description of
PEff_orb and Mov is its dual.  The verifier dualizes the movable cone once
more and checks, by containment in both directions, that the result is the
cone on the lambda_orb(Xi*_eta).  Both sides are double description runs
on the same restricted functionals, so the check confirms the engine's
biduality on each input; it is not an independent route.  Computing Mov by
circuit enumeration (ROADMAP item 1) would give one that shares no engine.

Analysis(fan) holds that chain for one fan, fan -> twisted sectors ->
class spaces -> Xi/Xi* -> restricted functionals -> the PEff cone, and
builds each stage once, on first use.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm
from typing import Optional, Sequence

from .boxes import BoxElement, _locate, _reduce, twisted_sectors
from .cones import Cone
from .fan import NElement, StackyFan
# dot is not called here, but perfbench's tracer test reads orbcones.dot
from .linalg import IntVec, RatVec, dot, unit_vector  # noqa: F401
from .neron_severi import AmbientSpaces, build_spaces, lambda_orb


@dataclass(frozen=True)
class XiSystem:
    """The dual pair of bases, indexed by rays then sectors."""

    labels: tuple[str, ...]
    xi: tuple[RatVec, ...]        # vectors in V_orb
    xi_star: tuple[RatVec, ...]   # vectors in U_orb


@dataclass(frozen=True)
class OnePSClass:
    """Orbifold class of the one-parameter subgroup attached to b in N."""

    b: NElement
    class_vector: RatVec          # in V_orb
    sector: BoxElement            # q(b); may be the untwisted element
    ray_multiplicities: tuple[int, ...]  # floor(a_rho(b)) per ray
    sector_index: Optional[int]   # q(b)'s place among the sectors; None if untwisted

    def decomposition_label(self, labels: Sequence[str]) -> str:
        terms = []
        if self.sector_index is not None:
            terms.append(f"Xi[{labels[len(self.ray_multiplicities) + self.sector_index]}]")
        for i, m in enumerate(self.ray_multiplicities):
            if m:
                terms.append(f"{m}*Xi[{labels[i]}]")
        return " + ".join(terms) if terms else "0"


def build_xi(fan: StackyFan, sectors: Sequence[BoxElement],
             spaces: AmbientSpaces) -> XiSystem:
    """Construct both bases and check the exact dual-basis identity
    Xi* . Xi = I on every entry (see _check_dual_basis); both are square,
    so the identity also proves that Xi is a basis.  Each row is set from
    its nonzeros, in one pass over the sectors' coefficients."""
    n, t = spaces.n, spaces.t
    dim = n + t
    cs = spaces.ray_cs
    xi = [[0] * dim for _ in range(dim)]
    stars = [[0] * dim for _ in cs]
    for i, c in enumerate(cs):
        # Xi_rho = c_rho at rho; Xi*_rho = 1/c_rho at rho, -a_rho(Y) at each Y
        xi[i][i], stars[i][i] = c, Fraction(1, c)
    for j, sector in enumerate(sectors):
        # Xi_Y = a_rho(Y) c_rho on the rays of its cone, and 1 at Y
        xi[n + j][n + j] = 1
        for i, a in sector.coeffs:
            xi[n + j][i] = a * cs[i]
            stars[i][n + j] = -a
    xi = [tuple(v) for v in xi]
    xi_star = [tuple(u) for u in stars] + [unit_vector(dim, n + j) for j in range(t)]
    _check_dual_basis(xi, xi_star)
    return XiSystem(labels=spaces.labels, xi=tuple(xi), xi_star=tuple(xi_star))


def _check_dual_basis(xi: Sequence[RatVec], xi_star: Sequence[RatVec]) -> None:
    """Raise AssertionError unless <xi_star[a], xi[b]> is 1 for a == b and
    0 otherwise, for every pair of the two square lists.

    Every entry is read: each row's nonzeros, found by compress, are cleared
    to integer numerators over one positive denominator (E_a for Xi*_a, D_b
    for Xi_b), and <S_a, X_b> = delta_ab E_a D_b is checked in integers.
    Each Xi_b multiplies only its own nonzeros against those of Xi*, indexed
    by column.  An entry (a, b) that no pair of nonzeros reaches is exactly
    0, so checking the entries reached, plus the diagonal entry (b, b),
    checks the whole identity.  Xi_Y is supported on its sector and the rays
    of its cone, and so is a sector column of Xi*: O(t (d+1)^2) products.
    """
    columns = range(len(xi_star))
    by_column: list[list[tuple[int, int]]] = [[] for _ in columns]
    star_dens = []
    for a, star in enumerate(xi_star):
        nonzeros = list(compress(star, star))
        den = lcm(*[x.denominator for x in nonzeros])
        for k, x in zip(compress(columns, star), nonzeros):
            by_column[k].append((a, x.numerator * (den // x.denominator)))
        star_dens.append(den)
    for b, v in enumerate(xi):
        nonzeros = list(compress(v, v))
        den = lcm(*[x.denominator for x in nonzeros])
        entries = {b: 0}
        for k, x in zip(compress(columns, v), nonzeros):
            x = x.numerator * (den // x.denominator)
            for a, s in by_column[k]:
                entries[a] = entries.get(a, 0) + s * x
        for a, value in entries.items():
            scale = star_dens[a] * den
            if value != (scale if a == b else 0):
                raise AssertionError(
                    f"dual-basis identity fails at ({a}, {b}): "
                    f"<{xi_star[a]}, {v}> = {Fraction(value, scale)} "
                    f"!= {1 if a == b else 0}")


def one_ps_class(fan: StackyFan, sectors: Sequence[BoxElement],
                 spaces: AmbientSpaces, b: NElement) -> OnePSClass:
    """Class vector sum_rho a_rho(b) bb_rho + v_{q(b)} together with its
    decomposition data (floor multiplicities per ray, sector via q)."""
    b = b.reduced(fan.group)
    cone, c, m = _locate(fan, b.free)
    sector = _reduce(fan, b, cone, c, m)
    v = [Fraction(0)] * (spaces.n + spaces.t)
    multiplicities = [0] * spaces.n
    for i, x in zip(cone, c):
        v[i] = Fraction(x * spaces.ray_cs[i], m)
        multiplicities[i] = x // m
    j = None if sector.is_untwisted else sector_index(sectors, sector)
    if j is not None:
        v[spaces.n + j] = Fraction(1)
    return OnePSClass(b=b, class_vector=tuple(v), sector=sector,
                      ray_multiplicities=tuple(multiplicities), sector_index=j)


def sector_index(sectors: Sequence[BoxElement], sector: BoxElement) -> int:
    """Position of a twisted sector in the canonical sector list, by bisection."""
    key = (sector.rig, sector.torsion)
    j = bisect_left(sectors, key, key=lambda s: (s.rig, s.torsion))
    if j < len(sectors) and (sectors[j].rig, sectors[j].torsion) == key:
        return j
    raise KeyError(f"sector {key} missing from the canonical list; "
                   "box enumeration and q disagree")


def restricted_functionals(spaces: AmbientSpaces, xi: XiSystem) -> tuple[RatVec, ...]:
    """Each Xi*_eta restricted to the curve basis: the vector of pairings
    with the basis vectors, rays first then sectors.  These are
    simultaneously the inequality normals of cone{Xi_eta} on the curve space
    and the classes lambda_orb(Xi*_eta) that generate the pseudo-effective
    cone."""
    return tuple([lambda_orb(spaces, star) for star in xi.xi_star])


def mov_cone(spaces: AmbientSpaces, xi: XiSystem) -> Cone:
    """Movable cone of orbifold curve classes, in curve-basis coordinates:
    cone{Xi_eta} cut to the curve space via the Xi* inequality description,
    then dualized."""
    constraints = restricted_functionals(spaces, xi)
    return Cone(spaces.dim_ns_orb, constraints).dual()


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
        return build_xi(self.fan, self.sectors, self.spaces)  # raises unless Xi*.Xi = I

    @cached_property
    def functionals(self) -> tuple[RatVec, ...]:
        return restricted_functionals(self.spaces, self.xi)

    @cached_property
    def peff(self) -> Cone:
        return Cone(self.spaces.dim_ns_orb, self.functionals)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the generator-description check for one stacky fan."""

    fan_name: str
    equal: bool
    labels: tuple[str, ...]
    mov_generators: tuple[IntVec, ...]
    dual_of_mov_generators: tuple[IntVec, ...]
    corollary_classes: tuple[RatVec, ...]
    corollary_generators: tuple[IntVec, ...]
    separating: Optional[tuple[str, IntVec]] = None  # (side, vector)


def verify_duality(fan: StackyFan) -> VerificationReport:
    """Check that the dual of the movable cone equals the cone on the
    predicted pseudo-effective generators, exactly, by containment both ways.

    Mov is the dual of the cone on the restricted functionals; with each dual
    cached this makes three double description runs.  Agreement confirms the
    engine's biduality on this input, not an independent computation.
    """
    analysis = Analysis(fan)
    corollary = analysis.peff
    mov = corollary.dual()
    dual_of_mov = mov.dual()
    # the first generator of either side outside the other; checking
    # dual(Mov)'s side first needs no third DD run when it already fails
    separating = next((("dual_of_mov_only", g) for g in dual_of_mov.generators
                       if not corollary.contains(g)), None)
    if separating is None:
        separating = next((("corollary_only", g) for g in corollary.generators
                           if not dual_of_mov.contains(g)), None)
    return VerificationReport(
        fan_name=fan.name,
        equal=separating is None,
        labels=analysis.spaces.labels,
        mov_generators=mov.generators,
        dual_of_mov_generators=dual_of_mov.generators,
        corollary_classes=analysis.functionals,
        corollary_generators=corollary.canonical_generators(),
        separating=separating,
    )
