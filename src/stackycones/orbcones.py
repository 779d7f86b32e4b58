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
one.  XiSystem keeps each row as integers: one positive denominator and
the (column, numerator) pairs of its nonzeros.  build_xi fills the rows
from the sectors' coefficients with no Fraction arithmetic and checks
Xi* . Xi = I on every entry as a sparse product of these rows:
O(t (d+1)^2) integer products, not the dense (n+t)^3.  The dense rational
rows are views, built when first read (by the CLI's xi output and by the
restricted functionals).

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
circuit enumeration (ROADMAP item 3, route B) would give one that shares no
engine.

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

from .boxes import BoxElement, _box_point, _locate, twisted_sectors
from .cones import Cone
from .fan import NElement, StackyFan
# dot is not called here, but perfbench's tracer test reads orbcones.dot
from .linalg import IntVec, RatVec, dot, unit_vector  # noqa: F401
from .neron_severi import AmbientSpaces, build_spaces, lambda_orb


# One row of Xi or Xi*: a positive denominator and the (column, integer
# numerator) pairs of the row's nonzero entries.
IntRow = tuple[int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class XiSystem:
    """The dual pair of bases, indexed by rays then sectors, as integer rows.

    ``xi`` (vectors in V_orb) and ``xi_star`` (in U_orb) are the same rows
    as dense rational vectors, each built on first read and kept: the CLI's
    ``xi`` output reads both, the restricted functionals read ``xi_star``."""

    xi_rows: tuple[IntRow, ...]
    star_rows: tuple[IntRow, ...]

    @cached_property
    def xi(self) -> tuple[RatVec, ...]:
        return _rational_rows(self.xi_rows)

    @cached_property
    def xi_star(self) -> tuple[RatVec, ...]:
        return _rational_rows(self.star_rows)


def _rational_rows(rows: Sequence[IntRow]) -> tuple[RatVec, ...]:
    dense = [[0] * len(rows) for _ in rows]
    for v, (den, nonzeros) in zip(dense, rows):
        for k, x in nonzeros:
            v[k] = Fraction(x, den)
    return tuple(map(tuple, dense))


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
    """Construct both bases as integer rows and check the exact dual-basis
    identity Xi* . Xi = I on every entry (see _check_dual_basis); both are
    square, so the identity also proves that Xi is a basis.  Each row is set
    from its nonzeros in one pass over the sectors' coefficients, over the
    lcm of their denominators: no Fraction is built here."""
    n, t = spaces.n, spaces.t
    columns = range(n + t)
    cs = spaces.ray_cs
    # Xi_rho = c_rho at rho; Xi*_rho = 1/c_rho at rho, -a_rho(Y) at each Y,
    # kept as (column, numerator, denominator) until its row is cleared
    xi_rows = [(1, ((i, c),)) for i, c in enumerate(cs)]
    star_entries = [[(i, 1, c)] for i, c in enumerate(cs)]
    sector_stars = []
    for y, sector in enumerate(sectors, n):
        # Xi_Y = a_rho(Y) c_rho on the rays of its cone, and 1 at Y
        den = 1
        for _, a in sector.coeffs:
            den = lcm(den, a.denominator)
        row = []
        for i, a in sector.coeffs:
            p, q = a.numerator, a.denominator
            row.append((i, p * (den // q) * cs[i]))
            star_entries[i].append((y, -p, q))
        row.append((y, den))
        xi_rows.append((den, tuple(row)))
        # Xi*_Y = u_Y
        u = unit_vector(n + t, y)
        sector_stars.append((1, tuple([(k, u[k]) for k in compress(columns, u)])))
    star_rows = []
    for entries in star_entries:
        den = lcm(*[q for _, _, q in entries])
        star_rows.append((den, tuple([(k, p * (den // q)) for k, p, q in entries])))
    star_rows += sector_stars
    _check_dual_basis(xi_rows, star_rows)
    return XiSystem(xi_rows=tuple(xi_rows), star_rows=tuple(star_rows))


def _check_dual_basis(xi: Sequence[IntRow], xi_star: Sequence[IntRow]) -> None:
    """Raise AssertionError unless <xi_star[a], xi[b]> is 1 for a == b and
    0 otherwise, for every pair of the two square lists of integer rows.

    With E_a the denominator of Xi*_a and D_b that of Xi_b, the identity
    reads <S_a, X_b> = delta_ab E_a D_b on their integer numerators.  Each
    Xi_b multiplies only its own nonzeros against those of Xi*, indexed by
    column, with the diagonal entry (b, b) started at -E_b D_b, so every
    entry reached must end at 0.  An entry that no pair of nonzeros reaches
    is exactly 0, and the diagonal is always visited, so this checks the
    whole identity.  Xi_Y is supported on its sector and the rays of its
    cone, and so is a sector column of Xi*: O(t (d+1)^2) products.
    """
    by_column: list[list[tuple[int, int]]] = [[] for _ in xi_star]
    for a, (_, nonzeros) in enumerate(xi_star):
        for k, s in nonzeros:
            by_column[k].append((a, s))
    for b, (den, nonzeros) in enumerate(xi):
        entries = {b: -xi_star[b][0] * den}
        for k, x in nonzeros:
            for a, s in by_column[k]:
                entries[a] = entries.get(a, 0) + s * x
        if any(entries.values()):
            a = next(a for a, value in entries.items() if value)
            delta = 1 if a == b else 0
            raise AssertionError(
                f"dual-basis identity fails at ({a}, {b}): <{xi_star[a]}, {xi[b]}> = "
                f"{Fraction(entries[a], xi_star[a][0] * den) + delta} != {delta}")


def one_ps_class(fan: StackyFan, sectors: Sequence[BoxElement],
                 spaces: AmbientSpaces, b: NElement) -> OnePSClass:
    """Class vector sum_rho a_rho(b) bb_rho + v_{q(b)} together with its
    decomposition data (floor multiplicities per ray, sector via q).

    One chart of a maximal cone containing b (boxes._locate) gives b's chart
    coordinates c, and one pass over them gives, per ray of that cone, the
    residue c mod m (q(b)'s box point is B r / m), the floor multiplicity
    c // m and the class entry a_rho(b) c_rho = c c_rho / m.  That entry is
    the only Fraction built; the zero entries are int 0 and the sector entry
    int 1, as in the rows of Xi.  A twisted q(b) is the element of
    ``sectors`` itself, found by sector_index; only the untwisted sector is
    built here."""
    b = b.reduced(fan.group)
    cone, c, m = _locate(fan, b.free)
    cs, n = spaces.ray_cs, spaces.n
    v: list = [0] * (n + spaces.t)
    multiplicities, r = [0] * n, []
    for i, x in zip(cone, c):
        floor, residue = divmod(x, m)
        r.append(residue)
        if x:
            v[i] = Fraction(x * cs[i], m)
            multiplicities[i] = floor
    sector, j = BoxElement(_box_point(fan, cone, r, m), b.torsion, ()), None
    if not sector.is_untwisted:
        j = sector_index(sectors, sector)
        sector = sectors[j]
        v[n + j] = 1
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
