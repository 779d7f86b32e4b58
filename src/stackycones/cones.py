"""Finitely generated convex polyhedral cones over exact rationals.

A :class:`Cone` is stored by its generators (primitive integer vectors,
deduplicated).  The inequality description is obtained by an incremental
double description run: the generators of C are inserted one at a time as
half-space constraints on the dual side, while the dual-side description
keeps an explicit lineality basis plus extreme rays modulo that lineality.
The run is integer-only: every vector is made primitive by the combination
step that the package's one Gauss-Jordan elimination also uses
(``linalg._combination``), and the canonical forms at the end come from that
elimination (``linalg._echelon``) of the loop's final lineality basis, so no
``Fraction`` is built.  Outputs are canonical (primitive, sorted generators),
stable across runs and usable in golden files.

Every run goes through ``_dual_generators``, from :meth:`Cone.dual` or on
rows a caller has made primitive (``fan.validate``'s pair intersections and
chart-less cones, which build no ``Cone``); its output is not normalized again.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .linalg import (
    Number,
    IntVec,
    _combination,
    _echelon,
    canonical_line_direction,
    dot,
    primitive_direction,
    unit_vector,
    vneg,
)

# a DD run refuses more distinct constraints than this: 48,480 go in at about
# 200 a second; the largest test or benchmark input has 196
DD_CONSTRAINT_LIMIT = 10 ** 4


class EnumerationLimitError(ValueError):
    """Past a size limit: boxes.ENUMERATION_LIMIT box elements, counted cone by
    cone, neron_severi.CLASS_SPACE_LIMIT class-space coordinates, or
    DD_CONSTRAINT_LIMIT distinct constraints of one DD run."""


def _dedup_primitive(dim: int, vectors: Sequence[Sequence[Number]]) -> tuple[IntVec, ...]:
    out: list[IntVec] = []
    seen: set[IntVec] = set()
    for v in vectors:
        if len(v) != dim:
            raise ValueError(f"expected vectors of length {dim}, got {len(v)}")
        if not any(v):
            continue
        w = primitive_direction(v)
        if w not in seen:
            seen.add(w)
            out.append(w)
    return tuple(out)


def _halfspace_description(dim: int, constraints: Sequence[IntVec]
                           ) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Extreme description of P = {x : <a, x> >= 0 for all a in constraints}.

    Returns (lineality basis, extreme rays modulo the lineality), both in
    canonical form.  Incremental double description: the description starts
    as the whole space (lineality = standard basis, no rays) and each
    constraint takes one pass.  While the lineality meets a constraint
    non-trivially the pass trades one lineality vector v0 for a ray; after
    that it splits the rays with a combinatorial adjacency test.  Each ray
    carries a bitmask of the inserted constraints tight at it.  Every new
    vector is some s v - t w of primitive integer vectors, made primitive by
    one gcd (linalg._combination).

    No step deduplicates: after each constraint the ray list holds exactly
    the extreme rays modulo the lineality, one primitive vector each.  A
    trade maps the old rays one-to-one onto the constraint's hyperplane and
    adds v0 off it; a split adds one ray per adjacent pair, and on a pointed
    cone the combinatorial test is exact, so distinct edges give distinct
    rays; reduction modulo the final lineality is one-to-one on rays outside it.

    The final lineality vectors span the kernel of the constraints, whose
    canonical basis ``linalg._echelon`` reads off them (``kernel_basis`` runs
    it on the constraints, with the same result): one vector per free column
    j, last nonzero at j and zero at the other free columns, primitive with
    first nonzero coordinate positive, sorted.  With no constraints it is the
    standard basis in index order.  Each ray is then reduced modulo the
    lineality (see _reduce_mod_lineality).  Raises EnumerationLimitError past
    DD_CONSTRAINT_LIMIT distinct constraints.
    """
    constraints = sorted(set(constraints))
    if len(constraints) > DD_CONSTRAINT_LIMIT:
        raise EnumerationLimitError(
            f"cone too large to dualize: {len(constraints)} distinct constraints "
            f"(limit {DD_CONSTRAINT_LIMIT})")
    lin: list[IntVec] = [unit_vector(dim, i) for i in range(dim)]
    if not constraints:
        return tuple(lin), ()
    mul = operator.mul
    rays: list[tuple[IntVec, int]] = []
    for k, a in enumerate(constraints):
        bit = 1 << k
        svals = [sum(map(mul, a, v)) for v in lin]
        hit = next((i for i, s in enumerate(svals) if s != 0), None)
        if hit is not None:
            v0 = lin[hit] if svals[hit] > 0 else vneg(lin[hit])
            s0 = abs(svals[hit])
            lin = [_combination(s0, w, s, v0) if s else w
                   for i, (w, s) in enumerate(zip(lin, svals)) if i != hit]
            rays = [(_combination(s0, r, s, v0) if (s := sum(map(mul, a, r))) else r,
                     mask | bit) for r, mask in rays]
            rays.append((v0, bit - 1))
            continue
        pos, neg, kept = [], [], []
        for r, mask in rays:
            s = sum(map(mul, a, r))
            if s > 0:
                pos.append((r, mask, s))
                kept.append((r, mask))
            elif s < 0:
                neg.append((r, mask, s))
            else:
                kept.append((r, mask | bit))
        need = dim - len(lin) - 2
        masks_all = [mask for _, mask in rays]
        for p, mp, sp in pos:
            for m, mm, sm in neg:
                z = mp & mm
                if z.bit_count() < need:
                    continue
                # adjacency: no third ray is tight wherever both p and m are
                if any(om & z == z and om != mp and om != mm
                       for om in masks_all):
                    continue
                kept.append((_combination(sp, m, sm, p), z | bit))
        rays = kept
    basis = tuple(sorted([canonical_line_direction(row)
                          for _, row in _echelon(lin, range(dim - 1, -1, -1))]))
    return basis, tuple(sorted(_reduce_mod_lineality([r for r, _ in rays], basis)))


def _reduce_mod_lineality(rays: Sequence[IntVec],
                          lineality: Sequence[IntVec]) -> list[IntVec]:
    # Canonical ray representative modulo the lineality space: zero out the
    # coordinates at the pivot columns of the lineality's echelon form.  The
    # rays are primitive and lie outside the lineality, so every step keeps
    # a nonzero primitive vector on the same ray as the rational reduction.
    if not lineality or not rays:
        return list(rays)
    echelon = _echelon(lineality, range(len(lineality[0])))
    out = []
    for r in rays:
        for p, row in echelon:
            if r[p]:
                r = _combination(row[p], r, r[p], row)
        out.append(r)
    return out


def _dual_generators(dim: int, constraints: Sequence[IntVec]) -> tuple[IntVec, ...]:
    """Canonical generators of {x : <a, x> >= 0 for all a in constraints}:
    the reduced extreme rays and +/- the canonical lineality basis, sorted.
    They are distinct with no set: each reduced ray is zero at the forward
    pivot columns of the lineality, each lineality vector is not, and the
    canonical basis vectors and their negatives are all distinct.  The
    constraints must be primitive integer tuples: only repeats are dropped."""
    lineality, rays = _halfspace_description(dim, constraints)
    return tuple(sorted([*rays, *lineality, *map(vneg, lineality)]))


class Cone:
    """A finitely generated convex cone = {sum c_i g_i : c_i >= 0}.

    Generators are stored as primitive integer vectors in first-seen order;
    redundant (non-extremal) generators are tolerated on input and removed
    whenever a canonical description is produced.  The zero cone
    (no generators) and the full space are valid values.  Instances are
    immutable; the dual cone is computed at most once and cached.  Its
    generators are the double description run's canonical output, taken as
    they are (no second normalization).
    """

    __slots__ = ("ambient_dim", "generators", "_dual")

    def __init__(self, ambient_dim: int, generators: Sequence[Sequence[Number]] = ()):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be non-negative")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "generators", _dedup_primitive(ambient_dim, generators))
        object.__setattr__(self, "_dual", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cone is immutable")

    def __repr__(self) -> str:
        return f"Cone(dim={self.ambient_dim}, generators={list(self.generators)})"

    @classmethod
    def _of_canonical(cls, ambient_dim: int, generators: tuple[IntVec, ...]) -> "Cone":
        # generators already primitive and distinct (_dual_generators' output)
        cone = object.__new__(cls)
        object.__setattr__(cone, "ambient_dim", ambient_dim)
        object.__setattr__(cone, "generators", generators)
        object.__setattr__(cone, "_dual", None)
        return cone

    def dual(self) -> "Cone":
        """The dual cone {u : <u, v> >= 0 for all v in this cone}, with its
        canonical generators (cached: the same object on every call)."""
        if self._dual is None:
            object.__setattr__(self, "_dual", Cone._of_canonical(
                self.ambient_dim, _dual_generators(self.ambient_dim, self.generators)))
        return self._dual

    @property
    def inequalities(self) -> tuple[IntVec, ...]:
        """Canonical generators of the dual cone.

        A vector lies in this cone iff it pairs >= 0 with every returned
        vector; lineality directions of the dual appear as +/- pairs and act
        as equality constraints.
        """
        return self.dual().generators

    def contains(self, v: Sequence[Number]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"dimension mismatch: cone lives in dim {self.ambient_dim}, "
                f"vector has length {len(v)}")
        return all(dot(h, v) >= 0 for h in self.inequalities)

    def equals(self, other: "Cone") -> bool:
        """Exact cone equality via mutual containment of generators."""
        if self.ambient_dim != other.ambient_dim:
            return False
        return (all(other.contains(g) for g in self.generators)
                and all(self.contains(g) for g in other.generators))

    def canonical_generators(self) -> tuple[IntVec, ...]:
        """Minimal canonical generator list: +/- a canonical lineality basis
        together with the extreme rays reduced modulo the lineality, sorted."""
        return self.dual().dual().generators

    def intersect_with_subspace(self, equations: Sequence[Sequence[Number]]) -> "Cone":
        """This cone intersected with {x : <e, x> = 0 for all e in equations}:
        the dual of the cone on its inequalities and +/- each equation."""
        return Cone(self.ambient_dim,
                    [*self.inequalities, *equations, *map(vneg, equations)]).dual()


def intersect(a: Cone, b: Cone) -> Cone:
    """Intersection of two cones in the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("cones live in different ambient spaces")
    return Cone(a.ambient_dim, a.inequalities + b.inequalities).dual()
