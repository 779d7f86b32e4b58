"""Divisor and curve class spaces of the toric stack, with the orbifold
extension by one coordinate per twisted sector.

Coordinate contract (global, shared with the CLI and every other module):

* U and V have one coordinate per ray, in input order; their orbifold
  versions U_orb and V_orb append one coordinate per twisted sector in the
  canonical sector order of :func:`stackycones.boxes.twisted_sectors`.
* The curve space N_1,orb is the kernel of beta'_orb inside V_orb.  Its
  fixed basis is the canonical kernel basis of beta' (each vector padded
  with zeros on the sector coordinates) followed by the sector unit
  vectors.
* A divisor class is represented by its pairing functional evaluated on
  that fixed curve basis.  Two U_orb vectors give the same class exactly
  when these pairing vectors coincide, which realizes the quotient of
  U_orb by the image of M without any coset bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boxes import BoxElement
from .fan import StackyFan, ray_data
from .linalg import (
    IntVec,
    Matrix,
    Number,
    RatVec,
    dot,
    kernel_basis,
    rank,
    unit_vector,
)


@dataclass(frozen=True)
class OrbDivisorClass:
    """A class in the orbifold divisor space, stored as the pairing vector
    against the fixed curve basis (length n - d + t)."""

    pairing: RatVec

    def __post_init__(self):
        object.__setattr__(self, "pairing", tuple(self.pairing))

    def scaled(self, factor: Number) -> "OrbDivisorClass":
        return OrbDivisorClass(tuple(factor * x for x in self.pairing))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.pairing)


@dataclass(frozen=True)
class OrbCurveClass:
    """A class in the orbifold curve space, as coordinates in the fixed
    curve basis."""

    coords: RatVec

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))


@dataclass(frozen=True)
class AmbientSpaces:
    """Dimensions, structure matrices and the fixed curve basis.

    alpha has one row per ray, holding the primitive vector w_rho (its
    orbifold version appends zero rows for sectors); beta_prime has the
    w_rho as columns, and beta_prime_orb appends zero columns for sectors.
    """

    n: int
    d: int
    t: int
    alpha: Matrix
    beta_prime: Matrix
    beta_prime_orb: Matrix
    ker_beta_prime: tuple[IntVec, ...]
    curve_basis: tuple[IntVec, ...]
    ray_cs: tuple[int, ...]
    labels: tuple[str, ...]

    @property
    def dim_ns(self) -> int:
        return self.n - self.d

    @property
    def dim_ns_orb(self) -> int:
        return self.n - self.d + self.t


def eta_labels(n: int, t: int) -> tuple[str, ...]:
    """Display labels for the combined index (rays first, then sectors)."""
    return tuple([f"rho{i}" for i in range(n)] + [f"Y{j}" for j in range(t)])


def build_spaces(fan: StackyFan, sectors: Sequence[BoxElement]) -> AmbientSpaces:
    """Construct the structure matrices and the fixed curve basis, checking
    the exactness and dimension identities they must satisfy."""
    rd = ray_data(fan)
    n, d, t = len(rd), fan.dim, len(sectors)
    alpha = tuple([r.w for r in rd])
    beta_prime = tuple([tuple([r.w[j] for r in rd]) for j in range(d)])
    beta_prime_orb = tuple([row + (0,) * t for row in beta_prime])
    if rank(beta_prime) != d:
        raise ValueError("beta' does not have full rank; the fan should not "
                         "have passed validation")
    ker = kernel_basis(beta_prime, ncols=n)
    if len(ker) != n - d:
        raise AssertionError("kernel dimension disagrees with rank-nullity")
    curve_basis = tuple([k + (0,) * t for k in ker]
                        + [unit_vector(n + t, n + j) for j in range(t)])
    # exactness: every column of alpha_orb pairs to zero with the curve basis
    for j in range(d):
        col = tuple([r.w[j] for r in rd]) + (0,) * t
        if any(dot(col, k) != 0 for k in curve_basis):
            raise AssertionError("lambda_orb . alpha_orb != 0")
    return AmbientSpaces(
        n=n, d=d, t=t,
        alpha=alpha,
        beta_prime=beta_prime,
        beta_prime_orb=beta_prime_orb,
        ker_beta_prime=ker,
        curve_basis=curve_basis,
        ray_cs=tuple([r.c for r in rd]),
        labels=eta_labels(n, t),
    )


def lambda_orb(spaces: AmbientSpaces, u: Sequence[Number]) -> OrbDivisorClass:
    """Class of a U_orb vector: its pairing against the curve basis, whose
    layout (see the module docstring) makes the sector part a copy of u's."""
    n = spaces.n
    if len(u) != n + spaces.t:
        raise ValueError(
            f"expected a U_orb vector of length {n + spaces.t}, got {len(u)}")
    rays = u[:n]
    return OrbDivisorClass(tuple([dot(rays, k) for k in spaces.ker_beta_prime])
                           + tuple(u[n:]))


def pair(divisor: OrbDivisorClass, curve: OrbCurveClass) -> Number:
    """Intersection pairing, the dot product in the fixed coordinates."""
    return dot(divisor.pairing, curve.coords)


def curve_class_to_v_orb(spaces: AmbientSpaces, curve: OrbCurveClass) -> RatVec:
    """The V_orb vector of a curve class."""
    v = [0] * (spaces.n + spaces.t)
    for c, k in zip(curve.coords, spaces.curve_basis):
        if c != 0:
            v = [x + c * y for x, y in zip(v, k)]
    return tuple(v)


def curve_class_from_v_orb(spaces: AmbientSpaces, v: Sequence[Number]) -> OrbCurveClass:
    """Coordinates of a V_orb vector lying in the kernel of beta'_orb: each
    kernel basis vector k is the only one nonzero at some (free) column j,
    where v's coordinate on k is v[j] / k[j]; sector coordinates are v's."""
    n, ker = spaces.n, spaces.ker_beta_prime
    if len(v) != n + spaces.t:
        raise ValueError("dimension mismatch")
    if any(dot(row, v) != 0 for row in spaces.beta_prime_orb):
        raise ValueError("vector is not in the kernel of beta'_orb")
    free = [next(j for j in range(n) if k[j] and sum(1 for o in ker if o[j]) == 1)
            for k in ker]
    return OrbCurveClass(tuple([Fraction(v[j], k[j]) for j, k in zip(free, ker)]
                               + [Fraction(x) for x in v[n:]]))


def ray_divisor_classes(spaces: AmbientSpaces, rho: int
                        ) -> tuple[OrbDivisorClass, OrbDivisorClass]:
    """Classes of the coarse and the stacky ray divisor; the first equals
    c_rho times the second."""
    if not 0 <= rho < spaces.n:
        raise ValueError(f"ray index {rho} out of range")
    u = unit_vector(spaces.n + spaces.t, rho)
    coarse = lambda_orb(spaces, u)
    return coarse, coarse.scaled(Fraction(1, spaces.ray_cs[rho]))
