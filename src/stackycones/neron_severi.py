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
from functools import cached_property
from typing import Sequence

from .boxes import BoxElement, EnumerationLimitError
from .fan import StackyFan, ray_data
from .linalg import (
    IntVec,
    Matrix,
    Number,
    RatVec,
    dot,
    kernel_basis,
    unit_vector,
)


@dataclass(frozen=True)
class AmbientSpaces:
    """Dimensions, beta' and the canonical basis of its kernel.

    beta_prime has the primitive ray vectors w_rho as columns; alpha is its
    transpose and beta'_orb pads it with zero sector columns, so neither is
    stored.  The curve basis of N_1,orb = ker beta'_orb (the kernel padded
    with zero sector coordinates, then the sector unit vectors) is built on
    first read: only ``ns`` prints it.
    """

    n: int
    d: int
    t: int
    beta_prime: Matrix
    ker_beta_prime: tuple[IntVec, ...]
    ray_cs: tuple[int, ...]
    labels: tuple[str, ...]

    @cached_property
    def curve_basis(self) -> tuple[IntVec, ...]:
        n, t = self.n, self.t
        return tuple([k + (0,) * t for k in self.ker_beta_prime]
                     + [unit_vector(n + t, n + j) for j in range(t)])

    @property
    def dim_ns(self) -> int:
        return self.n - self.d

    @property
    def dim_ns_orb(self) -> int:
        return self.n - self.d + self.t


# build_spaces refuses fans with more ray and sector coordinates n + t: the
# curve basis (built for ns) and the views of Xi hold O((n + t)^2) dense entries; at
# n + t = 481 `stackycones xi` takes about 0.1 s and 24 MB (1.4 MB of text), while
# `xi --json` peaks at about 290 MB max RSS, measured in-process, until its
# documents are streamed (ROADMAP item 6)
CLASS_SPACE_LIMIT = 500


def eta_labels(n: int, t: int) -> tuple[str, ...]:
    """Display labels for the combined index (rays first, then sectors)."""
    return tuple([f"rho{i}" for i in range(n)] + [f"Y{j}" for j in range(t)])


def build_spaces(fan: StackyFan, sectors: Sequence[BoxElement]) -> AmbientSpaces:
    """Construct beta' and its kernel by one elimination, checking the
    exactness and dimension identities they must satisfy.  Raises ValueError
    when beta' is rank-deficient (its kernel is too large) and
    EnumerationLimitError when n + t exceeds CLASS_SPACE_LIMIT."""
    n, d, t = fan.n_rays, fan.dim, len(sectors)
    if n + t > CLASS_SPACE_LIMIT:
        raise EnumerationLimitError(
            f"fan '{fan.name}' is too large for the class spaces: n + t = "
            f"{n + t} ray and sector coordinates (limit {CLASS_SPACE_LIMIT})")
    rd = ray_data(fan)
    beta_prime = tuple([tuple([r.w[j] for r in rd]) for j in range(d)])
    ker = kernel_basis(beta_prime, ncols=n)
    if len(ker) > n - d:
        raise ValueError("beta' does not have full rank; the fan should not "
                         "have passed validation")
    if len(ker) != n - d:
        raise AssertionError("kernel dimension disagrees with rank-nullity")
    # exactness: every column of alpha_orb (a row of beta' padded with zeros)
    # pairs to zero with the curve basis; only the kernel vectors need checking
    for row in beta_prime:
        if any(dot(row, k) != 0 for k in ker):
            raise AssertionError("lambda_orb . alpha_orb != 0")
    return AmbientSpaces(
        n=n, d=d, t=t,
        beta_prime=beta_prime,
        ker_beta_prime=ker,
        ray_cs=tuple([r.c for r in rd]),
        labels=eta_labels(n, t),
    )


def lambda_orb(spaces: AmbientSpaces, u: Sequence[Number]) -> RatVec:
    """Class of a U_orb vector: its pairing vector against the curve basis
    (length n - d + t), whose layout (see the module docstring) makes the
    sector part a copy of u's."""
    n = spaces.n
    if len(u) != n + spaces.t:
        raise ValueError(
            f"expected a U_orb vector of length {n + spaces.t}, got {len(u)}")
    rays = u[:n]
    return tuple([dot(rays, k) for k in spaces.ker_beta_prime]) + tuple(u[n:])


def ray_divisor_classes(spaces: AmbientSpaces, rho: int) -> tuple[RatVec, RatVec]:
    """Classes of the coarse and the stacky ray divisor; the first equals
    c_rho times the second."""
    if not 0 <= rho < spaces.n:
        raise ValueError(f"ray index {rho} out of range")
    u = unit_vector(spaces.n + spaces.t, rho)
    coarse = lambda_orb(spaces, u)
    return coarse, tuple([Fraction(1, spaces.ray_cs[rho]) * x for x in coarse])
