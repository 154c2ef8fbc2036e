"""Finite-field Galois demonstrator.

The Galois group of GF(p^n) over GF(p^d) is cyclic of order n/d, generated
by the d-th power of Frobenius, and everything cohomological about the
extension factors through its action on the unit group Z/(p^n - 1) by
multiplication by p^d.  Fields are never represented element by element.

The classical expectations are: first cohomology of the units vanishes in
every family containing the trivial subgroup, second cohomology vanishes
because relative Brauer groups of finite fields are trivial, and the odd
degrees vanish for cyclic groups.  All three are computed here, not assumed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .bredon import DEFAULT_SIZE_CAP, CyclicComplex
from .coeff import GModule, fixed_point_functor
from .errors import BadParametersError, FamilyMissingTrivialError
from .groups import Family, FiniteGroup
from .intlin import FgAbGroup, IntMatrix, _torsion_chain


# Miller-Rabin on the primes up to 41 is exact on every n below this bound
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above PRIME_BOUND is rejected."""
    if n >= PRIME_BOUND:
        raise BadParametersError(
            f"primality is decided only below {PRIME_BOUND}, got {n}")
    if n < 2 or any(n % q == 0 for q in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = d * 2^s, d odd
    for a in _WITNESSES:
        x = pow(a, (n - 1) >> s, n)
        # a witnesses compositeness unless a^d = 1 or some a^(d 2^r) = -1
        if x not in (1, n - 1) and all(
                (x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


def units_gmodule(p: int, n: int, d: int) -> GModule:
    """Z/(p^n - 1) with the generator of Gal acting as multiplication by p^d."""
    if not _is_prime(p):
        raise BadParametersError(f"{p} is not prime")
    if n < 1 or d < 1 or n % d != 0:
        raise BadParametersError("need d | n with both positive")
    limit = sys.get_int_max_str_digits()
    if limit and n >= limit / math.log10(p):     # p^n - 1 has > limit digits
        raise BadParametersError(
            f"p^n - 1 must have at most {limit} digits to be printed")
    order = n // d
    group = FiniteGroup.cyclic(order)
    modulus = p ** n - 1
    carrier = FgAbGroup(1, IntMatrix.from_rows([[modulus]]))
    if order == 1:
        return GModule.trivial(group, carrier)
    frob = IntMatrix.from_rows([[p ** d % modulus]])
    return GModule.from_generator_action(group, carrier, [1], [frob])


def _unit_functor(p, n, d, family):
    module = units_gmodule(p, n, d)
    if family.parent.order != module.group.order:
        raise BadParametersError("family must be over the Galois group")
    if family.parent is not module.group:
        # rebuild the family over this module's group object
        family = Family(module.group,
                        [module.group.subgroup(s.members) for s in family])
    return fixed_point_functor(module, family)


def bredon_hilbert90(p: int, n: int, d: int, family: Family,
                     size_cap: int = DEFAULT_SIZE_CAP) -> FgAbGroup:
    """Degree-1 cohomology of the unit functor; the expected value is zero."""
    if not family.contains_trivial():
        raise FamilyMissingTrivialError("family must contain the trivial subgroup")
    return CyclicComplex(_unit_functor(p, n, d, family), size_cap).cohomology(1)


def brauer_intersection(p: int, n: int, d: int, family: Family,
                        size_cap: int = DEFAULT_SIZE_CAP) -> FgAbGroup:
    """Degree-2 cohomology of the unit functor.

    This is the intersection of the relative Brauer groups of the
    intermediate fields fixed by the family; over finite fields every
    relative Brauer group vanishes, so zero is the expected outcome.
    """
    if not family.contains_trivial():
        raise FamilyMissingTrivialError("family must contain the trivial subgroup")
    return CyclicComplex(_unit_functor(p, n, d, family), size_cap).cohomology(2)


@dataclass
class PrimaryParts:
    """A finite group split into its q-primary components."""

    parts: dict[int, tuple[int, ...]]

    def recombined(self) -> tuple[int, ...]:
        """Invariant factors reassembled from the primary parts."""
        return tuple(_torsion_chain([e for powers in self.parts.values()
                                     for e in powers]))


def primary_parts(group: FgAbGroup) -> PrimaryParts:
    if not group.is_finite():
        raise BadParametersError("primary decomposition needs a finite group")
    parts: dict[int, list[int]] = {}
    for f in group.torsion:
        m = f
        q = 2
        while q * q <= m:
            if m % q == 0:
                e = 1
                while m % q == 0:
                    m //= q
                    e *= q
                parts.setdefault(q, []).append(e)
            q += 1
        if m > 1:
            parts.setdefault(m, []).append(m)
    return PrimaryParts({q: tuple(sorted(v)) for q, v in parts.items()})


def odd_vanishing_check(p: int, n: int, d: int, family: Family,
                        size_cap: int = DEFAULT_SIZE_CAP) -> FgAbGroup:
    """Degree-3 cohomology of the unit functor for a closed family.

    Cyclic groups have all Sylow subgroups cyclic, so every primary part of
    the odd-degree group must vanish; the caller inspects the result.
    """
    if not family.contains_trivial():
        raise FamilyMissingTrivialError("family must contain the trivial subgroup")
    if not (family.is_conjugation_closed() and family.is_subgroup_closed()):
        raise BadParametersError("family must be closed under conjugation and subgroups")
    return CyclicComplex(_unit_functor(p, n, d, family), size_cap).cohomology(3)


def closed_unit_families(p: int, n: int, d: int):
    """All conjugation- and subgroup-closed families of the Galois group."""
    from .groups import closed_families

    module = units_gmodule(p, n, d)
    return module, closed_families(module.group)
