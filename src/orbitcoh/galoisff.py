"""Finite-field Galois demonstrator.

The Galois group of GF(p^n) over GF(p^d) is cyclic of order n/d, generated
by the d-th power of Frobenius, and everything cohomological about the
extension factors through its action on the unit group Z/(p^n - 1) by
multiplication by p^d.  Fields are never represented element by element.

Bredon-Galois cohomology is the cohomology of one complex, that of the unit
functor fixed_point_functor(units_gmodule(p, n, d), family), which the
galois command builds once as a bredon.CyclicComplex and reads in every
degree.  For a family containing the trivial subgroup, its H^1 is the
analogue of Hilbert 90 and its H^2 the intersection of the relative Brauer
groups of the intermediate fields fixed by the family; for a family closed
under conjugation and subgroups, its H^3 is the odd-degree check.  The
classical expectations are that all three vanish: H^1 by Hilbert 90, H^2
because relative Brauer groups of finite fields are trivial, and the odd
degrees because the group is cyclic.  They are computed, not assumed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .coeff import GModule
from .errors import BadParametersError
from .groups import FiniteGroup
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
