"""Exact cohomology of finite groups over orbit categories.

The cochain complex over the orbit category computes the cohomology in any
degree; independent low-degree interpretations (limits, derivations,
splitting classes, subgroup-lift structures on extensions, character
groups, restriction kernels) cross-validate it, and a finite-field Galois
layer exercises the vanishing statements for unit coefficients.
"""

from .bredon import (
    BarComplex,
    BredonComplex,
    CyclicComplex,
    restriction_kernel_intersection,
)
from .coeff import (
    GModule,
    OrbitModule,
    constant_orbit_module,
    fixed_point_functor,
    invariants,
    restrict_module,
    sign_modules,
)
from .galoisff import primary_parts, units_gmodule
from .groups import (
    Family,
    FiniteGroup,
    Subgroup,
    builtin_group,
    closed_families,
    cyclic_family,
    family_close,
    fixed_point_free_prime_power_element,
    full_family,
    groups_up_to_order,
    trivial_family,
)
from .interp import (
    CharacterGroup,
    FDerivation,
    FStructureClass,
    FStructureWitness,
    character_group,
    enumerate_f_structures,
    f_derivation_quotient,
    h0_limit,
    splittings_mod_conjugacy,
)
from .intlin import (
    AbHom,
    FgAbGroup,
    IntMatrix,
    kernel_basis,
    smith_normal_form,
    solve_exact,
    subquotient,
)
from .orbitcat import OrbitMorphism, compose, morphisms

__version__ = "0.1.0"

__all__ = [
    "AbHom", "BarComplex", "BredonComplex", "CharacterGroup", "CyclicComplex",
    "FDerivation", "FStructureClass", "FStructureWitness", "Family", "FgAbGroup",
    "FiniteGroup", "GModule", "IntMatrix", "OrbitModule", "OrbitMorphism",
    "Subgroup", "builtin_group", "character_group", "closed_families",
    "compose", "constant_orbit_module", "cyclic_family",
    "enumerate_f_structures", "f_derivation_quotient", "family_close",
    "fixed_point_free_prime_power_element", "fixed_point_functor",
    "full_family", "groups_up_to_order", "h0_limit", "invariants",
    "kernel_basis", "morphisms", "primary_parts", "restrict_module",
    "restriction_kernel_intersection", "sign_modules", "smith_normal_form",
    "solve_exact", "splittings_mod_conjugacy", "subquotient",
    "trivial_family", "units_gmodule",
]
