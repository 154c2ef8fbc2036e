"""Exception types shared across the package."""


class OrbitcohError(Exception):
    pass


class ChainMismatchError(OrbitcohError):
    """Differentials that do not chain (source/target presentations differ)."""


class CompositionNonzeroError(OrbitcohError):
    """d . d is nonzero; the alleged complex is not a complex."""


class SizeLimitError(OrbitcohError):
    def __init__(self, needed, cap):
        super().__init__(f"enumeration needs {needed} items, cap is {cap}")
        self.needed = needed
        self.cap = cap

    def __reduce__(self):
        # rebuilt from its own arguments, so a check worker can send it
        return type(self), (self.needed, self.cap)


class NotComposableError(OrbitcohError):
    """Orbit morphisms with mismatched objects."""


class SingletonActionError(OrbitcohError):
    """Coset action on a one-point set; the search hypothesis excludes it."""


class SearchExhaustedError(OrbitcohError):
    """An exhaustive search guaranteed to succeed came up empty."""


class FunctorialityError(OrbitcohError):
    """An orbit module failed its contravariant functor laws."""


class FamilyMissingTrivialError(OrbitcohError):
    """Operation requires the trivial subgroup to belong to the family."""


class BadParametersError(OrbitcohError):
    pass


class SchemaError(OrbitcohError):
    """Structured-text input failed strict validation."""
