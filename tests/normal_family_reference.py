"""NormalFamilyComplex with every table keyed by its own object.

NormalFamilyComplex keys its tables by what each reads, so objects that
read the same share one.  PerObjectComplex gives each object keys of its
own, so every table is built from that object's data alone, as each was
before the tables were shared; its differentials are the reference the
shared ones must equal entry for entry, in dict order.
"""

from orbitcoh.bredon import DEFAULT_SIZE_CAP, NormalFamilyComplex


class PerObjectComplex(NormalFamilyComplex):
    def __init__(self, module, size_cap=DEFAULT_SIZE_CAP):
        super().__init__(module, size_cap)
        self._resolution = [("object", h) for h in range(len(self._autos))]
        self._twist = [("object", h) for h in range(len(self._autos))]


def same_differentials(route, top):
    """Whether route's d^0..d^top equal the per-object reference's, entry
    for entry and in dict order."""
    ref = PerObjectComplex(route.module, route.size_cap)
    return all(list(route.differential(n).matrix.entries.items())
               == list(ref.differential(n).matrix.entries.items())
               for n in range(top + 1))
