"""NormalFamilyComplex with every table keyed by its own object.

NormalFamilyComplex shares one resolution among the objects whose
resolutions are built from the same table, and keys its own tables by what
each reads, so objects that read the same share one.  PerObjectComplex
gives each object a resolution and a twist key of its own, so every table
is built from that object's data alone, as each was before the tables were
shared; its differentials are the reference the shared ones must equal
entry for entry, in dict order.
"""

from orbitcoh.bredon import DEFAULT_SIZE_CAP, NormalFamilyComplex


class PerObjectComplex(NormalFamilyComplex):
    def __init__(self, module, size_cap=DEFAULT_SIZE_CAP):
        super().__init__(module, size_cap)
        self._res = [type(res)(res.table) for res in self._res]
        self._twist = [("object", h) for h in range(len(self._res))]


def same_differentials(route, top):
    """Whether route's d^0..d^top equal the per-object reference's, entry
    for entry and in dict order."""
    ref = PerObjectComplex(route.module, route.size_cap)
    return all(list(route.differential(n).matrix.entries.items())
               == list(ref.differential(n).matrix.entries.items())
               for n in range(top + 1))
