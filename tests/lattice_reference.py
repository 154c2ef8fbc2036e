"""The element-seed subgroup lattice, as a reference.

groups.Subgroup.subgroups walks one coset representative per left coset and
closes by right multiplication with the generators.  This keeps the earlier
route: a pairwise product-and-inverse fixpoint as the closure,
FiniteGroup.all_subgroups as a walk that closes members plus one element for
every subgroup and every element, Subgroup.subgroups through the subgroup's
own Cayley table, and closedness tests that look for the first member that
breaks them.  The lattice walk and the closedness tests are compared with it
member tuple by member tuple.
"""

from functools import cache

from orbitcoh.errors import BadParametersError
from orbitcoh.groups import Family, Subgroup


def pairwise_closure(group, seed):
    cur = {0} | set(seed)
    for a in seed:
        if not 0 <= a < group.order:
            raise BadParametersError(f"seed element {a} out of range")
    changed = True
    while changed:
        changed = False
        for a in list(cur):
            ia = group.inverse[a]
            if ia not in cur:
                cur.add(ia)
                changed = True
            for b in list(cur):
                ab = group.table[a][b]
                if ab not in cur:
                    cur.add(ab)
                    changed = True
    return Subgroup(group, tuple(sorted(cur)))


def seed_all_subgroups(group):
    found = {(0,): group.trivial_subgroup()}
    frontier = [(0,)]
    while frontier:
        members = frontier.pop()
        for g in range(1, group.order):
            if g not in members:
                bigger = pairwise_closure(group, set(members) | {g})
                if bigger.members not in found:
                    found[bigger.members] = bigger
                    frontier.append(bigger.members)
    return sorted(found.values(), key=lambda s: s.sort_key())


@cache
def table_subgroups(sub):
    inner, embed = sub.as_group()
    return sorted(
        (Subgroup(sub.parent, tuple(sorted(embed[i] for i in s.members)))
         for s in seed_all_subgroups(inner)),
        key=lambda s: s.sort_key())


def seed_cyclic_family(group):
    return Family(group, [s for s in seed_all_subgroups(group)
                          if any(pairwise_closure(group, [a]).members == s.members
                                 for a in s.members)])


def first_break_conjugation_closed(family):
    sets = set(family.member_sets())
    for s in family.subgroups:
        for x in range(family.parent.order):
            if s.conjugate_by(x).members not in sets:
                return False
    return True


def first_break_subgroup_closed(family):
    sets = set(family.member_sets())
    return all(t.members in sets for s in family.subgroups
               for t in table_subgroups(s))
