"""Permutations of {0..n-1} as tuples, plus small group closures.

A permutation p maps i to p[i].  Composition is (p * q)(i) = p[q[i]],
matching function composition applied right to left.
"""
from __future__ import annotations

from math import lcm


def identity(n):
    return tuple(range(n))


def compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def from_cycles(n, cycles):
    """Permutation of {0..n-1} from a list of cycles (0-based entries)."""
    p = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a] = b
    return tuple(p)


def cycle_type(p):
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if seen[i]:
            continue
        l = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            l += 1
        lens.append(l)
    return tuple(sorted(lens, reverse=True))


def order(p):
    return lcm(*cycle_type(p))


def mulclose(generators, cap=None):
    """All products of the generators (a group when they are invertible)."""
    gens = [tuple(g) for g in generators]
    n = len(gens[0])
    elems = {identity(n)}
    frontier = list(elems)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = compose(g, a)
                if b not in elems:
                    elems.add(b)
                    new.append(b)
                    if cap is not None and len(elems) > cap:
                        raise OverflowError(
                            "group closure exceeded cap of %d elements" % cap
                        )
        frontier = new
    return elems


def conjugacy_class(generators, g):
    """BFS of the class of g, with a conjugating word for each member.

    Returns (members, reps, depth) where members is a list in BFS discovery
    order starting at g, reps[x] is a permutation h with h g h^-1 = x, and
    depth[x] is the number of +-generator factors in that h.
    """
    gens = [tuple(p) for p in generators]
    gens = gens + [inverse(p) for p in gens]
    g = tuple(g)
    n = len(g)
    reps = {g: identity(n)}
    depth = {g: 0}
    members = [g]
    i = 0
    while i < len(members):
        x = members[i]
        i += 1
        for k in gens:
            y = compose(k, compose(x, inverse(k)))
            if y not in reps:
                reps[y] = compose(k, reps[x])
                depth[y] = depth[x] + 1
                members.append(y)
    return members, reps, depth
