"""Quarantine closures, exact minimal plagues, and the immunity invariant.

The closure rule on a 3-orbit: for every tuple T the ordered triple
(T, sigma2 T, sigma1 sigma2 T) is an instance; whenever at least two of its
three positions hold members of Q, all three members are in Q.  Positions
count with multiplicity, so a degenerate instance (T, T, U) forces U from T
but not T from U.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .hurwitz import (
    SymmetryCheckFailed,
    _bfs_code,
    orbits,
    order_isomorphism,
    rooted_codes,
)


class EmptySeed(Exception):
    pass


class ImmunityMismatch(Exception):
    pass


class OrbitTooLarge(Exception):
    """A 3-orbit is larger than the exact plague search is run on."""


# 3-orbits up to this size get the exact minimal-plague search
BOUND_ORBIT_CAP = 24


def closure_instances(o):
    """The list of (i, j, k) index triples, one instance per orbit member,
    read from the orbit's sigma_1 and sigma_2 edges."""
    e1, e2 = o.edges
    return [(i, e2[i], e1[e2[i]]) for i in range(o.size)]


def _forcing_tables(o):
    """Per-element instance incidence for the worklist closure."""
    inst = closure_instances(o)
    touch = [[] for _ in range(o.size)]  # element -> [(instance idx, multiplicity)]
    for n, triple in enumerate(inst):
        mult = {}
        for v in triple:
            mult[v] = mult.get(v, 0) + 1
        for v, m in mult.items():
            touch[v].append((n, m))
    return inst, touch


def quarantine_closure(o, seed):
    """Least fixpoint of the two-of-three rule containing the seed set."""
    seed = set(seed)
    if not seed:
        raise EmptySeed("quarantine closure needs a nonempty seed")
    inst, touch = _forcing_tables(o)
    in_q = [False] * o.size
    counts = [0] * len(inst)
    for v in seed:
        if not in_q[v]:
            _extend(inst, touch, in_q, counts, v)
    return frozenset(i for i, b in enumerate(in_q) if b)


def _extend(inst, touch, in_q, counts, v):
    """Add v (not yet a member) to the closed set (in_q, counts) in place,
    close it again from v, and return the number of members that joined."""
    in_q[v] = True
    stack = [v]
    added = 1
    while stack:
        x = stack.pop()
        for n, mult in touch[x]:
            counts[n] += mult
            if counts[n] >= 2:
                for w in inst[n]:
                    if not in_q[w]:
                        in_q[w] = True
                        stack.append(w)
                        added += 1
    return added


@dataclass
class PlagueResult:
    min_size: int
    witness: tuple       # member indices of a plague of size min_size
    immunity: Fraction
    seeds_closed: int = field(default=0, compare=False)  # closures this call computed


def is_plague(o, seed):
    return len(quarantine_closure(o, seed)) == o.size


def automorphism_classes(o):
    """Orbit members grouped by rooted BFS code, as {least member m: {v: phi}}.

    Equal codes from roots m and v mean that phi, sending the i-th vertex of
    m's BFS order to the i-th vertex of v's, is an automorphism of the
    sigma-labelled orbit graph with phi[m] == v.  Every phi is checked
    against all edges before it is returned.
    """
    classes = {}
    first = {}
    for v, (code, order) in enumerate(rooted_codes(o)):
        m, order_m = first.setdefault(code, (v, order))
        classes.setdefault(m, {})[v] = order_isomorphism(o, order_m, o, order)
    return classes


def minimal_plague(o):
    """Exact minimum plague by iterative deepening over seed size.

    For each k, a depth-first search visits k-subsets in lexicographic
    order and returns the first plague, so the minimum is certified and the
    witness is the lexicographically least plague of that size.  Three
    reductions keep every such witness in the search:

    * each child closes its parent's closed set from its one new element;
    * an element already in the closure of the prefix is skipped: a seed
      with it has the closure of the seed without it, so it is no plague
      of minimal size;
    * the first element is the least member of its automorphism class: an
      automorphism carrying a plague's least element s to the smaller class
      minimum would give a lexicographically smaller plague of equal size.
    """
    if o.arity != 3:
        raise ValueError("plagues are defined for 3-orbits")
    size = o.size
    inst, touch = _forcing_tables(o)
    firsts = sorted(automorphism_classes(o))
    closed_count = 0

    def search(in_q, counts, closed, seed, candidates, k):
        nonlocal closed_count
        last = len(seed) + 1 == k
        for v in candidates:
            if in_q[v]:
                continue
            q, c = in_q[:], counts[:]
            now = closed + _extend(inst, touch, q, c, v)
            closed_count += 1
            if last:
                if now == size:
                    return seed + (v,)
            else:
                rest = range(v + 1, size - (k - len(seed)) + 2)
                found = search(q, c, now, seed + (v,), rest, k)
                if found:
                    return found
        return None

    for k in range(1, size + 1):
        witness = search(
            [False] * size, [0] * len(inst), 0, (), [v for v in firsts if v <= size - k], k
        )
        if witness:
            break
    # search refers to itself: break the cycle that would hold inst and touch
    del search
    if not witness:
        raise RuntimeError("no seed percolates, not even the full orbit")
    return PlagueResult(
        min_size=k,
        witness=witness,
        immunity=Fraction(k, size),
        seeds_closed=closed_count,
    )


# BFS code from each root of each searched orbit -> (orbit, order, result)
_FILED = {}


def _file(o, res):
    """File o's search result under o's BFS code from every root."""
    for root_code, root_order in rooted_codes(o):
        _FILED.setdefault(root_code, (o, root_order, res))
    return res


def orbit_plague(o):
    """A 3-orbit's PlagueResult, with each orbit class searched once.

    A searched orbit is filed under its BFS code from every root, so a
    lookup needs o's code from root 0 only: an isomorphism carries root 0 to
    a root with the same code.  A hit's witness is carried into o by the
    edge-checked BFS-order isomorphism and checked to be a plague; it is
    minimal, but not necessarily o's lexicographically least.  An orbit
    above ``BOUND_ORBIT_CAP`` of no filed class gives None, unsearched.
    """
    code, order = _bfs_code(o, 0)
    hit = _FILED.get(code)
    if hit is None:
        if o.size > BOUND_ORBIT_CAP:
            return None
        return _file(o, minimal_plague(o))
    first, first_order, res = hit
    phi = order_isomorphism(first, first_order, o, order)
    witness = tuple(sorted(phi[i] for i in res.witness))
    if not is_plague(o, witness):
        raise SymmetryCheckFailed("mapped witness is not a plague of the orbit")
    return replace(res, witness=witness, seeds_closed=1)


def immunity_table(r):
    """Map orbit size -> PlagueResult over all 3-orbits of a rack.

    The table keeps the result of the first orbit of each size, searched
    with ``minimal_plague`` and filed, so its witness is that orbit's
    lexicographically least plague whatever the process searched before.
    Every other orbit goes through ``orbit_plague``: orbits of equal size
    need not be isomorphic (the non-braided Aff(5,2) has 24-orbits of
    another class than the reference one), and a different minimal plague
    size raises ImmunityMismatch.  A rack with an orbit above
    ``BOUND_ORBIT_CAP`` raises OrbitTooLarge, naming the largest, before any
    search.
    """
    orbs = orbits(r, 3)
    big = max(o.size for o in orbs)
    if big > BOUND_ORBIT_CAP:
        msg = "a 3-orbit of size %d is above the exact plague search's cap of %d"
        raise OrbitTooLarge(msg % (big, BOUND_ORBIT_CAP))
    table = {}
    for o in orbs:
        prev = table.get(o.size)
        if prev is None:
            table[o.size] = _file(o, minimal_plague(o))
        elif prev.min_size != (k := orbit_plague(o).min_size):
            raise ImmunityMismatch(
                "orbits of size %d disagree: plagues of %d and %d" % (o.size, prev.min_size, k)
            )
    return table


EXPECTED_MIN_PLAGUE = {1: 1, 3: 1, 6: 2, 8: 3, 9: 3, 12: 4, 16: 5, 24: 7}
