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
    _canonical_code,
    orbits,
    order_isomorphism,
    rooted_codes,
    sigma,
)


class EmptySeed(Exception):
    pass


class ImmunityMismatch(Exception):
    pass


def closure_instances(o):
    """The list of (i, j, k) index triples, one instance per orbit member."""
    inst = []
    for idx, t in enumerate(o.tuples):
        s2 = sigma(o.rack, 2, t)
        s12 = sigma(o.rack, 1, s2)
        inst.append((idx, o.index[s2], o.index[s12]))
    return inst


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
    orbit_size: int
    min_size: int
    witness: tuple       # member indices of a plague of size min_size
    immunity: Fraction
    certified: bool      # exhaustive search below min_size found nothing
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
            return PlagueResult(
                orbit_size=size,
                min_size=k,
                witness=witness,
                immunity=Fraction(k, size),
                certified=True,
                seeds_closed=closed_count,
            )
    raise RuntimeError("no seed percolates, not even the full orbit")


_BY_CODE_CACHE = {}


def minimal_plague_cached(o):
    """Minimal plague keyed by the orbit's canonical graph code.

    Isomorphic orbit graphs have identical closure instances up to
    relabelling, hence equal minimal plague sizes.  On a hit the stored
    witness is carried into o's indices by the canonical-order isomorphism,
    which is checked against every edge, and the image is checked to be a
    plague of o.  It is a minimal plague of o, but not necessarily o's
    lexicographically least one.
    """
    code, order = _canonical_code(o)
    hit = _BY_CODE_CACHE.get(code)
    if hit is None:
        res = minimal_plague(o)
        _BY_CODE_CACHE[code] = (o, order, res)
        return res
    first, first_order, res = hit
    phi = order_isomorphism(first, first_order, o, order)
    witness = tuple(sorted(phi[i] for i in res.witness))
    if not is_plague(o, witness):
        raise SymmetryCheckFailed("mapped witness is not a plague of the orbit")
    return replace(res, witness=witness, seeds_closed=1)


def immunity_table(r):
    """Map orbit size -> PlagueResult over all 3-orbits of a braided rack.

    One exact search per isomorphism class; orbits of equal size are checked
    to be isomorphic (they share a canonical code), so a same-size orbit
    with a different minimal plague size would surface as a second class and
    raises ImmunityMismatch.
    """
    table = {}
    for o in orbits(r, 3):
        res = minimal_plague_cached(o)
        prev = table.get(o.size)
        if prev is not None and prev.min_size != res.min_size:
            raise ImmunityMismatch(
                "orbits of size %d disagree: plagues of %d and %d"
                % (o.size, prev.min_size, res.min_size)
            )
        if prev is None:
            table[o.size] = res
    return table


EXPECTED_MIN_PLAGUE = {1: 1, 3: 1, 6: 2, 8: 3, 9: 3, 12: 4, 16: 5, 24: 7}
