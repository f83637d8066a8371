"""Orbits of the braid group acting on tuples over a rack.

sigma_i sends (..., x_i, x_{i+1}, ...) to (..., x_i |> x_{i+1}, x_i, ...);
strand indices are 1-based (1 <= i <= n-1) as usual for braid generators.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import perms
from .racks import Rack, invariants, is_braided, preset, trivial_rack

DEFAULT_ORBIT_CAP = 10**6


class OrbitSizeCap(Exception):
    pass


def sigma(r, i, tup):
    x, y = tup[i - 1], tup[i]
    return tup[: i - 1] + (r.table[x][y], x) + tup[i + 1 :]


def sigma_inv(r, i, tup):
    x, y = tup[i - 1], tup[i]
    # inverse of (a, b) -> (a |> b, a): second slot is phi_first^{-1}(old first)
    return tup[: i - 1] + (y, r.phi_inv(y)[x]) + tup[i + 1 :]


class HurwitzOrbit:
    """One orbit: tuples in first-discovery order plus sigma edge arrays."""

    __slots__ = ("rack", "arity", "tuples", "index", "edges", "inv_edges")

    def __init__(self, rack, arity, tuples, edges, inv_edges):
        self.rack = rack
        self.arity = arity
        self.tuples = tuples
        self.index = {t: i for i, t in enumerate(tuples)}
        self.edges = edges          # edges[i-1][j] = index of sigma_i(tuples[j])
        self.inv_edges = inv_edges

    @property
    def size(self):
        return len(self.tuples)

    def seed(self):
        return self.tuples[0]

    def __len__(self):
        return len(self.tuples)

    def __repr__(self):
        return "HurwitzOrbit(arity=%d, size=%d, seed=%s)" % (
            self.arity,
            self.size,
            self.tuples[0],
        )

    def to_json(self):
        payload = {"arity": self.arity, "tuples": [[v + 1 for v in t] for t in self.tuples]}
        for i in range(self.arity - 1):
            payload["sigma%d" % (i + 1)] = self.edges[i]
        return json.dumps(payload, separators=(", ", ": "))


def orbit(r, tup, cap=DEFAULT_ORBIT_CAP):
    """Closure of a tuple under sigma_1..sigma_{n-1} and inverses (BFS).

    Neighbours are visited sigma_1, ..., sigma_{n-1}, then the inverses,
    so discovery order is deterministic.
    """
    tup = tuple(tup)
    n = len(tup)
    tuples = [tup]
    index = {tup: 0}
    head = 0
    while head < len(tuples):
        cur = tuples[head]
        head += 1
        for i in range(1, n):
            for img in (sigma(r, i, cur), sigma_inv(r, i, cur)):
                if img not in index:
                    if len(tuples) >= cap:
                        raise OrbitSizeCap("orbit exceeded cap of %d tuples" % cap)
                    index[img] = len(tuples)
                    tuples.append(img)
    edges = [[index[sigma(r, i, t)] for t in tuples] for i in range(1, n)]
    inv_edges = [[index[sigma_inv(r, i, t)] for t in tuples] for i in range(1, n)]
    return HurwitzOrbit(r, n, tuples, edges, inv_edges)


@dataclass
class OrbitCensus:
    rack: Rack
    arity: int
    counts: dict            # orbit size -> number of orbits
    total_check: bool       # sum(size * count) == d^n
    formula_counts: dict | None = None  # closed-form prediction (braided n=3)
    formula_agrees: bool | None = None


def orbits(r, n=3):
    """All Hurwitz orbits of X^n, seeds in lexicographic order."""
    seen = set()
    out = []
    for tup in itertools.product(range(r.size), repeat=n):
        if tup in seen:
            continue
        o = orbit(r, tup)
        seen.update(o.tuples)
        out.append(o)
    return out


def census(r, n=3):
    """Orbit-size census of X^n by full enumeration.

    For an indecomposable braided rack with n = 3 the closed-form counts
    N_1 = d, N_3 = d k2, N_6 = d t / 6, N_9 = d (k2 (k2-1) - t) / 3,
    N_8 = d k3 / 2, N_12 = d m / 12, N_16 = d (k2 k3 - k2^2 + k2 + t) / 4
    and N_24 from the total d^3 are evaluated and compared.

    Seeds are claimed in lexicographic order, so each orbit is owned by its
    least member.
    """
    counts = {}
    for o in orbits(r, n):
        counts[o.size] = counts.get(o.size, 0) + 1
    total_ok = sum(s * c for s, c in counts.items()) == r.size**n
    result = OrbitCensus(r, n, counts, total_ok)
    if n == 3 and is_braided(r):
        inv = invariants(r)
        if inv.is_indecomposable:
            d, k2, k3 = r.size, inv.k2, inv.k3
            m, t = inv.m, inv.t
            pred = {
                1: d,
                3: d * k2,
                6: d * t // 6,
                9: d * (k2 * (k2 - 1) - t) // 3,
                8: d * k3 // 2,
                12: d * m // 12,
                16: d * (k2 * k3 - k2 * k2 + k2 + t) // 4,
            }
            partial = sum(s * c for s, c in pred.items())
            pred[24] = (d**3 - partial) // 24
            pred = {s: c for s, c in pred.items() if c}
            result.formula_counts = pred
            result.formula_agrees = pred == counts
    return result


class SymmetryCheckFailed(RuntimeError):
    """A map between orbits fails its check: it is no isomorphism of the
    sigma-labelled orbit graphs, or it does not carry a plague to a plague."""


def orbit_isomorphic(o1, o2, witness=False):
    """Edge-label-preserving digraph isomorphism of the two orbit graphs.

    Two orbits are compared by canonical BFS codes; the witness (a mapping
    index(o1) -> index(o2)) is produced by matching canonical traversals
    and checked against every edge.
    """
    if o1.arity != o2.arity or o1.size != o2.size:
        return None if witness else False
    code1, order1 = _canonical_code(o1)
    code2, order2 = _canonical_code(o2)
    if code1 != code2:
        return None if witness else False
    if not witness:
        return True
    return order_isomorphism(o1, order1, o2, order2)


def order_isomorphism(o1, order1, o2, order2):
    """The map phi (index of o1 -> index of o2) sending the i-th vertex of
    order1 to the i-th of order2, checked to carry every sigma edge and
    inverse edge of o1 onto the same-labelled edge of o2."""
    phi = [0] * o1.size
    for a, b in zip(order1, order2):
        phi[a] = b
    gens1 = list(o1.edges) + list(o1.inv_edges)
    gens2 = list(o2.edges) + list(o2.inv_edges)
    if sorted(phi) != list(range(o2.size)) or any(
        phi[g1[x]] != g2[phi[x]] for g1, g2 in zip(gens1, gens2) for x in range(o1.size)
    ):
        raise SymmetryCheckFailed("map is not an isomorphism of the sigma-labelled orbit graphs")
    return tuple(phi)


def canonical_code(o):
    return _canonical_code(o)[0]


def _canonical_code(o):
    return min(rooted_codes(o), key=lambda code_order: code_order[0])


def rooted_codes(o):
    """The BFS code and visiting order of the orbit graph from every root.

    Two roots with equal codes are exchanged by the automorphism that sends
    the i-th vertex of one order to the i-th vertex of the other.
    """
    return [_bfs_code(o, start) for start in range(o.size)]


def _bfs_code(o, start):
    gens = list(o.edges) + list(o.inv_edges)
    number = {start: 0}
    order = [start]
    code = []
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for g in gens:
            w = g[v]
            if w not in number:
                number[w] = len(order)
                order.append(w)
            code.append(number[w])
    return tuple(code), order


def conjugate_orbit(r, word, o):
    """Apply an inner-group element diagonally to every tuple of the orbit.

    ``word`` is a sequence of (element, exponent) pairs denoting the
    composite phi_{e1}^{s1} o ... o phi_{ek}^{sk} (leftmost outermost).
    """
    g = perms.identity(r.size)
    for elem, exp in word:
        p = r.phi(elem) if exp >= 0 else r.phi_inv(elem)
        for _ in range(abs(exp)):
            g = perms.compose(g, p)
    seed = tuple(g[v] for v in o.tuples[0])
    return orbit(r, seed)


def inner_product_invariant(r, tup):
    """phi_{x1} ... phi_{xn} as a permutation: constant on Hurwitz orbits."""
    g = perms.identity(r.size)
    for v in tup:
        g = perms.compose(g, r.phi(v))
    return g


# ---------------------------------------------------------------------------
# reference orbit graphs, one per size occurring over braided racks

def _reference_seeds():
    tr3 = trivial_rack(3)
    d3 = preset("D3")
    a4 = preset("A")
    c10 = preset("C")
    t4 = preset("T")
    aff = preset("Aff(7,3)")
    seeds = {
        1: (d3, (0, 0, 0)),
        3: (a4, (0, 0, 3)),      # x4 commutes with x1
        6: (tr3, (0, 1, 2)),     # three distinct pairwise-commuting entries
        8: (d3, (0, 0, 1)),
        9: (c10, (0, 7, 8)),     # x1 commutes with x8 and x9; x8, x9 do not
        12: (t4, (0, 2, 1)),     # (a, a|>c, c) with a|>^3 c = c
        16: (c10, (0, 7, 1)),    # exactly one commuting pair (x1, x8)
        24: (aff, None),
    }
    return seeds


_REFERENCE_CACHE = {}


def reference_orbit(size):
    """A concrete orbit whose graph represents the isomorphism class."""
    if size not in _REFERENCE_CACHE:
        seeds = _reference_seeds()
        if size not in seeds:
            raise KeyError("no reference orbit of size %d" % size)
        r, seed = seeds[size]
        if seed is None:
            for tup in itertools.product(range(r.size), repeat=3):
                o = orbit(r, tup)
                if o.size == size:
                    break
            else:
                raise AssertionError("no orbit of size %d found" % size)
        else:
            o = orbit(r, seed)
        if o.size != size:
            raise AssertionError(
                "reference seed produced size %d, wanted %d" % (o.size, size)
            )
        _REFERENCE_CACHE[size] = o
    return _REFERENCE_CACHE[size]


REFERENCE_SIZES = (1, 3, 6, 8, 9, 12, 16, 24)
