"""Exhaustive search for indecomposable braided racks by degree and k3.

The search fixes phi_1 to a canonical permutation of each admissible cycle
type (k3 moved points, order = the degree), then extends the operation
table cell by cell with constraint propagation:

* rows are partial injections (no value twice in a row, fixed points
  included) whose closed cycles have lengths in phi_1's cycle type;
* the quandle law and the braided three-cycle law (x|>y = z, z != y forces
  y|>z = x and z|>x = y, and x|>y = y forces y|>x = x) fire on assignment;
* self-distributivity x|>(y|>a) = (x|>y)|>(x|>a) relates five cells:
  y|>a, x|>y, x|>a, the left side x|>(y|>a) and the right side
  (x|>y)|>(x|>a).  Setting any of the first three or the right side fires
  the law (`_sd`): once y|>a, x|>y and x|>a are known, a known side sets
  the other.  Setting the left side triggers nothing;
* fresh elements are introduced in first-use order, which is a complete
  symmetry break because phi_1 fixes them all.

Completed tables are validated from scratch, filtered, and deduplicated by
isomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .racks import Rack, RackError, invariants, is_braided, is_isomorphic


# no search spec may ask for racks larger than this
HARD_SIZE_CAP = 16


class SizeCapExceeded(Exception):
    pass


@dataclass
class SearchSpec:
    degrees: tuple = (2, 3, 4, 6)
    k3_max: int = 6
    size_max: int = 12

    def __post_init__(self):
        if self.size_max > HARD_SIZE_CAP:
            raise SizeCapExceeded(
                "size_max %d exceeds the hard cap %d" % (self.size_max, HARD_SIZE_CAP)
            )


def _cycle_types(k3, degree):
    """Partitions of k3 into parts >= 2 dividing the degree with lcm = degree."""
    parts = [p for p in range(2, k3 + 1) if degree % p == 0]
    out = []

    def rec(remaining, minimum, acc):
        if remaining == 0:
            if lcm(*acc) == degree:
                out.append(tuple(acc))
            return
        for p in parts:
            if p < minimum or p > remaining:
                continue
            rec(remaining - p, p, acc + [p])

    rec(k3, 2, [])
    return out


def _phi1_from_type(ctype):
    """Canonical phi_1: cycles on 1..k3 (0-based), largest part first."""
    cycles = []
    nxt = 1
    for p in sorted(ctype, reverse=True):
        cycles.append(tuple(range(nxt, nxt + p)))
        nxt += p
    return cycles, nxt - 1


def _sd(t, X, Y, a, queue):
    """Queue what X|>(Y|>a) = (X|>Y)|>(X|>a) forces once Y|>a, X|>Y, X|>a are known.

    A known left side sets the right side (a mere check if that is known
    too); otherwise a known right side sets the left side.
    """
    ya, xy, xa = t[Y][a], t[X][Y], t[X][a]
    if ya == -1 or xy == -1 or xa == -1:
        return
    lhs = t[X][ya]
    if lhs != -1:
        queue.append((xy, xa, lhs))
    elif t[xy][xa] != -1:
        queue.append((X, ya, t[xy][xa]))


class _Search:
    """Depth-first search for one cycle type of phi_1; built once, run once."""

    def __init__(self, spec, degree, k3, ctype):
        self.degree = degree
        self.k3 = k3
        self.ctype = tuple(sorted(ctype, reverse=True))
        self.cap = spec.size_max
        self.table = [[-1] * self.cap for _ in range(self.cap)]
        self.rowset = [set() for _ in range(self.cap)]
        self.support = 0
        self.trail = []
        self.results = []

    def run(self):
        cycles, moved = _phi1_from_type(self.ctype)
        if moved >= self.cap:
            return self.results
        self.support = moved + 1
        cells = [(x, x, x) for x in range(self.support)]
        cells += [(0, a, b) for cyc in cycles for a, b in zip(cyc, cyc[1:] + cyc[:1])]
        # 0 fixes everything else; fresh elements get their cell on arrival
        if all(self._assign(*cell) for cell in cells) and all(
            self._assign(0, y, y) for y in range(self.support) if self.table[0][y] == -1
        ):
            self._extend()
        return self.results

    # -- assignment with propagation ---------------------------------------

    def _assign(self, x, y, z):
        """Set x|>y = z; returns False on contradiction.  Records the trail."""
        queue = [(x, y, z)]
        while queue:
            x, y, z = queue.pop()
            cur = self.table[x][y]
            if cur != -1:
                if cur != z:
                    return False
                continue
            if z in self.rowset[x]:
                return False
            if max(x, y, z) >= self.support:
                # fresh elements must appear in order
                new = max(x, y, z)
                if new > self.support or new >= self.cap:
                    return False
                self.support += 1
                self.trail.append(("support",))
                # quandle cell and phi_1 fixes the newcomer (it is beyond
                # phi_1's moved points, which are all < initial support)
                queue.append((new, new, new))
                queue.append((0, new, new))
                queue.append((x, y, z))
                continue
            self.table[x][y] = z
            self.rowset[x].add(z)
            self.trail.append(("cell", x, y, z))
            if not self._row_feasible(x, y):
                return False
            # braided laws
            if x != y:
                if z == y:
                    queue.append((y, x, x))
                else:
                    queue.append((y, z, x))
                    queue.append((z, x, y))
            self._propagate_sd(x, y, queue)
        return True

    def _row_feasible(self, x, y):
        """Partial phi_x, just set at y, must extend to a permutation of type ctype.

        Every cycle is checked as it closes, so only the one through y is new.
        """
        row = self.table[x]
        if sum(1 for v in range(self.support) if row[v] not in (-1, v)) > self.k3:
            return False
        length, cur = 1, row[y]
        while cur not in (-1, y):
            length, cur = length + 1, row[cur]
        return cur == -1 or length == 1 or length in self.ctype

    def _propagate_sd(self, x, y, queue):
        """Fire self-distributivity on every instance where (x, y) is a trigger cell."""
        t, sup = self.table, range(self.support)
        for a in sup:  # (x, y) = (X, Y)
            _sd(t, x, y, a, queue)
        for X in sup:  # (x, y) = (Y, a)
            _sd(t, X, x, y, queue)
        for Y in sup:  # (x, y) = (X, a)
            _sd(t, x, Y, y, queue)
        for X in sup:  # (x, y) = (X|>Y, X|>a)
            row = t[X]
            if x in row and y in row:
                _sd(t, X, row.index(x), row.index(y), queue)

    def _undo_to(self, mark):
        while len(self.trail) > mark:
            item = self.trail.pop()
            if item[0] == "support":
                self.support -= 1
            else:
                _, x, y, z = item
                self.table[x][y] = -1
                self.rowset[x].discard(z)

    def _extend(self):
        cell = self._pick_cell()
        if cell is None:
            self._harvest()
            return
        x, y = cell
        # the current support plus one fresh element, which _assign cuts at the cap
        for z in range(self.support + 1):
            if z in self.rowset[x]:
                continue
            mark = len(self.trail)
            if self._assign(x, y, z):
                self._extend()
            self._undo_to(mark)

    def _pick_cell(self):
        for x in range(self.support):
            row = self.table[x]
            for y in range(self.support):
                if row[y] == -1:
                    return (x, y)
        return None

    def _harvest(self):
        d = self.support
        table = [row[:d] for row in self.table[:d]]
        try:
            r = Rack(table)
        except RackError:
            return
        if not is_braided(r):
            return
        inv = invariants(r)
        if not inv.is_indecomposable:
            return
        if inv.degree != self.degree or inv.k3 != self.k3:
            return
        self.results.append(r)


def search(spec):
    """All indecomposable braided racks matching the spec, up to isomorphism.

    Output is sorted by (size, operation table of the representative) and
    therefore deterministic.
    """
    found = []
    for degree in sorted(set(spec.degrees)):
        for k3 in range(1, spec.k3_max + 1):
            for ctype in _cycle_types(k3, degree):
                for r in _Search(spec, degree, k3, ctype).run():
                    if not any(is_isomorphic(r, s) for s in found):
                        found.append(r)
    found.sort(key=lambda r: (r.size, r.table))
    return found
