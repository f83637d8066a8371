"""Exhaustive search for indecomposable braided racks by degree and k3.

The search fixes phi_1 to a canonical permutation of each admissible cycle
type (k3 moved points, order = the degree), then extends the operation
table cell by cell with constraint propagation:

* rows are partial injections sharing phi_1's cycle type;
* the quandle law and the braided three-cycle law (x|>y = z, z != y forces
  y|>z = x and z|>x = y, and x|>y = y forces y|>x = x) fire on assignment;
* self-distributivity x|>(y|>a) = (x|>y)|>(x|>a) is propagated whenever
  three of the four cells are known;
* fresh elements are introduced in first-use order, which is a complete
  symmetry break because phi_1 fixes them all.

Completed tables are validated from scratch, filtered, and deduplicated by
isomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .racks import RackError, invariants, is_braided, is_isomorphic, preset, validate_rack


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


class _State:
    __slots__ = ("table", "rowset", "support", "trail")

    def __init__(self, size_cap):
        self.table = [[-1] * size_cap for _ in range(size_cap)]
        self.rowset = [set() for _ in range(size_cap)]
        self.support = 0
        self.trail = []


class _Search:
    def __init__(self, spec, degree, k3, ctype):
        self.spec = spec
        self.degree = degree
        self.k3 = k3
        self.ctype = tuple(sorted(ctype, reverse=True))
        self.cap = spec.size_max
        self.results = []

    def run(self):
        cycles, moved = _phi1_from_type(self.ctype)
        if moved >= self.cap:
            return self.results
        st = _State(self.cap)
        st.support = moved + 1
        ok = True
        for x in range(st.support):
            if not self._assign(st, x, x, x):
                ok = False
                break
        if ok:
            for cyc in cycles:
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    if not self._assign(st, 0, a, b):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            # 0 fixes everything else; fresh elements get their cell on arrival
            for y in range(st.support):
                if st.table[0][y] == -1 and not self._assign(st, 0, y, y):
                    ok = False
                    break
        if ok:
            self._extend(st)
        return self.results

    # -- assignment with propagation ---------------------------------------

    def _assign(self, st, x, y, z):
        """Set x|>y = z; returns False on contradiction.  Records the trail."""
        queue = [(x, y, z)]
        while queue:
            x, y, z = queue.pop()
            cur = st.table[x][y]
            if cur != -1:
                if cur != z:
                    return False
                continue
            if z != y and z in st.rowset[x]:
                return False
            if max(x, y, z) >= st.support:
                # fresh elements must appear in order
                new = max(x, y, z)
                if new > st.support or new >= self.cap:
                    return False
                st.support += 1
                st.trail.append(("support",))
                # quandle cell and phi_1 fixes the newcomer (it is beyond
                # phi_1's moved points, which are all < initial support)
                queue.append((new, new, new))
                queue.append((0, new, new))
                queue.append((x, y, z))
                continue
            st.table[x][y] = z
            st.rowset[x].add(z)
            st.trail.append(("cell", x, y, z))
            # row cycle-type feasibility
            if not self._row_feasible(st, x):
                return False
            # braided laws
            if x != y:
                if z == y:
                    queue.append((y, x, x))
                else:
                    queue.append((y, z, x))
                    queue.append((z, x, y))
            # self-distributivity triggers involving the new cell
            if not self._propagate_sd(st, x, y, z, queue):
                return False
        return True

    def _row_feasible(self, st, x):
        """Partial phi_x must extend to a permutation of cycle type ctype."""
        row = st.table[x]
        moved = sum(1 for y in range(st.support) if row[y] not in (-1, y))
        if moved > self.k3:
            return False
        # closed cycles must have admissible length; build via traversal
        visited = set()
        for y in range(st.support):
            if y in visited or row[y] in (-1, y):
                continue
            # walk forward while defined
            chain = [y]
            cur = y
            closed = False
            while True:
                nxt = row[cur]
                if nxt == -1 or nxt == cur:
                    break
                if nxt == y:
                    closed = True
                    break
                if nxt in chain:
                    break
                chain.append(nxt)
                cur = nxt
            if closed and len(set(chain) - visited) == len(chain):
                if not self._cycle_ok(len(chain)):
                    return False
            visited.update(chain)
        return True

    def _cycle_ok(self, length):
        return length in self.ctype

    def _propagate_sd(self, st, x, y, z, queue):
        """Fire x|>(y|>a) = (x|>y)|>(x|>a) instances touching cell (x, y)."""
        t = st.table
        sup = st.support
        # role 1: (x, y) as the outer pair (X, Y) with X|>Y = Z known:
        X, Y, Z = x, y, z
        for a in range(sup):
            ya = t[Y][a]
            xa = t[X][a]
            if ya != -1 and xa != -1:
                lhs = t[X][ya]
                if lhs != -1:
                    queue.append((Z, xa, lhs))
                else:
                    rhs = t[Z][xa]
                    if rhs != -1:
                        queue.append((X, ya, rhs))
        # role 2: (x, y) as (Y, a): for all X with X|>Y known
        Y2, a2 = x, y
        for X in range(sup):
            Z2 = t[X][Y2]
            xa = t[X][a2]
            if Z2 != -1 and xa != -1:
                lhs = t[X][z]
                if lhs != -1:
                    queue.append((Z2, xa, lhs))
                else:
                    rhs = t[Z2][xa]
                    if rhs != -1:
                        queue.append((X, z, rhs))
        # role 3: (x, y) as (X, a): for all Y with X|>Y known
        X3, a3 = x, y
        for Y in range(sup):
            Z3 = t[X3][Y]
            ya = t[Y][a3]
            if Z3 != -1 and ya != -1:
                lhs = t[X3][ya]
                if lhs != -1:
                    queue.append((Z3, z, lhs))
                else:
                    rhs = t[Z3][z]
                    if rhs != -1:
                        queue.append((X3, ya, rhs))
        # role 4: (x, y) as the outer cell (Z, xa): for X, a with x = X|>Y...
        Z4, xa4 = x, y
        for X in range(sup):
            for Y in range(sup):
                if t[X][Y] != Z4:
                    continue
                for a in range(sup):
                    if t[X][a] != xa4:
                        continue
                    ya = t[Y][a]
                    if ya != -1:
                        queue.append((X, ya, z))
        return True

    def _undo_to(self, st, mark):
        while len(st.trail) > mark:
            item = st.trail.pop()
            if item[0] == "support":
                st.support -= 1
            else:
                _, x, y, z = item
                st.table[x][y] = -1
                st.rowset[x].discard(z)

    def _extend(self, st):
        cell = self._pick_cell(st)
        if cell is None:
            self._harvest(st)
            return
        x, y = cell
        # candidate values: current support plus one fresh element
        cands = list(range(st.support))
        if st.support < self.cap:
            cands.append(st.support)
        for z in cands:
            if z != y and z in st.rowset[x]:
                continue
            mark = len(st.trail)
            if self._assign(st, x, y, z):
                self._extend(st)
            self._undo_to(st, mark)

    def _pick_cell(self, st):
        for x in range(st.support):
            row = st.table[x]
            for y in range(st.support):
                if row[y] == -1:
                    return (x, y)
        return None

    def _harvest(self, st):
        d = st.support
        table = [row[:d] for row in st.table[:d]]
        try:
            r = validate_rack(table)
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


# ---------------------------------------------------------------------------
# table verification

EXPECTED_BRAIDED_RACKS = {
    # name -> (degree, size, k3, m)
    "D3": (2, 3, 2, 0),
    "T": (3, 4, 3, 3),
    "A": (2, 6, 4, 0),
    "B": (4, 6, 4, 0),
    "C": (2, 10, 6, 0),
    "Aff(7,3)": (6, 7, 6, 0),
    "Aff(7,5)": (6, 7, 6, 0),
}

EXPECTED_DEG2_K3 = {
    # name -> (size, k3)
    "D3": (3, 2),
    "A": (6, 4),
    "Aff(9,2)": (9, 8),
    "C": (10, 6),
}


def verify_tables():
    """Recompute the reference rack tables from the presets.

    Returns a list of (table, name, expected, computed, match) entries.
    """
    report = []
    for name, (deg, size, k3, m) in sorted(EXPECTED_BRAIDED_RACKS.items()):
        inv = invariants(preset(name))
        computed = (inv.degree, inv.size, inv.k3, inv.m)
        report.append(
            ("braided-racks", name, (deg, size, k3, m), computed, computed == (deg, size, k3, m))
        )
    for name, (size, k3) in sorted(EXPECTED_DEG2_K3.items()):
        inv = invariants(preset(name))
        computed = (inv.size, inv.k3)
        report.append(("deg2-k3", name, (size, k3), computed, computed == (size, k3)))
    return report
