"""Finite racks: validation, presets, invariants, isomorphism.

Elements are 0-based integers 0..d-1 throughout the Python API; the JSON
file format and the CLI number them 1..d.  ``table[x][y]`` is x |> y.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import perms
from .fields import PrimeField, QuotientRing, _is_prime

INNER_GROUP_CAP = 10**7


class RackError(Exception):
    pass


class RowNotPermutation(RackError):
    def __init__(self, row):
        super().__init__("row %d is not a permutation" % row)
        self.row = row


class SelfDistributivityFails(RackError):
    def __init__(self, i, j, k):
        super().__init__(
            "self-distributivity fails at (%d, %d, %d)" % (i, j, k)
        )
        self.triple = (i, j, k)


class UnknownPreset(RackError):
    pass


class AffineNotARack(RackError):
    pass


class ElementNotInGroup(RackError):
    pass


class InnerGroupCapExceeded(RackError):
    pass


class Rack:
    """A validated finite rack.  Immutable; safe to share across threads."""

    __slots__ = ("size", "table", "_phis", "_phi_invs", "name")

    def __init__(self, table, name=None):
        table = tuple(tuple(row) for row in table)
        _validate(table)
        self.size = len(table)
        self.table = table
        self._phis = table  # row x is the permutation phi_x
        self._phi_invs = tuple(perms.inverse(row) for row in table)
        self.name = name

    def apply(self, x, y):
        return self.table[x][y]

    def phi(self, x):
        return self._phis[x]

    def phi_inv(self, x):
        return self._phi_invs[x]

    def elements(self):
        return range(self.size)

    def is_quandle(self):
        return all(self.table[x][x] == x for x in range(self.size))

    def __eq__(self, other):
        return isinstance(other, Rack) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        if self.name:
            return "Rack(%s, size=%d)" % (self.name, self.size)
        return "Rack(size=%d)" % self.size

    def to_json(self):
        return json.dumps(
            {"size": self.size, "table": [[v + 1 for v in row] for row in self.table]},
            separators=(", ", ": "),
        )

    @classmethod
    def from_json(cls, text, name=None):
        data = json.loads(text)
        table = [[v - 1 for v in row] for row in data["table"]]
        if len(table) != data["size"]:
            raise RackError("size field does not match table")
        return cls(table, name=name)


def _validate(table):
    d = len(table)
    full = frozenset(range(d))
    for i, row in enumerate(table):
        if len(row) != d or set(row) != full:
            raise RowNotPermutation(i)
    for i in range(d):
        ri = table[i]
        for j in range(d):
            rj = table[j]
            rij = table[ri[j]]
            for k in range(d):
                if ri[rj[k]] != rij[ri[k]]:
                    raise SelfDistributivityFails(i, j, k)


def validate_rack(table, name=None):
    """Validate a 0-based operation table and wrap it as a Rack."""
    return Rack(table, name=name)


def trivial_rack(d):
    return Rack([[y for y in range(d)] for _ in range(d)], name="trivial(%d)" % d)


# ---------------------------------------------------------------------------
# presets (labelings documented in the README)

def _rack_from_phis(phis, name):
    d = len(phis)
    return Rack([list(p) for p in phis], name=name)


def _dihedral3():
    # phi_1 = (2 3), phi_2 = (1 3), phi_3 = (1 2)   [1-based labels]
    return _rack_from_phis(
        [
            perms.from_cycles(3, [(1, 2)]),
            perms.from_cycles(3, [(0, 2)]),
            perms.from_cycles(3, [(0, 1)]),
        ],
        "D3",
    )


def _tetrahedral():
    # phi_1 = (2 3 4); the braided extension is forced
    return _rack_from_phis(
        [
            perms.from_cycles(4, [(1, 2, 3)]),
            perms.from_cycles(4, [(2, 0, 3)]),
            perms.from_cycles(4, [(3, 0, 1)]),
            perms.from_cycles(4, [(0, 2, 1)]),
        ],
        "T",
    )


def _transpositions_s4():
    # x1=(1 2), x2=(2 3), x3=(1 3), x4=(3 4), x5=(2 4), x6=(1 4) in S4,
    # conjugation rack; phi_1 = (2 3)(5 6), phi_2 = (1 3)(4 5)
    return _conjugation_rack_from_transpositions(_TRANSPOSITION_LABELS["A"], 4, "A")


def _transpositions_s5():
    # x1=(1 2), x2=(2 3), x3=(1 3), x4=(2 4), x5=(1 4),
    # x6=(2 5), x7=(1 5), x8=(3 4), x9=(3 5), x10=(4 5) in S5
    return _conjugation_rack_from_transpositions(_TRANSPOSITION_LABELS["C"], 5, "C")


_TRANSPOSITION_LABELS = {
    "A": [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)],
    "C": [
        (0, 1), (1, 2), (0, 2), (1, 3), (0, 3),
        (1, 4), (0, 4), (2, 3), (2, 4), (3, 4),
    ],
}


def preset_transposition_labels(name):
    """The documented transposition underlying each element of A or C."""
    return list(_TRANSPOSITION_LABELS[name])


def conjugation_rack(members, name=None):
    """Rack on a conjugation-closed list of permutations: x |> y is
    members[x] members[y] members[x]^-1, as an index into ``members``."""
    index = {p: i for i, p in enumerate(members)}
    table = [
        [index[perms.compose(px, perms.compose(py, perms.inverse(px)))] for py in members]
        for px in members
    ]
    return Rack(table, name=name)


def _conjugation_rack_from_transpositions(labels, n, name):
    return conjugation_rack([perms.from_cycles(n, [t]) for t in labels], name=name)


def _four_cycles_s4():
    # phi_1 = (2 3 4 5), phi_2 = (3 1 5 6); remaining rows forced
    return _rack_from_phis(
        [
            perms.from_cycles(6, [(1, 2, 3, 4)]),
            perms.from_cycles(6, [(2, 0, 4, 5)]),
            perms.from_cycles(6, [(3, 0, 1, 5)]),
            perms.from_cycles(6, [(4, 0, 2, 5)]),
            perms.from_cycles(6, [(1, 0, 3, 5)]),
            perms.from_cycles(6, [(1, 4, 3, 2)]),
        ],
        "B",
    )


def affine_rack(q, alpha, name=None):
    """Affine rack on F_q with x |> y = (1-a)x + ay, a = alpha.

    q is a prime or the square of a prime.  For prime q, ``alpha`` is an
    integer mod q.  For q = p^2 the field model is Fp(p)[t]/(t^2 - n) with
    the documented n (n = 1 mod 3 convention: t^2+1 for F9, t^2+2 for F25,
    otherwise minus the smallest non-residue), and ``alpha`` is either an
    integer (image of the prime field) or a coefficient pair (a0, a1).
    """
    p, k = _prime_power(q)
    if k == 1:
        fld = PrimeField(p)
        a = fld.from_int(alpha if isinstance(alpha, int) else alpha[0])
        elems = fld.elements()
    elif k == 2:
        fld = QuotientRing(PrimeField(p), _f_p2_modulus(p))
        if isinstance(alpha, int):
            a = fld.from_int(alpha)
        else:
            base = fld.base
            a = (base.from_int(alpha[0]), base.from_int(alpha[1]))
        elems = _f_p2_elements(fld)
    else:
        raise AffineNotARack("only prime and prime-square field sizes supported")
    if fld.is_zero(a):
        raise AffineNotARack("alpha = 0 is not invertible")
    index = {e: i for i, e in enumerate(elems)}
    one_minus_a = fld.sub(fld.one, a)
    table = [
        [index[fld.add(fld.mul(one_minus_a, x), fld.mul(a, y))] for y in elems]
        for x in elems
    ]
    try:
        return Rack(table, name=name or "Aff(%d,%s)" % (q, alpha))
    except RackError as exc:
        raise AffineNotARack(str(exc)) from exc


def _prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise AffineNotARack("%d is not a prime power" % q)
            return p, k
    raise AffineNotARack("bad field size %d" % q)


def _f_p2_modulus(p):
    """Monic degree-2 modulus for F_{p^2} over F_p, pinned per preset docs."""
    if p == 3:
        return [1, 0, 1]           # t^2 + 1
    if p == 5:
        return [2, 0, 1]           # t^2 + 2
    squares = {(x * x) % p for x in range(p)}
    for n in range(2, p):
        if n not in squares:
            return [(-n) % p, 0, 1]  # t^2 - n
    raise AffineNotARack("no quadratic non-residue mod %d" % p)


def _f_p2_elements(fld):
    """F_{p^2} elements ordered a0 + a1*t with index 1 + a0 + p*a1 (1-based)."""
    base = fld.base
    p = base.p
    return [
        (base.from_int(a0), base.from_int(a1)) for a1 in range(p) for a0 in range(p)
    ]


def braided_affine_param(p):
    """A field size q in {p, p^2} and alpha with 1 - alpha + alpha^2 = 0.

    For p > 3 prime such an alpha always exists, so Aff(q, alpha) is a
    braided indecomposable affine rack.  alpha is returned as an int when
    q = p and as a coefficient pair (a0, a1) when q = p^2.
    """
    if p <= 3 or not _is_prime(p):
        raise ValueError("p must be a prime > 3")
    for a in range(p):
        if (1 - a + a * a) % p == 0:
            return p, a
    fld = QuotientRing(PrimeField(p), _f_p2_modulus(p))
    for e in _f_p2_elements(fld):
        v = fld.add(fld.sub(fld.one, e), fld.mul(e, e))
        if fld.is_zero(v):
            return p * p, (e[0], e[1])
    raise AssertionError("unreachable: F_{p^2} always contains a 6th root of unity")


_PRESET_BUILDERS = {
    "D3": _dihedral3,
    "T": _tetrahedral,
    "A": _transpositions_s4,
    "B": _four_cycles_s4,
    "C": _transpositions_s5,
    "Aff(7,3)": lambda: affine_rack(7, 3),
    "Aff(7,5)": lambda: affine_rack(7, 5),
    "Aff(9,2)": lambda: affine_rack(9, 2),
}


def preset_names():
    return sorted(_PRESET_BUILDERS)


def preset(name):
    """Named rack with its fixed, documented labeling."""
    if name in _PRESET_BUILDERS:
        return _PRESET_BUILDERS[name]()
    if name.startswith("Aff(") and name.endswith(")"):
        body = name[4:-1]
        parts = body.split(",")
        if len(parts) == 2:
            try:
                return affine_rack(int(parts[0]), int(parts[1]))
            except ValueError:
                pass
    raise UnknownPreset(name)


# ---------------------------------------------------------------------------
# invariants

@dataclass
class RackInvariants:
    size: int
    is_quandle: bool
    is_braided: bool
    is_faithful: bool
    is_indecomposable: bool
    component_partition: tuple
    inner_group_order: int
    k: dict | None = None          # n -> k_n, n >= 2 (up to 2d)
    m: int | None = None
    t: int | None = None
    degree: int | None = None
    notes: dict = field(default_factory=dict)

    @property
    def k2(self):
        return self.k.get(2, 0) if self.k is not None else None

    @property
    def k3(self):
        return self.k.get(3, 0) if self.k is not None else None


def components(r):
    """Orbits of the inner group on the elements, as a sorted partition."""
    parent = list(range(r.size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(r.size):
        row = r.table[x]
        for y in range(r.size):
            ra, rb = find(y), find(row[y])
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for x in range(r.size):
        groups.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(g) for g in groups.values()))


def is_indecomposable(r):
    return len(components(r)) == 1


def is_faithful(r):
    return len(set(r.table)) == r.size


def is_braided(r):
    """Quandle and, for all x, y: x|>(y|>x) = y or x|>y = y."""
    if not r.is_quandle():
        return False
    t = r.table
    for x in range(r.size):
        tx = t[x]
        for y in range(r.size):
            if tx[y] != y and tx[t[y][x]] != y:
                return False
    return True


def return_sequence_index(r, x, y, max_n):
    """Smallest n <= max_n with the alternating expression equal to y, else None.

    The expression with n elements is x, x|>y, x|>(y|>x), x|>(y|>(x|>y)), ...
    (n letters alternating x, y from the outside in).
    """
    if x == y:
        return None  # the 1-element expression already equals y
    even = r.table[x][y]  # expression with 2 elements
    if even == y:
        return 2
    exprs = {1: x, 2: even}
    for n in range(3, max_n + 1):
        prev = exprs[n - 2]
        cur = r.table[x][r.table[y][prev]]
        exprs[n] = cur
        if cur == y:
            return n
    return None


def invariants(r):
    """All rack invariants.  k_n / m / t / degree need an indecomposable,
    faithful rack; otherwise those fields are None with a reason in notes."""
    comp = components(r)
    indec = len(comp) == 1
    faith = is_faithful(r)
    braided = is_braided(r)
    quandle = r.is_quandle()
    inner = inner_group_order(r)
    inv = RackInvariants(
        size=r.size,
        is_quandle=quandle,
        is_braided=braided,
        is_faithful=faith,
        is_indecomposable=indec,
        component_partition=comp,
        inner_group_order=inner,
    )
    if not indec:
        inv.notes["k"] = inv.notes["m"] = inv.notes["t"] = inv.notes["degree"] = (
            "undefined: rack is decomposable"
        )
        return inv
    if not faith:
        inv.notes["k"] = inv.notes["m"] = inv.notes["t"] = (
            "undefined: rack is not faithful"
        )
        inv.degree = perms.order(r.phi(0))
        return inv
    k_max = 2 * r.size
    x = 0
    k = {}
    for y in range(r.size):
        if y == x:
            continue
        n = return_sequence_index(r, x, y, k_max)
        if n is not None:
            k[n] = k.get(n, 0) + 1
    inv.k = k
    inv.m = sum(
        1
        for y in range(r.size)
        if r.table[x][y] != y and _iterate(r, x, y, 3) == y
    )
    fixed = [y for y in range(r.size) if y != x and r.table[x][y] == y]
    inv.t = sum(
        1
        for a in fixed
        for b in fixed
        if a != b and r.table[a][b] == b
    )
    inv.degree = perms.order(r.phi(x))
    return inv


def _iterate(r, x, y, n):
    for _ in range(n):
        y = r.table[x][y]
    return y


def inner_group_order(r):
    try:
        return len(perms.mulclose([r.phi(x) for x in range(r.size)], cap=INNER_GROUP_CAP))
    except OverflowError as exc:
        raise InnerGroupCapExceeded(str(exc)) from exc


# ---------------------------------------------------------------------------
# isomorphism

def _element_profile(r):
    """Per-element invariant used to prune the isomorphism search."""
    prof = []
    for x in range(r.size):
        row_type = perms.cycle_type(r.phi(x))
        fixes = sum(1 for y in range(r.size) if r.table[x][y] == y)
        fixed_by = sum(1 for y in range(r.size) if r.table[y][x] == x)
        prof.append((row_type, fixes, fixed_by, r.table[x][x] == x))
    return prof


def is_isomorphic(r1, r2, witness=False):
    """Rack isomorphism by backtracking with per-element profile pruning.

    With witness=True returns the bijection (tuple f with f[x] in r2) or
    None; otherwise a bool.
    """
    found = _find_isomorphism(r1, r2)
    if witness:
        return found
    return found is not None


def _find_isomorphism(r1, r2):
    if r1.size != r2.size:
        return None
    p1, p2 = _element_profile(r1), _element_profile(r2)
    if sorted(p1) != sorted(p2):
        return None
    d = r1.size
    candidates = [[y for y in range(d) if p2[y] == p1[x]] for x in range(d)]
    f = [-1] * d
    finv = [-1] * d

    def extend(x):
        if x == d:
            return True
        for y in candidates[x]:
            if finv[y] != -1:
                continue
            f[x] = y
            finv[y] = x
            ok = True
            for a in range(x + 1):
                fa = f[a]
                for b in range(x + 1):
                    c = r1.table[a][b]
                    img = r2.table[fa][f[b]]
                    if c <= x:
                        if img != f[c]:
                            ok = False
                            break
                    elif finv[img] != -1:
                        ok = False  # img already taken by a mapped element
                        break
                if not ok:
                    break
            if ok and extend(x + 1):
                return True
            finv[y] = -1
            f[x] = -1
        return False

    if extend(0):
        return tuple(f)
    return None


def conjugacy_class_rack(generators, g):
    """Rack on the conjugacy class of g under the group the generators make.

    Returns (rack, labeling): labeling[i] is the permutation of the i-th
    rack element; element 0 is g itself and the rest follow BFS discovery.
    """
    members, _, _ = perms.conjugacy_class(generators, g)
    grp = perms.mulclose(generators)
    if tuple(g) not in grp:
        raise ElementNotInGroup("g is not in the generated group")
    return conjugation_rack(members), members
