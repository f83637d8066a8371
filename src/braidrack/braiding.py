"""Braided vector spaces of rack type with one-dimensional fibers.

A cocycle assigns a nonzero scalar q[x][y] to each pair so that
c(v_x (x) v_y) = q[x][y] v_{x|>y} (x) v_x is a braiding; the defining
condition q[x][y|>z] q[y][z] = q[x|>y][x|>z] q[x][z] is checked on all
d^3 triples at construction time.
"""
from __future__ import annotations

from . import hurwitz, perms
from .fields import QQ, QuotientRing, parse_field
from .racks import conjugation_rack, preset, preset_labels


class CocycleError(Exception):
    pass


class ZeroScalar(CocycleError):
    pass


class CocycleConditionFails(CocycleError):
    def __init__(self, x, y, z):
        super().__init__("cocycle condition fails at (%d, %d, %d)" % (x, y, z))
        self.triple = (x, y, z)


class CharacterInconsistent(CocycleError):
    pass


class NotInCentralizer(CocycleError):
    pass


class Cocycle:
    """A validated rack 2-cocycle with values in a field."""

    __slots__ = ("rack", "field", "q", "name")

    def __init__(self, rack, field, q, name=None, _validated=False):
        self.rack = rack
        self.field = field
        self.q = tuple(tuple(row) for row in q)
        self.name = name
        if not _validated:
            self._validate()

    def _validate(self):
        f, r, q = self.field, self.rack, self.q
        d = r.size
        if len(q) != d or any(len(row) != d for row in q):
            raise CocycleError("cocycle table must be %d x %d" % (d, d))
        for x in range(d):
            for y in range(d):
                if f.is_zero(q[x][y]):
                    raise ZeroScalar("q[%d][%d] = 0" % (x, y))
        t = r.table
        for x in range(d):
            for y in range(d):
                xy = t[x][y]
                for z in range(d):
                    lhs = f.mul(q[x][t[y][z]], q[y][z])
                    rhs = f.mul(q[xy][t[x][z]], q[x][z])
                    if lhs != rhs:
                        raise CocycleConditionFails(x, y, z)

    @property
    def dim(self):
        return self.rack.size

    def check_yang_baxter(self):
        """(c12 c23 c12)(v_x v_y v_z) == (c23 c12 c23)(v_x v_y v_z) on the basis."""
        d = self.rack.size
        for x in range(d):
            for y in range(d):
                for z in range(d):
                    lhs = self._apply_seq((x, y, z), (0, 1, 0))
                    rhs = self._apply_seq((x, y, z), (1, 0, 1))
                    if lhs != rhs:
                        return False
        return True

    def _apply_seq(self, word, positions):
        """c_{i+1,i+2} for each 0-based i of ``positions`` in turn: the
        Hurwitz move sigma_{i+1} times the q factor of the pair it moves."""
        coeff = self.field.one
        for i in positions:
            coeff = self.field.mul(coeff, self.q[word[i]][word[i + 1]])
            word = hurwitz.sigma(self.rack, i + 1, word)
        return word, coeff

    def __repr__(self):
        nm = self.name or "cocycle"
        return "Cocycle(%s on %r over %s)" % (nm, self.rack, self.field.spec_string())


class BraidedSpace:
    """A rack-type braided vector space: one basis vector per rack element."""

    __slots__ = ("cocycle",)

    def __init__(self, cocycle):
        self.cocycle = cocycle

    @property
    def rack(self):
        return self.cocycle.rack

    @property
    def field(self):
        return self.cocycle.field

    @property
    def dim(self):
        return self.cocycle.dim

    def __repr__(self):
        return "BraidedSpace(%r)" % (self.cocycle,)


def constant_cocycle(r, field, q, name=None):
    """q[x][y] = q for all x, y; the condition holds automatically."""
    if field.is_zero(q):
        raise ZeroScalar("constant cocycle value must be nonzero")
    d = r.size
    table = [[q] * d for _ in range(d)]
    return Cocycle(r, field, table, name=name or "constant", _validated=True)


def table_cocycle(r, field, entries, name=None):
    """Cocycle from an explicit d x d scalar table; condition checked."""
    return Cocycle(r, field, entries, name=name)


def group_model_cocycle(generators, g, rho, field, labeling=None):
    """Cocycle of the induced module of a centralizer character.

    ``generators`` generate a permutation group G, ``g`` is an element with
    conjugacy class X (the rack), and ``rho`` maps centralizer generators
    (permutations) to nonzero scalars.  Coset representatives h_x with
    h_x g h_x^{-1} = x are chosen by BFS; the cocycle is
    q[y][x] = rho(h_{y|>x}^{-1} y h_x).

    ``rho`` must be consistent on the subgroup its keys generate
    (CharacterInconsistent otherwise) and that subgroup must contain every
    element the construction evaluates.  With ``labeling`` (a list of class
    members as permutations) the rack uses that element order; otherwise
    BFS discovery order starting at g.
    """
    g = tuple(g)
    members, reps, _ = perms.conjugacy_class(generators, g)
    if labeling is not None:
        labeling = [tuple(p) for p in labeling]
        if sorted(labeling) != sorted(members):
            raise CocycleError("labeling is not the conjugacy class of g")
        members = labeling
    rack = conjugation_rack(members)
    table = rack.table
    d = rack.size

    # character values on the subgroup generated by rho's keys
    for p in rho:
        if perms.compose(tuple(p), g) != perms.compose(g, tuple(p)):
            raise NotInCentralizer("rho is defined on a non-centralizing element")
    values = {perms.identity(len(g)): field.one}
    frontier = [perms.identity(len(g))]
    gens = [(tuple(p), v) for p, v in rho.items()]
    gens += [(perms.inverse(p), field.inv(v)) for p, v in gens]
    while frontier:
        new = []
        for a in frontier:
            va = values[a]
            for p, v in gens:
                b = perms.compose(p, a)
                vb = field.mul(v, va)
                if b in values:
                    if values[b] != vb:
                        raise CharacterInconsistent(
                            "rho violates a relation of the centralizer subgroup"
                        )
                else:
                    values[b] = vb
                    new.append(b)
        frontier = new

    q = [[None] * d for _ in range(d)]
    for y in range(d):
        py = members[y]
        for x in range(d):
            yx = table[y][x]
            c = perms.compose(
                perms.inverse(reps[members[yx]]), perms.compose(py, reps[members[x]])
            )
            if c not in values:
                raise CharacterInconsistent(
                    "needed centralizer element is outside the subgroup rho generates"
                )
            q[y][x] = values[c]
    return Cocycle(rack, field, q)


def coboundary_twist(c, fvals):
    """Rescale the basis by f: q'[x][y] = q[x][y] f(y) / f(x|>y)."""
    f = c.field
    fvals = list(fvals)
    for v in fvals:
        if f.is_zero(v):
            raise ZeroScalar("twist values must be nonzero")
    r = c.rack
    d = r.size
    q = [
        [
            f.mul(c.q[x][y], f.div(fvals[y], fvals[r.table[x][y]]))
            for y in range(d)
        ]
        for x in range(d)
    ]
    return Cocycle(r, f, q, name=(c.name or "cocycle") + "+twist", _validated=True)


# ---------------------------------------------------------------------------
# cocycle presets

def _sign_pattern_tetrahedral(field, q):
    """The tetrahedral action table: entries +-q with this sign pattern."""
    mq = field.neg(q)
    return [
        [q, q, q, q],
        [q, q, mq, mq],
        [q, mq, q, mq],
        [q, mq, mq, q],
    ]


def _field_with_q(name, field, default):
    """``field``, or the field of spec ``default``: a quotient ring, whose
    generator is the preset's q."""
    fld = field or parse_field(default)
    if not isinstance(fld, QuotientRing):
        raise CocycleError("%s needs a quotient-ring field containing q" % name)
    return fld


def cocycle_preset(name, field=None):
    """Named cocycles.  Returns a BraidedSpace."""
    if name == "d3char2":
        fld = _field_with_q(name, field, "Fp(2)[t]/(t^2+t+1)")
        return BraidedSpace(
            table_cocycle(
                preset("D3"),
                fld,
                [[fld.gen] * 3 for _ in range(3)],
                name="d3char2",
            )
        )
    if name == "t-new":
        fld = _field_with_q(name, field, "QQ[t]/(t^2+t+1)")
        return BraidedSpace(
            table_cocycle(
                preset("T"), fld, _sign_pattern_tetrahedral(fld, fld.gen), name="t-new"
            )
        )
    if name == "t-sign-flipped":
        # the tetrahedral rack with diagonal -1 and the flipped centralizer sign
        fld = field or QQ
        return BraidedSpace(
            table_cocycle(
                preset("T"),
                fld,
                _sign_pattern_tetrahedral(fld, fld.from_int(-1)),
                name="t-sign-flipped",
            )
        )
    if name.startswith("minus1(") and name.endswith(")"):
        fld = field or QQ
        r = preset(name[7:-1])
        return BraidedSpace(constant_cocycle(r, fld, fld.from_int(-1), name=name))
    if name == "transposition-sign(A)":
        return transposition_model("A", 1, field)
    if name == "transposition-sign(C)":
        return transposition_model("C", 1, field)
    if name == "group(S4,(1234),-1)":
        fld = field or QQ
        g = perms.from_cycles(4, [(0, 1, 2, 3)])
        return _class_model("B", g, {g: fld.from_int(-1)}, fld, name)
    raise CocycleError("unknown cocycle preset %r" % name)


def transposition_model(which, other_sign=1, field=None):
    """The induced module over transpositions of S4 (which="A") or S5 ("C").

    ``other_sign`` is the character value on the transpositions disjoint
    from (1 2): +1 or -1 (both consistent choices).  The value on (1 2)
    itself is -1.  Returns a BraidedSpace over the preset rack labeling.
    """
    fld = field or QQ
    n = 4 if which == "A" else 5
    g = perms.from_cycles(n, [(0, 1)])
    minus = fld.from_int(-1)
    sgn = fld.one if other_sign == 1 else minus
    rho = {g: minus, perms.from_cycles(n, [(2, 3)]): sgn}
    if which == "C":
        rho[perms.from_cycles(n, [(2, 4)])] = sgn
    return _class_model(
        which, g, rho, fld, "transposition-sign(%s,%+d)" % (which, other_sign)
    )


def _class_model(rack_name, g, rho, field, name):
    """The group model of S_n, generated by [(0 1), (0 1 ... n-1)], on the
    class preset ``rack_name`` in its documented labeling.

    The cocycle depends on the BFS coset representatives, so the generator
    order is part of each preset's definition, and ``g`` is given rather
    than read from the labels.
    """
    labels = preset_labels(rack_name)
    n = len(labels[0])
    gens = [perms.from_cycles(n, [(0, 1)]), perms.from_cycles(n, [tuple(range(n))])]
    c = group_model_cocycle(gens, g, rho, field, labeling=labels)
    rack = preset(rack_name)
    if c.rack != rack:
        raise CocycleError(
            "%s: the group model's rack differs from the preset %s" % (name, rack_name)
        )
    return BraidedSpace(Cocycle(rack, field, c.q, name=name, _validated=True))
