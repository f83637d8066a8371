"""Finitely presented graded quotients, derivation chains, integrals.

A presentation is a braided space together with homogeneous relation
vectors (sparse dicts word -> scalar).  The quotient T(V)/(relations) is
built degree by degree: degree n is V (x) A_{n-1} modulo the image of the
relations placed at the left edge, which together with the recursion
covers the whole ideal component.  A relation that adds no row in some
degree is implied there by V (x) I and the relations before it, and so in
every later degree; it is retired (see :class:`QuotientEngine`).
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .braiding import BraidedSpace, cocycle_preset
from .linalg import Echelon
from .nichols import GradedEngine, NicholsEngine, NotHomogeneous


@dataclass
class Presentation:
    space: BraidedSpace
    relations: list  # sparse dicts word -> scalar, each homogeneous

    def __post_init__(self):
        f, size = self.space.field, self.space.dim
        # a zero term is no term: it counts in no degree or grade, and a
        # relation without one is kept as given
        self.relations = [
            {w: c for w, c in r.items() if not f.is_zero(c)} if any(map(f.is_zero, r.values())) else r
            for r in self.relations
        ]
        for i, r in enumerate(self.relations):
            for w in r:
                if not all(0 <= x < size for x in w):
                    raise ValueError("word %r has a letter outside a..%s"
                                     % ("".join(chr(ord("a") + x) for x in w), chr(ord("a") + size - 1)))
            if not r:
                raise NotHomogeneous("relation %d has no nonzero term" % i)
            if len({len(w) for w in r}) != 1:
                raise NotHomogeneous("every relation must be homogeneous")


def relation_in_kernel(p, engine=None):
    """For each relation r of degree n, whether S_n(r) = 0.

    r is reduced in the differential engine: its normal form is 0 exactly
    when r is in the symmetrizer kernel.
    """
    eng = engine or NicholsEngine(p.space)
    return [not eng.nf_vector(r, len(next(iter(r)))) for r in p.relations]


class QuotientEngine(GradedEngine):
    """Degree-by-degree basis of T(V)/(relations).

    The eliminated space in degree n is spanned by pi(r * b) over relations
    r of degree g and basis words b of degree n - g, which equals the full
    ideal component.  In each grade block the candidates at the pivots of
    those vectors are eliminated and the others become basis words.

    A relation is retired after the first degree m at which none of its
    placements became a row, and ``retired[i] = m`` records it for the
    relation of index i.  Vectors enter each block's elimination in
    relation-list order, so there every r * b reduced to zero in candidate
    coordinates, which already quotient out V (x) I_{m-1}, against the
    placements at m of lower-index relations.  Every word u of degree
    m - g is a sum of basis words modulo I, and r * I lies in V (x) I_{m-1},
    so r * T_{m-g} lies in V (x) I_{m-1} plus those placements.  Multiplying
    on the right, for every n > m, r * T_{n-g} lies in V (x) I_{n-1} plus
    the placements at n of lower-index relations.  A retired lower-index
    relation reduces the same way, and the induction on the index ends at
    relations that are not retired, so skipping r keeps every ideal
    component.  A fully reduced echelon with least-key pivots depends only
    on its span, so basis and nfmul are those of the engine that places
    every relation.  This is the one-sided case of Bergman's diamond-lemma
    overlap reduction (G. M. Bergman, Adv. Math. 29 (1978)).
    """

    def __init__(self, presentation):
        super().__init__(presentation.space)
        self.p = presentation
        self.rel_degrees = [len(next(iter(r))) for r in presentation.relations]
        self._rel_grades = []
        for r in presentation.relations:
            grades = {self.grading.of_word(w) for w in r}
            if len(grades) != 1:
                raise NotHomogeneous("relation is not grade-homogeneous; split it by group degree")
            self._rel_grades.append(grades.pop())
        low = min(self.rel_degrees, default=2)
        if low < 2:
            raise NotHomogeneous("degree-%d relations are not supported" % low)
        self.retired = {}

    def _build_degree(self, n):
        blocks = self._grade_blocks(n)
        # each grade's placements (relation index, tail basis index), in
        # relation-list order: r * b has grade grade(r) * grade(b)
        placements = {}
        idle = set()
        for i, g in enumerate(self._rel_grades):
            tail_deg = n - self.rel_degrees[i]
            if tail_deg < 0 or i in self.retired:
                continue
            idle.add(i)
            for bidx, h in enumerate(self.grades[tail_deg]):
                placements.setdefault(self.grading.mul(g, h), []).append((i, bidx))
        for made_rows in self._run_blocks(n, blocks, placements):
            idle -= made_rows
        # a degree with no candidates places nothing, so it retires nothing
        if blocks:
            for i in sorted(idle):
                self.retired[i] = n

    def _reduce_block(self, n, grade, cands, placements):
        """Place and eliminate the block's relations; its words, forms and
        the indices of the relations that made a row."""
        vs, relations = self.vs, self.p.relations
        ideal = Echelon(self.f, cands)
        made_rows = set()
        for i, bidx in placements.get(grade, ()):
            # r * b: each term c w of r is w[0] * (w[1:] * b)
            tail = vs.vector([bidx], vs.unit([bidx], 0))
            if ideal.add(vs.lift(ideal, [(w[0], w[1:], tail, c) for w, c in relations[i].items()], n)):
                made_rows.add(i)
        new, forms = ideal.forms(cands)
        return new, forms, made_rows


def quotient_dims(p, up_to):
    """Graded dims 0..up_to of T(V)/(relations)."""
    return QuotientEngine(p).dims(up_to)


# ---------------------------------------------------------------------------
# relation tables for the two finite-dimensional quotients shipped as presets

def _words(s):
    """Parse 'aab' into a tuple of 0-based letters."""
    return tuple(ord(ch) - ord("a") for ch in s)


def _rel(field, terms):
    """terms: list of (word string, scalar literal); 'q' is the generator."""
    out = {}
    for w, cs in terms:
        word = _words(w)
        if word in out:
            raise ValueError("word %r appears twice in one relation" % w)
        out[word] = field.parse(cs)
    return out


def d3_char2_relations(field):
    """Defining relations of the 432-dimensional quotient (char 2, q^2+q+1=0)."""
    rels = [
        _rel(field, [("ab", "1"), ("bc", "q^2"), ("ca", "q")]),
        _rel(field, [("ac", "1"), ("cb", "q^2"), ("ba", "q")]),
        _rel(field, [("aaa", "1")]),
        _rel(field, [("bbb", "1")]),
        _rel(field, [("ccc", "1")]),
        _rel(
            field,
            [
                ("aabbaabbaabb", "1"),
                ("baabbaabbaab", "1"),
                ("bbaabbaabbaa", "1"),
                ("abbaabbaabba", "1"),
            ],
        ),
    ]
    return rels


def t_new_relations(field):
    """Defining relations of the 5184-dimensional quotient (q^2+q+1=0)."""
    rels = [
        _rel(field, [("aaa", "1")]),
        _rel(field, [("bbb", "1")]),
        _rel(field, [("ccc", "1")]),
        _rel(field, [("ddd", "1")]),
        _rel(field, [("ab", "-q^2"), ("bc", "-q"), ("ca", "1")]),
        _rel(field, [("ac", "-q^2"), ("cd", "-q"), ("da", "1")]),
        _rel(field, [("ad", "q"), ("ba", "-q^2"), ("db", "1")]),
        _rel(field, [("bd", "q"), ("cb", "q^2"), ("dc", "1")]),
        _rel(
            field,
            [
                ("aabcbb", "1"),
                ("abcbba", "1"),
                ("bcbbaa", "1"),
                ("cbbaab", "1"),
                ("bbaabc", "1"),
                ("baabcb", "1"),
                ("bcbaac", "1"),
                ("cbabac", "1"),
                ("cbbaca", "1"),
            ],
        ),
    ]
    return rels


# keyed by the cocycle preset the relations live on: the function giving the
# relations over a field, a word spanning the quotient's top degree, and the
# derivation letters that take that word down to degree 0
RelationPreset = namedtuple("RelationPreset", "relations integral chain")
RELATION_PRESETS = {
    "d3char2": RelationPreset(
        d3_char2_relations, "aabaabaabbaabbaabbcc", "bbaaccaaccbbcbcbcbcc"
    ),
    "t-new": RelationPreset(
        t_new_relations, "aabaabaabbaacbbaacbbaadd", "ccdccdccddccbbddbaddaabb"
    ),
}


def integral_preset(name):
    """(braided space, relations, integral word, derivation chain letters)."""
    if name not in RELATION_PRESETS:
        raise KeyError("unknown integral preset %r" % name)
    relations, integral, chain = RELATION_PRESETS[name]
    space = cocycle_preset(name)
    return space, relations(space.field), _words(integral), _words(chain)
