"""Finitely presented graded quotients, derivation chains, integrals.

A presentation is a braided space together with homogeneous relation
vectors (sparse dicts word -> scalar).  The quotient T(V)/(relations) is
built degree by degree: degree n is V (x) A_{n-1} modulo the image of all
relations placed at the left edge, which together with the recursion
covers the whole ideal component.
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
        for r in self.relations:
            degs = {len(w) for w in r}
            if len(degs) != 1:
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
    """

    def __init__(self, presentation):
        super().__init__(presentation.space)
        self.p = presentation
        self.rels_by_degree = {}
        for r in presentation.relations:
            n = len(next(iter(r)))
            self.rels_by_degree.setdefault(n, []).append(r)
            self._check_relation_grade(r)
        if 1 in self.rels_by_degree:
            raise NotHomogeneous("degree-1 relations are not supported")

    def _check_relation_grade(self, r):
        grades = {self.grading.of_word(w) for w in r}
        if len(grades) != 1:
            raise NotHomogeneous(
                "relation is not grade-homogeneous; split it by group degree"
            )

    def _block_vectors(self, n, blocks):
        """The ideal vectors pi(r * b) in candidate coordinates, by grade."""
        nb = len(self.basis[n - 1])
        vectors = {}
        for g_deg, rels in self.rels_by_degree.items():
            tail_deg = n - g_deg
            if tail_deg < 0:
                continue
            for r in rels:
                for bidx in range(len(self.basis[tail_deg])):
                    vec = self._place_relation(r, tail_deg, bidx, nb)
                    if vec:
                        y, j = divmod(next(iter(vec)), nb)
                        g = self.grading.lmul(y, self.grades[n - 1][j])
                        vectors.setdefault(g, []).append(vec)
        return vectors

    def _place_relation(self, r, tail_deg, bidx, nb):
        """pi(r * basis[tail_deg][bidx]) in candidate coordinates of degree n."""
        out = {}
        axpy, one = self.f.axpy, self.f.one
        for w, c in r.items():
            # w[1:] * b expanded in basis[n-1], then w[0] as the first letter
            tail = self._word_times(w[1:], {bidx: one}, tail_deg)
            axpy(out, {w[0] * nb + j: cj for j, cj in tail.items()}, c)
        return out

    def _reduce_block(self, n, grade, cands, vectors):
        f = self.f
        nb = len(self.basis[n - 1])
        ideal = Echelon(f)
        for vec in vectors:
            ideal.add(vec)
        index = {}
        for y, j in cands:
            if y * nb + j not in ideal.rows:
                index[y * nb + j] = self._new_word(n, (y, j), grade)
        for y, j in cands:
            key = y * nb + j
            row = ideal.rows.get(key)
            if row is not None:
                self.nfmul[n][(y, j)] = {index[k]: f.neg(v) for k, v in row.items() if k != key}


def quotient_dims(p, up_to):
    """Graded dims 0..up_to of T(V)/(relations)."""
    return QuotientEngine(p).dims(up_to)


# ---------------------------------------------------------------------------
# relation tables for the two finite-dimensional quotients shipped as presets

def _words(s):
    """Parse 'aab' into a tuple of 0-based letters."""
    return tuple(ord(ch) - ord("a") for ch in s)


def _rel(field, terms):
    """terms: list of (word string, scalar string); 'q' is the generator."""
    out = {}
    for w, cs in terms:
        out[_words(w)] = field.parse(cs)
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
