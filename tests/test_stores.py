"""The packed vector store against the dict store, on one prime field.

``linalg.PACKED_PRIME_MAX`` set to 0 puts every field on dict vectors, so
both engines run twice over the same Fp(p), once with each store, and must
agree on everything they keep.
"""
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from braidrack import linalg
from braidrack.braiding import BraidedSpace, coboundary_twist, constant_cocycle, table_cocycle
from braidrack.fields import GF
from braidrack.nichols import NicholsEngine
from braidrack.presentations import Presentation, QuotientEngine
from braidrack.racks import preset, trivial_rack

_PRIMES = [2, 3, 5, 7, 11, 13]


def _interleaved():
    # letters 0 and 2 share a grade, and letter 1 has another
    return BraidedSpace(table_cocycle(trivial_rack(3), GF(7), [[6, 1, 6], [2, 6, 2], [6, 1, 6]]))


@st.composite
def _spaces(draw):
    """(space, top degree): a trivial rack with any table, or D3 or T with a
    constant cocycle twisted by a coboundary, over a packed prime."""
    f = GF(draw(st.sampled_from(_PRIMES)))
    unit = st.integers(1, f.p - 1)
    kind = draw(st.sampled_from(["trivial", "D3", "T"]))
    if kind == "trivial":
        d = draw(st.integers(1, 3))
        table = draw(st.lists(st.lists(unit, min_size=d, max_size=d), min_size=d, max_size=d))
        return BraidedSpace(table_cocycle(trivial_rack(d), f, table)), 5
    rack = preset(kind)
    c = constant_cocycle(rack, f, draw(unit))
    twist = draw(st.lists(unit, min_size=rack.size, max_size=rack.size))
    return BraidedSpace(coboundary_twist(c, twist)), 5 if kind == "D3" else 4


def _both_stores(run):
    """run() as shipped, then with every field on dict vectors."""
    packed = run()
    with mock.patch.object(linalg, "PACKED_PRIME_MAX", 0):
        plain = run()
    return packed, plain


def _nichols(space, up_to):
    eng = NicholsEngine(space)
    dims = eng.dims(up_to)
    forms = {n: [eng.form(n, key) for key in range(len(eng.nfmul[n]))] for n in eng.nfmul}
    dmat = [eng.derivations(i) for i in range(len(eng.dmat))]
    return type(eng.vs), dims, eng.basis, forms, dmat


def _nichols_relations(space, up_to):
    """y w - (its class) for each dependent candidate y w of degree 2..up_to."""
    f = space.field
    eng = NicholsEngine(space)
    eng.dims(up_to)
    rels = []
    for n in range(2, up_to + 1):
        words, nb = set(eng.basis[n]), len(eng.basis[n - 1])
        for key in range(len(eng.nfmul[n])):
            y, j = divmod(key, nb)
            word = (y,) + eng.basis[n - 1][j]
            if word not in words:
                rel = {eng.basis[n][i]: f.neg(c) for i, c in eng.form(n, key).items()}
                rel[word] = f.one
                rels.append(rel)
    return rels


def _quotient(p, up_to):
    eng = QuotientEngine(p)
    dims = eng.dims(up_to)
    forms = {n: [eng.form(n, key) for key in range(len(eng.nfmul[n]))] for n in eng.nfmul}
    return type(eng.vs), dims, eng.basis, forms, eng.retired


@settings(max_examples=60, deadline=None)
@given(_spaces())
def test_the_nichols_engine_keeps_the_same_data_in_either_store(case):
    space, top = case
    packed, plain = _both_stores(lambda: _nichols(space, top))
    assert (packed[0], plain[0]) == (linalg.PackedVectors, linalg.DictVectors)
    assert packed[1:] == plain[1:]


@settings(max_examples=60, deadline=None)
@given(_spaces(), st.data())
def test_the_quotient_engine_keeps_the_same_data_in_either_store(case, data):
    # some of the Nichols relations of degree 2 and 3, and a power of a
    # letter: a relation the others imply is retired
    space, top = case
    rels = _nichols_relations(space, 3)
    picked = data.draw(st.lists(st.sampled_from(rels), max_size=8, unique_by=id)) if rels else []
    letter = data.draw(st.integers(0, space.dim - 1))
    p = Presentation(space, picked + [{(letter,) * 3: space.field.one}])
    packed, plain = _both_stores(lambda: _quotient(p, top + 1))
    assert (packed[0], plain[0]) == (linalg.PackedVectors, linalg.DictVectors)
    assert packed[1:] == plain[1:]


def test_a_degree_one_grade_may_hold_letters_that_are_not_adjacent():
    space = _interleaved()
    grades = NicholsEngine(space).grades[1]
    assert grades[0] == grades[2] != grades[1]
    packed, plain = _both_stores(lambda: _nichols(space, 5))
    assert packed[1] == [1, 3, 5, 8, 13, 21]
    assert packed[1:] == plain[1:]
    p = Presentation(space, _nichols_relations(space, 3))
    packed, plain = _both_stores(lambda: _quotient(p, 5))
    assert packed[1] == [1, 3, 5, 8, 13, 21]
    assert packed[1:] == plain[1:]
