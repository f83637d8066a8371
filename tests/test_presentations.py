import pytest

from braidrack.braiding import BraidedSpace, cocycle_preset, constant_cocycle
from braidrack.fields import QQ
from braidrack.hilbert import expand_product
from braidrack.nichols import (
    NicholsEngine,
    NotHomogeneous,
    derive,
    graded_dims,
    symmetrizer_apply,
)
from braidrack.presentations import (
    RELATION_PRESETS,
    Presentation,
    QuotientEngine,
    d3_char2_relations,
    integral_preset,
    quotient_dims,
    relation_in_kernel,
    t_new_relations,
)
from braidrack.racks import preset


def test_presentation_requires_homogeneous():
    b = BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(-1)))
    with pytest.raises(NotHomogeneous):
        Presentation(b, [{(0, 1): QQ.one, (0, 1, 2): QQ.one}])


def test_all_degree2_words_kill_everything():
    b = BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(-1)))
    rels = [{(x, y): QQ.one} for x in range(3) for y in range(3)]
    dims = quotient_dims(Presentation(b, rels), 6)
    assert dims == [1, 3, 0, 0, 0, 0, 0]


def test_quotient_at_least_nichols_pointwise():
    # drop one relation: the quotient must dominate the symmetrizer dims
    space = cocycle_preset("d3char2")
    rels = d3_char2_relations(space.field)[:-1]
    qd = quotient_dims(Presentation(space, rels), 8)
    nd = graded_dims(space, 8)
    assert all(q >= n for q, n in zip(qd, nd))


def test_d3_char2_certificate():
    space, rels, integral, chain = integral_preset("d3char2")
    p = Presentation(space, rels)
    assert all(relation_in_kernel(p))
    # the literal S_n kills every relation too
    for r in rels:
        assert symmetrizer_apply(space, len(next(iter(r))), r) == {}
    qd = quotient_dims(p, 22)
    expected = expand_product([(3, 1), (4, 1), (6, 1), (6, 2)], 22)
    assert qd == expected
    assert sum(qd) == 432
    assert max(i for i, v in enumerate(qd) if v) == 20


def test_d3_char2_nichols_dims_match_quotient_low_degrees():
    space, rels, _, _ = integral_preset("d3char2")
    eng = NicholsEngine(space)
    expected = expand_product([(3, 1), (4, 1), (6, 1), (6, 2)], 8)
    assert eng.dims(8) == expected[:9]


def test_d3_char2_integral_chain_nonzero():
    space, rels, integral, chain = integral_preset("d3char2")
    K = space.field
    vec = {integral: K.one}
    for x in reversed(chain):
        vec = derive(space, x, vec)
    assert vec.get((), K.zero) != K.zero


def test_relation_word_transcriptions():
    space, rels, integral, chain = integral_preset("t-new")
    degrees = sorted(len(next(iter(r))) for r in rels)
    assert degrees == [2, 2, 2, 2, 3, 3, 3, 3, 6]
    assert len(integral) == 24 and len(chain) == 24
    space2, rels2, integral2, chain2 = integral_preset("d3char2")
    assert sorted(len(next(iter(r))) for r in rels2) == [2, 2, 3, 3, 3, 12]
    assert len(integral2) == 20 and len(chain2) == 20


@pytest.mark.slow
def test_t_new_certificate(t_new_certificate):
    space, rels = t_new_certificate["space"], t_new_certificate["relations"]
    p = Presentation(space, rels)
    assert all(relation_in_kernel(p))
    qd = t_new_certificate["quotient_dims"]
    expected = expand_product([(6, 1)] * 4 + [(2, 2)] * 2, 26)
    assert qd == expected
    assert sum(qd) == 5184
    assert max(i for i, v in enumerate(qd) if v) == 24
    eng = NicholsEngine(space)
    assert eng.dims(6) == expected[:7]


def test_t_new_integral_chain_value():
    space, rels, integral, chain = integral_preset("t-new")
    K = space.field
    vec = {integral: K.one}
    for x in reversed(chain):
        vec = derive(space, x, vec)
    val = vec.get((), K.zero)
    assert val == K.neg(K.mul(K.gen, K.gen))  # exactly -q^2


def test_quotient_engine_grade_homogeneity_check():
    # a sum of words with different group degrees is rejected
    b = BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(-1)))
    with pytest.raises(NotHomogeneous):
        QuotientEngine(Presentation(b, [{(0, 0): QQ.one, (0, 1): QQ.one}]))


@pytest.mark.parametrize("name", ["d3char2", "t-new"])
def test_quotient_normal_form_kills_every_relation(name):
    space, rels, _, _ = integral_preset(name)
    eng = QuotientEngine(Presentation(space, rels))
    for r in rels:
        assert eng.nf_vector(r, len(next(iter(r)))) == {}


@pytest.mark.parametrize("name", ["d3char2", "t-new"])
def test_basis_words_are_their_own_normal_forms(name):
    space, rels, _, _ = integral_preset(name)
    one = space.field.one
    for eng in (NicholsEngine(space), QuotientEngine(Presentation(space, rels))):
        eng.extend(5)
        for n in range(6):
            for i, w in enumerate(eng.basis[n]):
                assert eng.nf_vector({w: one}, n) == {i: one}


def test_relation_presets_name_their_cocycle_preset():
    assert list(RELATION_PRESETS) == ["d3char2", "t-new"]
    for name, preset_ in RELATION_PRESETS.items():
        space, rels, integral, chain = integral_preset(name)
        assert space.cocycle.name == name
        assert rels == preset_.relations(space.field)
        assert len(integral) == len(chain)
    with pytest.raises(KeyError):
        integral_preset("d3-char2")
