import hashlib
import os
import random

import pytest

from braidrack import nichols
from braidrack.braiding import BraidedSpace, cocycle_preset, constant_cocycle, table_cocycle
from braidrack.fields import GF, QQ, parse_field
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
    _rel,
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


@pytest.mark.parametrize("word, text", [((0, 5), "af"), ((0, -1), "a`")])
def test_relation_letter_outside_the_rack_is_rejected_up_front(word, text):
    # these reached the engines as an IndexError or a KeyError
    with pytest.raises(ValueError, match="word '%s' has a letter outside a..c" % text):
        Presentation(cocycle_preset("minus1(D3)"), [{word: 1}])


def test_zero_terms_count_in_no_degree_or_grade():
    b = BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(-1)))
    p = Presentation(b, [{(0, 0): 1, (0, 1): 0, (1,): 0}])
    assert p.relations == [{(0, 0): 1}]
    assert quotient_dims(p, 5) == quotient_dims(Presentation(b, [{(0, 0): 1}]), 5)
    with pytest.raises(NotHomogeneous, match="no nonzero term"):
        Presentation(b, [{(0, 1): 0}])


def test_a_relation_names_each_word_once():
    F4 = parse_field("Fp(2)[t]/(t^2+t+1)")
    with pytest.raises(ValueError, match="word 'ab' appears twice in one relation"):
        _rel(F4, [("ab", "1"), ("ab", "q")])


@pytest.mark.parametrize("name", ["d3char2", "t-new"])
def test_quotient_normal_form_kills_every_relation(name):
    space, rels, _, _ = integral_preset(name)
    eng = QuotientEngine(Presentation(space, rels))
    for r in rels:
        assert eng.nf_vector(r, len(next(iter(r)))) == {}


@pytest.mark.parametrize("name, products", [("d3char2", 794), ("t-new-mod7", 3529)])
def test_quotient_normal_form_kills_every_two_sided_multiple(name, products):
    # u * r * v lies in the ideal for all basis words u, v; every such
    # product of degree <= 6 has normal form 0
    if name == "d3char2":
        space, rels, _, _ = integral_preset(name)
        p = Presentation(space, rels)
    else:
        p = _t_new_mod7()
    eng = QuotientEngine(p)
    eng.extend(6)
    count = 0
    for r, deg in zip(p.relations, eng.rel_degrees):
        for du in range(7 - deg):
            for dv in range(7 - deg - du):
                for u in eng.basis[du]:
                    for v in eng.basis[dv]:
                        vec = {u + w + v: c for w, c in r.items()}
                        assert eng.nf_vector(vec, du + deg + dv) == {}
                        count += 1
    assert count == products


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


class _PlaceEveryRelation(QuotientEngine):
    """The reference engine: every relation is placed in every degree."""

    def _build_degree(self, n):
        super()._build_degree(n)
        self.retired.clear()


def _graded_data(eng, up_to):
    dims = eng.dims(up_to)
    forms = {n: [eng.form(n, key) for key in range(len(eng.nfmul[n]))] for n in eng.nfmul}
    return dims, eng.basis, forms


def _t_new_mod7():
    """The t-new presentation over Fp(7), with the generator t sent to 2."""
    exact = parse_field("QQ[t]/(t^2+t+1)")
    F = GF(7)

    def to_fp(c):
        c0, c1 = (F.parse(str(x)) for x in exact.coefficients(c))
        return F.add(c0, F.mul(2, c1))

    pre = cocycle_preset("t-new", exact)
    values = [[to_fp(v) for v in row] for row in pre.cocycle.q]
    space = BraidedSpace(table_cocycle(pre.rack, F, values, name="t-new-mod7"))
    rels = [{w: to_fp(c) for w, c in r.items()} for r in t_new_relations(exact)]
    return Presentation(space, rels)


def test_retirement_keeps_the_d3_char2_quotient():
    space, rels, _, _ = integral_preset("d3char2")
    p = Presentation(space, rels)
    eng = QuotientEngine(p)
    assert _graded_data(eng, 21) == _graded_data(_PlaceEveryRelation(p), 21)
    assert eng.retired


def test_retirement_keeps_the_t_new_quotient_over_f7():
    p = _t_new_mod7()
    eng = QuotientEngine(p)
    assert _graded_data(eng, 12) == _graded_data(_PlaceEveryRelation(p), 12)
    # the degree-6 relation makes rows only in its own degree
    assert eng.retired[8] == 7


@pytest.mark.parametrize("seed", [0, 1, 4, 5, 7])
def test_retirement_keeps_shuffled_relation_lists(seed):
    # a preset's relations in a random order, from seed % 4 > 1 on with one
    # relation of degree > 2 dropped; each seed retires some relation
    name, top = ("d3char2", 21) if seed % 2 else ("t-new", 9)
    space, rels, _, _ = integral_preset(name)
    rng = random.Random(seed)
    picked = rng.sample(rels, len(rels))
    if seed % 4 > 1:
        picked.remove(rng.choice([r for r in picked if len(next(iter(r))) > 2]))
    p = Presentation(space, picked)
    eng = QuotientEngine(p)
    assert _graded_data(eng, top) == _graded_data(_PlaceEveryRelation(p), top)
    assert eng.retired


def test_redundant_relations_are_retired():
    space, rels, _, _ = integral_preset("d3char2")
    f = space.field
    r0, r1 = rels[0], rels[1]
    cube = dict(rels[2])  # a copy of aaa
    r0a = {w + (0,): c for w, c in r0.items()}
    # r0 * a + r1 * b: the two 2-relations' right multiples of one grade
    mixed = dict(r0a)
    f.axpy(mixed, {w + (1,): c for w, c in r1.items()}, f.one)
    forced = [dict(r0)] + rels + [cube, r0a, mixed]
    eng = QuotientEngine(Presentation(space, forced))
    expected = quotient_dims(Presentation(space, rels), 21)
    assert eng.dims(21) == expected
    n = len(forced)
    # the original r0 now follows its copy, and the appended three follow
    # the relations they are built from
    assert eng.retired[1] == 2
    assert eng.retired[n - 3] == 3
    assert eng.retired[n - 2] == 3
    assert eng.retired[n - 1] == 3


class _CheckBlockContract(_PlaceEveryRelation):
    """Checks the grade of every placement handed to a grade block.

    A nonzero placement r * b handed to the block of grade g must have
    every key among that block's candidates, and g = grade(r) * grade(b).
    A block may run in a forked process, so it returns its count of checked
    placements beside its extra, and the merge adds it up.
    """

    checked = 0

    def _reduce_block(self, n, grade, cands, placements):
        nb = len(self.basis[n - 1])
        mul, mats = self.grading.mul, self.grading.mats
        checked = 0
        for i, bidx in placements.get(grade, ()):
            r = self.p.relations[i]
            tail_deg = n - self.rel_degrees[i]
            vec = _placement(self, r, bidx, n)
            if vec:
                assert set(vec) <= set(cands)
                key = next(iter(vec))
                y, j = divmod(key, nb)
                assert mul(mats[y], self.grades[n - 1][j]) == grade
                assert mul(self.grading.of_word(next(iter(r))), self.grades[tail_deg][bidx]) == grade
                checked += 1
        new, forms, made_rows = super()._reduce_block(n, grade, cands, placements)
        return new, forms, (made_rows, checked)

    def _merge_block(self, n, grade, out):
        made_rows, checked = super()._merge_block(n, grade, out)
        self.checked += checked
        return made_rows


def _placement(eng, r, bidx, n):
    """r * basis[n - deg r][bidx] in degree-n candidate keys, as a dict: each
    term c w is w[0] * (w[1:] * b), multiplied out by the engine's store."""
    vs, f, nb = eng.vs, eng.f, len(eng.basis[n - 1])
    tail = vs.vector([bidx], vs.unit([bidx], 0))
    vec = {}
    for w, c in r.items():
        part = vs.coords(vs.word_times(w[1:], tail, n - len(w)))
        f.axpy(vec, {w[0] * nb + j: cj for j, cj in part.items()}, c)
    return vec


def _nonzero_placements(eng, up_to):
    """The number of nonzero placements r * b of degree 2..up_to."""
    count = 0
    for n in range(2, up_to + 1):
        for r, deg in zip(eng.p.relations, eng.rel_degrees):
            if deg <= n and eng.basis[n - 1]:
                for bidx in range(len(eng.basis[n - deg])):
                    count += bool(_placement(eng, r, bidx, n))
    return count


@pytest.mark.parametrize("name", ["d3char2", "t-new-mod7"])
def test_every_placement_has_the_grade_of_its_block(name):
    if name == "d3char2":
        space, rels, _, _ = integral_preset(name)
        p = Presentation(space, rels)
    else:
        p = _t_new_mod7()
    eng = _CheckBlockContract(p)
    eng.dims(12)
    # no nonzero placement was left out of the blocks
    assert eng.checked == _nonzero_placements(eng, 12) > 0


def _quotient_digest(eng):
    # sha256 over repr of (n, basis[n], sorted nfmul[n]) for every degree,
    # nfmul[n] listed as ((y, j), coords) pairs: the pins were taken when a
    # candidate was named by the tuple (y, j) rather than the key y * nb + j
    data = []
    for n in sorted(eng.nfmul):
        nb = len(eng.basis[n - 1])
        assert len(eng.nfmul[n]) == eng.b.dim * nb and None not in eng.nfmul[n]
        data.append((n, eng.basis[n], [
            (divmod(key, nb), sorted(eng.form(n, key).items())) for key in range(len(eng.nfmul[n]))
        ]))
    return hashlib.sha256(repr(data).encode()).hexdigest()


D3_CHAR2_QUOTIENT_PIN = "f9cade576f3608d3dc6272341d495fd4919ab9628fdfae74b03258d0d1e1c43f"
T_NEW_F7_QUOTIENT_PIN = "ed999dd3122a6b0a233a7a725cfc8023984eb675e93fd05e7ef879979b77cce5"


def _d3_char2_quotient(up_to):
    space, rels, _, _ = integral_preset("d3char2")
    eng = QuotientEngine(Presentation(space, rels))
    eng.dims(up_to)
    return eng


def _t_new_f7_quotient(up_to):
    eng = QuotientEngine(_t_new_mod7())
    eng.dims(up_to)
    return eng


def test_d3_char2_quotient_digest_is_pinned(blocks_in_parts):
    blocks_in_parts(1)
    eng = _d3_char2_quotient(21)
    assert set(eng.parts.values()) == {1}
    assert _quotient_digest(eng) == D3_CHAR2_QUOTIENT_PIN
    assert eng.retired == {1: 21, 2: 17, 3: 7, 4: 4, 5: 13}


def test_t_new_quotient_over_f7_digest_is_pinned(blocks_in_parts):
    blocks_in_parts(1)
    eng = _t_new_f7_quotient(25)
    assert set(eng.parts.values()) == {1}
    assert _quotient_digest(eng) == T_NEW_F7_QUOTIENT_PIN
    assert eng.retired == {4: 25, 5: 25, 6: 19, 7: 11, 8: 7}


@pytest.mark.parametrize("parts", [2, 3], ids=["2-part", "3-part"])
def test_quotient_digests_are_pinned_in_forked_parts(parts, blocks_in_parts):
    # the same pins and retirements when every degree's blocks run in 2 or 3
    # processes
    blocks_in_parts(parts)
    eng = _d3_char2_quotient(21)
    assert max(eng.parts.values()) == parts
    assert _quotient_digest(eng) == D3_CHAR2_QUOTIENT_PIN
    assert eng.retired == {1: 21, 2: 17, 3: 7, 4: 4, 5: 13}
    eng = _t_new_f7_quotient(25)
    assert max(eng.parts.values()) == parts
    assert _quotient_digest(eng) == T_NEW_F7_QUOTIENT_PIN
    assert eng.retired == {4: 25, 5: 25, 6: 19, 7: 11, 8: 7}


@pytest.mark.parametrize("parts", [2, 3], ids=["2-part", "3-part"])
def test_every_placement_has_the_grade_of_its_block_in_forked_parts(parts, blocks_in_parts):
    blocks_in_parts(parts)
    eng = _CheckBlockContract(_t_new_mod7())
    eng.dims(12)
    assert max(eng.parts.values()) == parts
    assert eng.checked == _nonzero_placements(eng, 12) > 0


def test_degree_times_and_parts_are_recorded():
    eng = _t_new_f7_quotient(12)
    assert sorted(eng.seconds) == sorted(eng.parts) == list(range(2, 13))
    assert all(s > 0 for s in eng.seconds.values())
    for n, parts in eng.parts.items():
        # a degree forks only after a degree that took the threshold
        assert parts == 1 or eng.seconds[n - 1] >= nichols._FORK_SECONDS
        assert 1 <= parts <= min(len(os.sched_getaffinity(0)), 8)
