import gc
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrack import perms
from braidrack.racks import (
    Rack,
    RackError,
    RowNotPermutation,
    SelfDistributivityFails,
    UnknownPreset,
    affine_rack,
    braided_affine_param,
    components,
    conjugation_rack,
    identify,
    inner_group_order,
    invariants,
    is_braided,
    is_isomorphic,
    isomorphism,
    preset,
    preset_labels,
    preset_names,
    trivial_rack,
)

ALL_PRESETS = ["D3", "T", "A", "B", "C", "Aff(7,3)", "Aff(7,5)", "Aff(9,2)"]


def test_validate_d3():
    r = Rack([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    assert r.size == 3
    assert r == preset("D3")


def test_trivial_rack_is_valid_and_braided():
    r = trivial_rack(4)
    assert r.is_quandle()
    assert is_braided(r)


def test_row_not_permutation():
    with pytest.raises(RowNotPermutation) as ei:
        Rack([[0, 0, 1], [2, 1, 0], [1, 0, 2]])
    assert ei.value.row == 0


def test_self_distributivity_fails():
    # permutation rows that are not self-distributive
    table = [[0, 2, 1], [2, 1, 0], [0, 1, 2]]
    with pytest.raises(SelfDistributivityFails):
        Rack(table)


def test_a_rack_needs_an_element():
    with pytest.raises(RackError, match="a rack needs at least one element"):
        Rack([])
    with pytest.raises(RackError, match="a rack needs at least one element"):
        Rack.from_json('{"size": 0, "table": []}')


def test_identify_names_the_first_isomorphic_preset():
    r = Rack([[0, 3, 1, 2], [2, 1, 3, 0], [3, 0, 2, 1], [1, 2, 0, 3]])  # T, 0 and 1 swapped
    assert r != preset("T")
    assert identify(r, ["D3", "T", "B"]) == "T"
    assert identify(r, ["D3", "B"]) is None
    assert identify(r, []) is None
    assert identify(preset("Aff(7,5)"), ["Aff(7,3)", "Aff(7,5)"]) == "Aff(7,5)"


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("nope")


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_conjugation_identity_on_rows(name):
    # phi_{x |> y} = phi_x phi_y phi_x^{-1}
    r = preset(name)
    for x in range(r.size):
        for y in range(r.size):
            lhs = r.phi(r.table[x][y])
            rhs = perms.compose(r.phi(x), perms.compose(r.phi(y), perms.inverse(r.phi(x))))
            assert lhs == rhs


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_rows_share_cycle_structure(name):
    r = preset(name)
    types = {perms.cycle_type(r.phi(x)) for x in range(r.size)}
    assert len(types) == 1


EXPECTED = {
    # name: (size, k2, k3, m, t, degree, inner order)
    "D3": (3, 0, 2, 0, 0, 2, 6),
    "T": (4, 0, 3, 3, 0, 3, 12),
    "A": (6, 1, 4, 0, 0, 2, 24),
    "B": (6, 1, 4, 0, 0, 4, 24),
    "C": (10, 3, 6, 0, 0, 2, 120),
    "Aff(7,3)": (7, 0, 6, 0, 0, 6, 42),
    "Aff(7,5)": (7, 0, 6, 0, 0, 6, 42),
    "Aff(9,2)": (9, 0, 8, 0, 0, 2, 18),
}


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_invariants(name):
    size, k2, k3, m, t, degree, inner = EXPECTED[name]
    inv = invariants(preset(name))
    assert inv.size == size
    assert inv.k2 == k2 and inv.k3 == k3
    assert inv.m == m and inv.t == t
    assert inv.degree == degree
    assert inner_group_order(preset(name)) == inner
    assert inv.is_braided and inv.is_indecomposable and inv.is_faithful
    # braided + indecomposable: 1 + k2 + k3 = d and nothing beyond k3
    assert 1 + inv.k2 + inv.k3 == size
    assert all(n <= 3 for n in inv.k)
    assert inv.m % 3 == 0
    assert inv.degree in (1, 2, 3, 4, 6)



# SHA-256 of json.dumps([name, table]) per preset: a relabeling of any
# preset changes its digest.
TABLE_DIGESTS = {
    "D3": "dd746f3da694a48a5d8edd2c37bda97e648c3a0c70519590a8f7139761059c1d",
    "T": "4e822c9a074059692710f2ca92336bc6194527dcba02455ba6ae5b136253f742",
    "A": "2894193033ccbd15d101a3f6fad9dad65a99ad5c15348b625775f6c85cfed8c8",
    "B": "d07b8f4c4897f323f3df04c61fe586cee970be9c321a6246ac78d69111929de4",
    "C": "2fc117f9de111199d9c92179a7151c7603fb4da3ee69f7f0564ffbfb45ba0463",
    "Aff(7,3)": "d5af999166f0d8ce4d2611049b6f40d6884cba1de0b6d319ae95dae8ad6cc186",
    "Aff(7,5)": "fa5c4a678bedef1c881c05c970a1ca8588313616a7c605fe541a7a8d0b75650c",
    "Aff(9,2)": "3a0f67a326a6f8eb04cbf0d3631ffe4ee2a3c5345efd7b23fd941821067aa913",
}


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_tables_are_pinned(name):
    digest = hashlib.sha256(json.dumps([name, preset(name).table]).encode()).hexdigest()
    assert digest == TABLE_DIGESTS[name]


# The group, by order and generators, whose single conjugacy class each
# class preset's labels are: S3, A4, S4, S4 and S5.
CLASS_GROUPS = {
    "D3": (6, [perms.from_cycles(3, [(0, 1)]), perms.from_cycles(3, [(0, 1, 2)])]),
    "T": (12, [perms.from_cycles(4, [(0, 1, 2)]), perms.from_cycles(4, [(1, 2, 3)])]),
    "A": (24, [perms.from_cycles(4, [(0, 1)]), perms.from_cycles(4, [(0, 1, 2, 3)])]),
    "B": (24, [perms.from_cycles(4, [(0, 1)]), perms.from_cycles(4, [(0, 1, 2, 3)])]),
    "C": (120, [perms.from_cycles(5, [(0, 1)]), perms.from_cycles(5, [(0, 1, 2, 3, 4)])]),
}


@pytest.mark.parametrize("name", sorted(CLASS_GROUPS))
def test_preset_labels_are_one_conjugacy_class(name):
    order, gens = CLASS_GROUPS[name]
    assert len(perms.mulclose(gens)) == order
    labels = preset_labels(name)
    members, _, _ = perms.conjugacy_class(gens, labels[0])
    assert len(set(labels)) == len(labels)
    assert sorted(labels) == sorted(members)
    assert preset(name) == conjugation_rack(labels)

def test_preset_t_phi1():
    assert preset("T").phi(0) == perms.from_cycles(4, [(1, 2, 3)])


def test_preset_b_phis():
    b = preset("B")
    assert b.phi(0) == perms.from_cycles(6, [(1, 2, 3, 4)])
    assert b.phi(1) == perms.from_cycles(6, [(0, 4, 5, 2)])


def test_preset_a_phis():
    a = preset("A")
    assert a.phi(0) == perms.from_cycles(6, [(1, 2), (4, 5)])
    assert a.phi(1) == perms.from_cycles(6, [(0, 2), (3, 4)])


def test_affine_formula():
    r = preset("Aff(7,3)")
    for x in range(7):
        for y in range(7):
            assert r.table[x][y] == (5 * x + 3 * y) % 7


def test_affine_not_braided_cases():
    assert not is_braided(affine_rack(5, 2))
    assert not is_braided(affine_rack(5, 3))
    assert is_braided(affine_rack(7, 3))
    assert is_braided(affine_rack(7, 5))


def test_braided_affine_param():
    assert braided_affine_param(7) in ((7, 3), (7, 5))
    assert braided_affine_param(13) in ((13, 4), (13, 10))
    q, alpha = braided_affine_param(5)
    assert q == 25
    r = affine_rack(25, alpha)
    inv = invariants(r)
    assert inv.is_braided and inv.is_indecomposable


def test_braided_affine_param_inert_prime():
    q, alpha = braided_affine_param(11)
    assert q == 121
    inv = invariants(affine_rack(121, alpha))
    assert inv.is_braided and inv.is_indecomposable and inv.degree == 6


def test_affine_9_2_is_braided_degree2():
    inv = invariants(preset("Aff(9,2)"))
    assert inv.is_braided and inv.degree == 2 and inv.k3 == 8


def test_braided_equals_faithful_with_bounded_k():
    # cross-check of the braided test for indecomposable racks
    for name in ALL_PRESETS:
        r = preset(name)
        inv = invariants(r)
        alt = inv.is_faithful and all(n <= 3 for n in inv.k)
        assert is_braided(r) == alt


def test_is_isomorphic_relabelling():
    d3 = preset("D3")
    sigma = (2, 0, 1)
    table = [[0] * 3 for _ in range(3)]
    for x in range(3):
        for y in range(3):
            table[sigma[x]][sigma[y]] = sigma[d3.table[x][y]]
    r2 = Rack(table)
    wit = isomorphism(d3, r2)
    assert wit is not None
    for x in range(3):
        for y in range(3):
            assert wit[d3.table[x][y]] == r2.table[wit[x]][wit[y]]


def test_non_isomorphic_pairs():
    assert not is_isomorphic(preset("Aff(7,3)"), preset("Aff(7,5)"))
    assert not is_isomorphic(preset("A"), preset("B"))


def test_isomorphism_is_equivalence_on_presets():
    racks = [preset(n) for n in ALL_PRESETS]
    for r in racks:
        assert is_isomorphic(r, r)
    for a, b in itertools.combinations(racks, 2):
        assert is_isomorphic(a, b) == is_isomorphic(b, a)


def test_isomorphism_transitive_on_relabellings():
    import random

    rng = random.Random(9)
    base = preset("B")
    versions = [base]
    for _ in range(2):
        sigma = list(range(6))
        rng.shuffle(sigma)
        table = [[0] * 6 for _ in range(6)]
        for x in range(6):
            for y in range(6):
                table[sigma[x]][sigma[y]] = sigma[base.table[x][y]]
        versions.append(Rack(table))
    r1, r2, r3 = versions
    assert is_isomorphic(r1, r2) and is_isomorphic(r2, r3) and is_isomorphic(r1, r3)


def test_conjugacy_class_rack_labeling_consistent():
    for name in CLASS_GROUPS:
        labels = preset_labels(name)
        r = conjugation_rack(labels)
        for x in range(r.size):
            for y in range(r.size):
                conj = perms.compose(labels[x], perms.compose(labels[y], perms.inverse(labels[x])))
                assert labels[r.table[x][y]] == conj


def test_components_of_disjoint_union():
    # disjoint union of two trivial racks of sizes 2 and 1: decomposable
    t = [[y for y in range(3)] for _ in range(3)]
    r = Rack(t)
    assert len(components(r)) == 3
    inv = invariants(r)
    assert not inv.is_indecomposable
    assert inv.k is None and "k" in inv.notes


def test_json_roundtrip_bit_exact():
    r = preset("D3")
    s = r.to_json()
    assert s == '{"size": 3, "table": [[1, 3, 2], [3, 2, 1], [2, 1, 3]]}'
    assert Rack.from_json(s) == r


def test_preset_names_sorted():
    assert preset_names() == sorted(preset_names())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]), st.integers(1, 12))
def test_affine_racks_always_validate(p, a):
    if a % p == 0:
        return
    r = affine_rack(p, a % p)  # validation runs in the constructor
    assert r.is_quandle()
    assert r.size == p


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(6)))
def test_relabelled_preset_always_isomorphic(sigma):
    base = preset("A")
    table = [[0] * 6 for _ in range(6)]
    for x in range(6):
        for y in range(6):
            table[sigma[x]][sigma[y]] = sigma[base.table[x][y]]
    assert is_isomorphic(base, Rack(table))


def test_isomorphism_search_leaves_no_reference_cycle():
    # a cycle would keep both racks' tables alive until a full collection
    a, b = preset("Aff(7,3)"), preset("Aff(7,5)")
    gc.disable()
    try:
        gc.collect()
        for r1, r2 in ((a, a), (a, b)):
            isomorphism(r1, r2)
            assert gc.collect() == 0
    finally:
        gc.enable()
