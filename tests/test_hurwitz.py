import itertools
import json
import random

import pytest

from braidrack import hurwitz, perms
from braidrack.hurwitz import (
    REFERENCE_SIZES,
    SymmetryCheckFailed,
    census,
    canonical_code,
    conjugate_orbit,
    inner_product_invariant,
    orbit,
    orbit_isomorphic,
    orbits,
    reference_orbit,
    sigma,
    sigma_inv,
    OrbitSizeCap,
)
from braidrack.racks import preset, trivial_rack

CENSUS_EXPECTED = {
    "D3": {1: 3, 8: 3},
    "T": {1: 4, 8: 6, 12: 1},
    "A": {1: 6, 3: 6, 8: 12, 16: 6},
    "B": {1: 6, 3: 6, 8: 12, 16: 6},
    "C": {1: 10, 3: 30, 8: 30, 9: 20, 16: 30},
    "Aff(7,3)": {1: 7, 8: 21, 24: 7},
    "Aff(7,5)": {1: 7, 8: 21, 24: 7},
    "Aff(9,2)": {1: 9, 8: 36, 24: 18},
}


def test_sigma_on_d3():
    d3 = preset("D3")
    # first strand of (1, 2, 3) [1-based]: 1|>2 = 3
    assert sigma(d3, 1, (0, 1, 2)) == (2, 0, 2)


def test_sigma_fixes_repeats_on_quandles():
    t = preset("T")
    for x in range(4):
        for y in range(4):
            assert sigma(t, 1, (x, x, y)) == (x, x, y)


def test_sigma_inverse():
    rng = random.Random(1)
    r = preset("C")
    for _ in range(50):
        tup = tuple(rng.randrange(10) for _ in range(4))
        for i in (1, 2, 3):
            assert sigma_inv(r, i, sigma(r, i, tup)) == tup
            assert sigma(r, i, sigma_inv(r, i, tup)) == tup


def test_braid_relations_on_orbits():
    for name in ("D3", "T", "A"):
        r = preset(name)
        for o in orbits(r, 3):
            s1, s2 = o.edges
            for j in range(o.size):
                # sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2
                assert s1[s2[s1[j]]] == s2[s1[s2[j]]]
    # commuting generators need arity >= 4
    r = preset("D3")
    o = orbit(r, (0, 1, 2, 0))
    s1, s3 = o.edges[0], o.edges[2]
    for j in range(o.size):
        assert s1[s3[j]] == s3[s1[j]]


def test_orbit_sizes_basic():
    d3 = preset("D3")
    assert orbit(d3, (0, 0, 0)).size == 1
    assert orbit(d3, (0, 0, 1)).size == 8
    aff = preset("Aff(7,3)")
    sizes = {orbit(aff, t).size for t in itertools.product(range(7), repeat=3)}
    assert 24 in sizes


def test_orbit_cap():
    with pytest.raises(OrbitSizeCap):
        orbit(preset("C"), (0, 1, 3), cap=4)


@pytest.mark.parametrize("name", sorted(CENSUS_EXPECTED))
def test_census_matches_enumeration_and_formulas(name):
    c = census(preset(name))
    assert c.counts == CENSUS_EXPECTED[name]
    assert c.total_check
    assert c.formula_agrees


def test_census_sizes_within_reference_list():
    for name in CENSUS_EXPECTED:
        c = census(preset(name))
        assert set(c.counts) <= set(REFERENCE_SIZES)


def test_all_orbits_isomorphic_to_reference_of_their_size():
    for name in ("D3", "T", "A", "Aff(7,3)"):
        r = preset(name)
        for o in orbits(r, 3):
            assert orbit_isomorphic(o, reference_orbit(o.size))


def test_same_size_orbits_isomorphic_with_witness():
    d3 = preset("D3")
    o1 = orbit(d3, (0, 0, 1))
    o2 = orbit(d3, (1, 1, 2))
    mapping = orbit_isomorphic(o1, o2, witness=True)
    assert mapping is not None
    # the mapping must commute with both sigma generators
    for i in range(2):
        for j in range(o1.size):
            assert mapping[o1.edges[i][j]] == o2.edges[i][mapping[j]]


def test_orbit_isomorphism_witness_is_checked(monkeypatch):
    o = reference_orbit(8)
    # equal codes, but the second order is rotated: no automorphism of o
    fake = iter([((0,), list(range(8))), ((0,), list(range(1, 8)) + [0])])
    monkeypatch.setattr(hurwitz, "_canonical_code", lambda _o: next(fake))
    with pytest.raises(SymmetryCheckFailed):
        orbit_isomorphic(o, o, witness=True)


def test_different_sizes_not_isomorphic():
    assert not orbit_isomorphic(reference_orbit(9), reference_orbit(12))


def test_size6_reference_acts_like_permutations():
    o = reference_orbit(6)
    assert o.size == 6
    assert sorted(o.tuples) == sorted(itertools.permutations((0, 1, 2)))


def test_conjugate_orbit_t():
    t = preset("T")
    o = orbit(t, (0, 0, 1))
    o2 = conjugate_orbit(t, [(0, 1)], o)
    # phi_1 of T sends 2 -> 3 (1-based): orbit of (1,1,2) maps to (1,1,3)
    assert (0, 0, 2) in o2.index
    assert orbit_isomorphic(o, o2)
    o_same = conjugate_orbit(t, [], o)
    assert set(o_same.tuples) == set(o.tuples)


def test_conjugate_orbit_b_covers_all_nonfixed():
    b = preset("B")
    seen = set()
    o = orbit(b, (0, 0, 1))
    word = []
    for _ in range(4):
        o = conjugate_orbit(b, [(0, 1)], o)
        seeds = {t for t in o.tuples if t[0] == t[1] == 0}
        seen.update(t[2] for t in seeds)
    assert seen == {1, 2, 3, 4}


def test_inner_product_invariant_constant_on_orbits():
    for name in ("D3", "T", "A"):
        r = preset(name)
        for o in orbits(r, 3):
            vals = {inner_product_invariant(r, t) for t in o.tuples}
            assert len(vals) == 1


def test_census_total_always_holds_general_arity():
    r = preset("D3")
    for n in (2, 4):
        c = census(r, n=n)
        assert c.total_check


def test_orbit_json_export():
    o = orbit(preset("D3"), (0, 0, 1))
    data = json.loads(o.to_json())
    assert data["arity"] == 3
    assert len(data["tuples"]) == 8
    assert len(data["sigma1"]) == 8 and len(data["sigma2"]) == 8
    # 1-based entries
    assert data["tuples"][0] == [1, 1, 2]
    # edges consistent with recomputation
    idx = {tuple(v - 1 for v in t): i for i, t in enumerate(data["tuples"])}
    for i, t in enumerate(data["tuples"]):
        t0 = tuple(v - 1 for v in t)
        assert data["sigma1"][i] == idx[sigma(preset("D3"), 1, t0)]


def test_canonical_code_deterministic():
    o1 = orbit(preset("D3"), (0, 0, 1))
    o2 = orbit(preset("D3"), (0, 0, 1))
    assert canonical_code(o1) == canonical_code(o2)
