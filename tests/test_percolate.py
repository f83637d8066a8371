import gc
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrack import percolate
from braidrack.hurwitz import REFERENCE_SIZES, HurwitzOrbit, orbit, orbits, reference_orbit, sigma
from braidrack.percolate import (
    EXPECTED_MIN_PLAGUE,
    EmptySeed,
    SymmetryCheckFailed,
    automorphism_classes,
    closure_instances,
    ImmunityMismatch,
    PlagueResult,
    immunity_table,
    is_plague,
    minimal_plague,
    orbit_plague,
    quarantine_closure,
)
from braidrack.racks import preset


def test_closure_needs_seed():
    o = reference_orbit(3)
    with pytest.raises(EmptySeed):
        quarantine_closure(o, set())


def test_closure_is_extensive_monotone_idempotent():
    rng = random.Random(7)
    for size in (8, 9, 12, 16):
        o = reference_orbit(size)
        for _ in range(25):
            s = {rng.randrange(size) for _ in range(rng.randint(1, size))}
            c = quarantine_closure(o, s)
            assert s <= c
            assert quarantine_closure(o, c) == c
            bigger = s | {rng.randrange(size)}
            assert c <= quarantine_closure(o, bigger)


def test_full_orbit_is_fixed_point():
    for size in (1, 3, 8):
        o = reference_orbit(size)
        assert quarantine_closure(o, set(range(size))) == frozenset(range(size))


def test_size3_singleton_percolates():
    o = reference_orbit(3)
    assert any(is_plague(o, {i}) for i in range(3))


def test_families_cover_orbit():
    for size in REFERENCE_SIZES:
        o = reference_orbit(size)
        inst = closure_instances(o)
        assert len(inst) == size
        covered = {i for tri in inst for i in tri}
        assert covered == set(range(size))


def brute_force_minimal_plague(o):
    """The reference: the lexicographically first plague among all subsets,
    smallest size first."""
    for k in range(1, o.size + 1):
        for seed in itertools.combinations(range(o.size), k):
            if is_plague(o, seed):
                return k, seed
    raise AssertionError("the full orbit is always a plague")


# The lexicographically least minimal plague of the reference 24-orbit and of
# every 24-orbit of Aff(7,3), found by the subset scan (190,243 closures each,
# too slow to repeat here).
WITNESS_24 = (0, 1, 2, 3, 5, 7, 12)


@pytest.mark.parametrize("size", REFERENCE_SIZES)
def test_minimal_plague_matches_reference(size):
    o = reference_orbit(size)
    res = minimal_plague(o)
    assert res.min_size == EXPECTED_MIN_PLAGUE[size]
    assert res.immunity == Fraction(EXPECTED_MIN_PLAGUE[size], size)
    # the witness actually percolates
    assert is_plague(o, set(res.witness))
    if size <= 16:
        assert (res.min_size, res.witness) == brute_force_minimal_plague(o)
    else:
        assert res.witness == WITNESS_24


@pytest.mark.parametrize("name", ["D3", "T", "Aff(7,3)", "C"])
def test_minimal_plague_matches_brute_force_on_every_orbit(name):
    for o in orbits(preset(name), 3):
        res = minimal_plague(o)
        if o.size == 24:
            assert (res.min_size, res.witness) == (7, WITNESS_24)
        else:
            assert (res.min_size, res.witness) == brute_force_minimal_plague(o)


def relabel(o, perm):
    """The same orbit graph with member i renamed perm[i]."""
    tuples = [None] * o.size
    for i, t in enumerate(o.tuples):
        tuples[perm[i]] = t

    def move(gens):
        out = []
        for g in gens:
            h = [0] * o.size
            for i, j in enumerate(g):
                h[perm[i]] = perm[j]
            out.append(h)
        return out

    index = {t: i for i, t in enumerate(tuples)}
    return HurwitzOrbit(o.rack, o.arity, tuples, index, move(o.edges), move(o.inv_edges))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([s for s in REFERENCE_SIZES if s <= 12]), st.randoms(use_true_random=False))
def test_minimal_plague_on_relabelled_orbits(size, rnd):
    perm = list(range(size))
    rnd.shuffle(perm)
    o = relabel(reference_orbit(size), perm)
    res = minimal_plague(o)
    assert (res.min_size, res.witness) == brute_force_minimal_plague(o)


@pytest.mark.parametrize("size", REFERENCE_SIZES)
def test_automorphism_class_maps_commute_with_edges(size):
    o = reference_orbit(size)
    classes = automorphism_classes(o)
    members = sorted(v for cls in classes.values() for v in cls)
    assert members == list(range(size))
    for m, maps in classes.items():
        assert m == min(maps)
        for v, phi in maps.items():
            assert phi[m] == v
            assert sorted(phi) == list(range(size))
            for g in list(o.edges) + list(o.inv_edges):
                assert all(phi[g[x]] == g[phi[x]] for x in range(size))


def test_automorphism_check_rejects_a_bad_class_map(monkeypatch):
    o = reference_orbit(8)
    # every root claims the same code, with rotated visiting orders
    fake = [((0,), list(range(v, 8)) + list(range(v))) for v in range(8)]
    monkeypatch.setattr(percolate, "rooted_codes", lambda _o: fake)
    with pytest.raises(SymmetryCheckFailed):
        minimal_plague(o)


@pytest.mark.parametrize("name", ["T", "Aff(7,3)", "C"])
def test_cached_witness_is_a_plague_of_its_own_orbit(name):
    for o in orbits(preset(name), 3):
        res = orbit_plague(o)
        assert is_plague(o, res.witness)
        assert res.min_size == len(res.witness) == minimal_plague(o).min_size


def test_relabelled_orbit_resolves_from_a_moved_root(plague_searches):
    o = reference_orbit(24)
    orbit_plague(o)
    # member 0 becomes member 5, and member 0 of the copy was member 19
    perm = [(i + 5) % 24 for i in range(24)]
    moved = relabel(o, perm)
    res = orbit_plague(moved)
    assert plague_searches == [24]
    assert res.seeds_closed == 1
    assert res.min_size == len(res.witness) == 7
    assert is_plague(moved, res.witness)


def test_immunity_table_of_a_ninth_orbit_class(plague_searches):
    # the non-braided Aff(5,2): five 1-orbits and five 24-orbits that are
    # not the reference 24-orbit's class (minimal plague 8, not 7)
    table = immunity_table(preset("Aff(5,2)"))
    assert {s: res.immunity for s, res in table.items()} == {1: 1, 24: Fraction(1, 3)}
    assert table[24].min_size == 8
    assert sorted(plague_searches) == [1, 24]
    assert minimal_plague(reference_orbit(24)).min_size == 7


def test_immunity_table_raises_when_equal_sizes_disagree(monkeypatch):
    seen = {}

    def disagreeing(o):
        seen[o.size] = seen.get(o.size, 0) + 1
        k = seen[o.size]
        return PlagueResult(k, tuple(range(k)), Fraction(k, o.size))

    # the first orbit of a size is searched and filed, the others looked up
    monkeypatch.setattr(percolate, "_FILED", {})
    monkeypatch.setattr(percolate, "minimal_plague", disagreeing)
    monkeypatch.setattr(percolate, "orbit_plague", disagreeing)
    with pytest.raises(ImmunityMismatch):
        immunity_table(preset("T"))


def test_seeds_closed_counts_the_search():
    res = minimal_plague(reference_orbit(24))
    # the subset scan closed 190,243 seeds on this orbit
    assert res.seeds_closed == 38436
    assert res == replace(res, seeds_closed=0)


def test_minimality_certified_exhaustively():
    # spot-check the certification: no subset of size min-1 percolates
    import itertools

    for size in (8, 9, 12):
        o = reference_orbit(size)
        k = EXPECTED_MIN_PLAGUE[size] - 1
        for seed in itertools.combinations(range(size), k):
            assert not is_plague(o, set(seed))


def test_eight_orbit_pair_structure():
    # two-element seeds never percolate the 8-orbit
    import itertools

    o = reference_orbit(8)
    for seed in itertools.combinations(range(8), 2):
        assert not is_plague(o, set(seed))


def test_witness_is_lexicographically_least():
    o = reference_orbit(8)
    res = minimal_plague(o)
    import itertools

    for seed in itertools.combinations(range(8), res.min_size):
        if is_plague(o, set(seed)):
            assert tuple(seed) == res.witness
            break


IMMUNITY_EXPECTED = {
    "C": {1: "1", 3: "1/3", 8: "3/8", 9: "1/3", 16: "5/16"},
    "T": {1: "1", 8: "3/8", 12: "1/3"},
    "Aff(7,3)": {1: "1", 8: "3/8", 24: "7/24"},
}


@pytest.mark.parametrize("name", sorted(IMMUNITY_EXPECTED))
def test_immunity_tables(name):
    table = immunity_table(preset(name))
    got = {size: str(res.immunity) for size, res in table.items()}
    assert got == IMMUNITY_EXPECTED[name]


def test_immunity_table_certify_each_agrees():
    # an independent search on every 3-orbit agrees with the table
    r = preset("T")
    table = immunity_table(r)
    for o in orbits(r, 3):
        assert minimal_plague(o).min_size == table[o.size].min_size
    assert {s: res.min_size for s, res in table.items()} == {1: 1, 8: 3, 12: 4}


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 15), min_size=1))
def test_closure_operator_properties_random(seed):
    o = reference_orbit(16)
    c = quarantine_closure(o, seed)
    assert seed <= c
    assert quarantine_closure(o, c) == c


def _tuple_level_instances(o):
    """The closure instances from their definition: (T, sigma2 T, sigma1 sigma2 T)."""
    out = []
    for i, t in enumerate(o.tuples):
        s2 = sigma(o.rack, 2, t)
        out.append((i, o.index[s2], o.index[sigma(o.rack, 1, s2)]))
    return out


def test_closure_instances_match_the_tuple_definition():
    checked = [reference_orbit(size) for size in REFERENCE_SIZES]
    checked += orbits(preset("Aff(7,3)"), 3)
    for o in checked:
        assert closure_instances(o) == _tuple_level_instances(o)


def test_minimal_plague_leaves_no_reference_cycle():
    # a cycle would keep the orbit's forcing tables alive until a full
    # collection; with the collector off, none may be left to collect
    o = reference_orbit(24)
    gc.disable()
    try:
        gc.collect()
        minimal_plague(o)
        assert gc.collect() == 0
    finally:
        gc.enable()
