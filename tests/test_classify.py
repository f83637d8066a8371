import hashlib
import json

import pytest

from braidrack.classify import (
    SearchSpec,
    SizeCapExceeded,
    _Search,
    _cycle_types,
    search,
)
from braidrack.racks import invariants, is_braided, is_isomorphic, preset


def names_of(results, candidates):
    out = []
    for r in results:
        hit = [nm for nm in candidates if is_isomorphic(r, preset(nm))]
        out.append(hit[0] if hit else "unknown-%d" % r.size)
    return sorted(out)


def test_cycle_types():
    assert _cycle_types(2, 2) == [(2,)]
    assert _cycle_types(4, 2) == [(2, 2)]
    assert _cycle_types(3, 3) == [(3,)]
    assert _cycle_types(4, 4) == [(4,)]
    assert _cycle_types(6, 4) == [(2, 4)]
    assert set(_cycle_types(5, 6)) == {(2, 3)}
    assert set(_cycle_types(6, 6)) == {(6,)}


def test_size_cap_guard():
    with pytest.raises(SizeCapExceeded):
        SearchSpec(size_max=20)


def test_degree3_search():
    res = search(SearchSpec(degrees=(3,), k3_max=6, size_max=12))
    assert names_of(res, ["T"]) == ["T"]


def test_degree4_search():
    res = search(SearchSpec(degrees=(4,), k3_max=6, size_max=12))
    assert names_of(res, ["B"]) == ["B"]


def test_degree6_search():
    res = search(SearchSpec(degrees=(6,), k3_max=6, size_max=12))
    assert names_of(res, ["Aff(7,3)", "Aff(7,5)"]) == ["Aff(7,3)", "Aff(7,5)"]


def test_degree2_search():
    res = search(SearchSpec(degrees=(2,), k3_max=6, size_max=12))
    assert names_of(res, ["D3", "A", "C"]) == ["A", "C", "D3"]


def test_degree2_k3_8_finds_affine9():
    res = search(SearchSpec(degrees=(2,), k3_max=8, size_max=12))
    found = [r for r in res if is_isomorphic(r, preset("Aff(9,2)"))]
    assert len(found) == 1
    # the known k3 <= 6 trio is still there
    assert set(names_of(res, ["D3", "A", "C", "Aff(9,2)"])) >= {"D3", "A", "C", "Aff(9,2)"}
    # every extra rack is genuinely braided indecomposable of degree 2
    for r in res:
        inv = invariants(r)
        assert inv.is_braided and inv.is_indecomposable and inv.degree == 2
        assert inv.k3 <= 8 and r.size <= 12


def test_search_results_validated_and_deterministic():
    spec = SearchSpec(degrees=(2, 3), k3_max=4, size_max=9)
    res1 = search(spec)
    res2 = search(spec)
    assert [r.table for r in res1] == [r.table for r in res2]
    for r in res1:
        assert is_braided(r)
    sizes = [r.size for r in res1]
    assert sizes == sorted(sizes)


def test_small_unconstrained_crosscheck():
    # braided indecomposable racks with degree in {2, 3, 4, 6} up to size 9:
    # with k3 <= 6 exactly the classified list appears; lifting the bound to
    # k3 <= 8 adds Aff(9,2) and one further rack of size 9, degree 6, k3 = 8
    # (not affine: the multiplicative group of the 9-element field has no
    # element of order 6)
    known = ["A", "Aff(7,3)", "Aff(7,5)", "B", "D3", "T"]
    res6 = search(SearchSpec(degrees=(2, 3, 4, 6), k3_max=6, size_max=9))
    assert names_of(res6, known) == known

    res8 = search(SearchSpec(degrees=(2, 3, 4, 6), k3_max=8, size_max=9))
    extra = [r for r in res8 if names_of([r], known + ["Aff(9,2)"])[0].startswith("unknown")]
    assert len(extra) == 1
    inv = invariants(extra[0])
    assert (inv.size, inv.degree, inv.k3) == (9, 6, 8)
    assert inv.is_braided and inv.is_indecomposable
    # its census still satisfies the braided closed-form counts
    from braidrack.hurwitz import census

    c = census(extra[0])
    assert c.formula_agrees and c.counts == {1: 9, 8: 36, 24: 18}


def _table_digest(spec):
    tables = [[r.size, r.table] for r in search(spec)]
    return hashlib.sha256(json.dumps(tables).encode()).hexdigest()


@pytest.mark.parametrize(
    "spec, digest",
    [
        # the representatives and their order; a change to the search must keep them
        (SearchSpec(degrees=(2, 3, 4, 6), k3_max=6),
         "9d3627bb2a236d18ad9854cf80af825b4bfb5e1f066bf76f76e881a9dcd6831e"),
        (SearchSpec(degrees=(2,), k3_max=8, size_max=12),
         "0099b38800990a02454dffb19eac981e3fb7249a2972f91c68d6203048814bdd"),
        (SearchSpec(degrees=(2, 3), k3_max=4, size_max=9),
         "863941e8811270305bbbe1708fb412b056a308016f53779ad55b93773b31c2b1"),
    ],
)
def test_search_representatives_are_pinned(spec, digest):
    assert _table_digest(spec) == digest


def test_assign_keeps_rows_injective_at_fixed_points():
    # x|>a = y with a != y leaves no room for x|>y = y in the row of x
    s = _Search(SearchSpec(degrees=(2,), k3_max=2, size_max=6), 2, 2, (2,))
    s.support = 3
    s.table[0][1] = 2
    s.rowset[0].add(2)
    assert not s._assign(0, 2, 2)
