import hashlib
import json
import random

import pytest

from braidrack import perms
from braidrack.braiding import (
    BraidedSpace,
    CharacterInconsistent,
    Cocycle,
    CocycleConditionFails,
    CocycleError,
    NotInCentralizer,
    ZeroScalar,
    coboundary_twist,
    cocycle_preset,
    constant_cocycle,
    group_model_cocycle,
    table_cocycle,
    transposition_model,
)
from braidrack.fields import QQ, parse_field
from braidrack.racks import preset


def _diagonal(c):
    """The set of values q[x][x]."""
    return {c.q[x][x] for x in range(c.dim)}


def test_constant_cocycle_validates():
    c = constant_cocycle(preset("D3"), QQ, QQ.from_int(-1))
    assert c.check_yang_baxter()
    assert _diagonal(c) == {QQ.from_int(-1)}


def test_zero_scalar_rejected():
    with pytest.raises(ZeroScalar):
        constant_cocycle(preset("D3"), QQ, QQ.zero)
    with pytest.raises(ZeroScalar):
        coboundary_twist(
            constant_cocycle(preset("D3"), QQ, QQ.one), [QQ.one, QQ.zero, QQ.one]
        )


def test_transposition_braiding_with_q_one():
    # q = 1 is the plain rack permutation braiding; always a cocycle
    c = constant_cocycle(preset("C"), QQ, QQ.one)
    assert c.check_yang_baxter()


def test_cocycle_condition_fails_on_bad_table():
    d3 = preset("D3")
    entries = [[QQ.from_int(-1)] * 3 for _ in range(3)]
    entries[0][1] = QQ.one  # flip one sign of the constant table
    with pytest.raises(CocycleConditionFails):
        table_cocycle(d3, QQ, entries)


def test_yang_baxter_fails_exactly_where_the_cocycle_condition_does():
    d3 = preset("D3")
    entries = [[QQ.one] * 3 for _ in range(3)]
    entries[1][2] = QQ.from_int(-1)
    with pytest.raises(CocycleConditionFails) as ei:
        table_cocycle(d3, QQ, entries)
    assert ei.value.triple == (0, 1, 2)
    # a valid cocycle given the failing table after its check
    c = table_cocycle(d3, QQ, [[QQ.one] * 3 for _ in range(3)])
    c.q = tuple(tuple(row) for row in entries)
    assert c.check_yang_baxter() is False


def test_preset_tables_are_cocycles():
    for name in ("d3char2", "t-new", "t-sign-flipped"):
        space = cocycle_preset(name)
        assert space.cocycle.check_yang_baxter()


def test_t_new_table_values():
    space = cocycle_preset("t-new")
    K = space.field
    q = K.gen
    mq = K.neg(q)
    expected = [
        [q, q, q, q],
        [q, q, mq, mq],
        [q, mq, q, mq],
        [q, mq, mq, q],
    ]
    assert [list(row) for row in space.cocycle.q] == expected


def test_group_model_a_and_c():
    a = transposition_model("A", 1)
    assert a.dim == 6
    assert _diagonal(a.cocycle) == {QQ.from_int(-1)}
    am = transposition_model("A", -1)
    assert _diagonal(am.cocycle) == {QQ.from_int(-1)}
    c = transposition_model("C", 1)
    assert c.dim == 10


def test_group_model_on_a_mislabeled_rack_is_rejected(monkeypatch):
    from braidrack import braiding

    labels = braiding.preset_labels("A")
    rotated = labels[1:] + labels[:1]
    monkeypatch.setattr(braiding, "preset_labels", lambda name: rotated)
    with pytest.raises(CocycleError, match="differs from the preset"):
        transposition_model("A", -1)


def test_group_model_b():
    b = cocycle_preset("group(S4,(1234),-1)")
    assert b.dim == 6
    assert b.rack == preset("B")
    assert _diagonal(b.cocycle) == {QQ.from_int(-1)}


def test_group_model_inconsistent_character():
    g = perms.from_cycles(4, [(0, 1, 2, 3)])
    g3 = perms.from_cycles(4, [(0, 3, 2, 1)])
    gens = [perms.from_cycles(4, [(0, 1)]), g]
    with pytest.raises(CharacterInconsistent):
        group_model_cocycle(gens, g, {g: QQ.from_int(-1), g3: QQ.one}, QQ)


def test_group_model_noncentral_value_rejected():
    g = perms.from_cycles(4, [(0, 1)])
    gens = [g, perms.from_cycles(4, [(0, 1, 2, 3)])]
    with pytest.raises(NotInCentralizer):
        group_model_cocycle(gens, g, {perms.from_cycles(4, [(1, 2)]): QQ.one}, QQ)


def test_group_model_aff7_twists_to_constant():
    r = preset("Aff(7,3)")
    gens = [r.phi(x) for x in range(7)]
    g = r.phi(0)
    labeling = [r.phi(x) for x in range(7)]
    model = group_model_cocycle(gens, g, {g: QQ.from_int(-1)}, QQ, labeling=labeling)
    assert model.rack == r
    # twisting by parity of the representative word length gives constant -1
    _, _, depth = perms.conjugacy_class(gens, g)
    f = [QQ.from_int((-1) ** depth[p]) for p in labeling]
    twisted = coboundary_twist(model, f)
    minus1 = constant_cocycle(r, QQ, QQ.from_int(-1))
    assert twisted.q == minus1.q


def test_coboundary_twist_identity_and_condition():
    c = cocycle_preset("t-new").cocycle
    K = c.field
    same = coboundary_twist(c, [K.one] * 4)
    assert same.q == c.q
    rng = random.Random(5)
    for _ in range(10):
        f = [K.pow(K.neg(K.gen), rng.randrange(6)) for _ in range(4)]
        t = coboundary_twist(c, f)
        Cocycle(t.rack, K, t.q)  # re-validate the condition from scratch
        assert t.check_yang_baxter()


def test_diagonal_constant_for_indecomposable():
    for name in ("d3char2", "t-new"):
        space = cocycle_preset(name)
        assert len(_diagonal(space.cocycle)) == 1


def test_d3char2_preset_field_and_values():
    space = cocycle_preset("d3char2")
    F = space.field
    assert F.spec_string() == "Fp(2)[t]/(t^2+t+1)"
    assert all(v == F.gen for row in space.cocycle.q for v in row)


@pytest.mark.parametrize("name", ["d3char2", "t-new"])
@pytest.mark.parametrize("spec", ["QQ", "Fp(7)"])
def test_quotient_ring_presets_reject_a_field_without_q(name, spec):
    with pytest.raises(CocycleError, match="%s needs a quotient-ring field" % name):
        cocycle_preset(name, parse_field(spec))


def test_minus1_preset():
    space = cocycle_preset("minus1(T)")
    assert space.dim == 4
    assert _diagonal(space.cocycle) == {QQ.from_int(-1)}


# SHA-256 of json.dumps([name, q]), q's entries printed by the field: a
# relabeling of the underlying preset that moves any entry changes the digest.
COCYCLE_DIGESTS = {
    "d3char2": "1e321107230498525f6c585e50aff0e67ba71e6f3ccfa694312ea22f8a6d5b57",
    "t-new": "07e0c132cb4ac29e3e77dd29d9ab1681c82e492390e08dbb92b7e0632ea26a84",
    "t-sign-flipped": "8903ff7a8c369a3d8655844392e658935bca752658e071c3ede1c6fde6b9413f",
    "minus1(D3)": "dae5127c27992a830de3a696c9250ead72a1a96461e977e1dd7bde094beaf7f3",
    "minus1(T)": "2f2fd0182938c7c16241e8c66fd8b6ad7378fdf6fb7aaf0bf5bea17bdbd6b631",
    "transposition-sign(A)": "a3ea472df7a3859dc19a57c97df698b3e758813a6178dc0a4ffd76c3a4c887bf",
    "transposition-sign(C)": "ae24a67f856ade769b157da0cf69047d585764ccad3aec725a3657c8c959be61",
    "group(S4,(1234),-1)": "21b65dd973e31e9a3a0850b99bfd138f40def61f1cc6dcef3b00813b578875a1",
    "transposition_model(A,+1)": "c089b442eadc3aa7a45106e593852b0a362c38d71fa01439bd19b4140cfe7b39",
    "transposition_model(A,-1)": "6db6d5bb9e933071a876b0259718d8480d17fd49f88f6302f6364f0f04d279c2",
    "transposition_model(C,+1)": "04fc1ec731f85b9efa4fd86ca770cf4c204d9dcc01d0cc061c7b179930d6b744",
    "transposition_model(C,-1)": "adb7e66baf9f343fe636125e4c0a485cbe8fc3193eaecf06599079701634624f",
}


def _pinned_space(name):
    if name.startswith("transposition_model("):
        return transposition_model(name[20], int(name[22:-1]))
    return cocycle_preset(name)


@pytest.mark.parametrize("name", sorted(COCYCLE_DIGESTS))
def test_cocycle_tables_are_pinned(name):
    space = _pinned_space(name)
    q = [[space.field.to_str(v) for v in row] for row in space.cocycle.q]
    digest = hashlib.sha256(json.dumps([name, q]).encode()).hexdigest()
    assert digest == COCYCLE_DIGESTS[name]
