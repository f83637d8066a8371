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


def test_constant_cocycle_validates():
    c = constant_cocycle(preset("D3"), QQ, QQ.from_int(-1))
    assert c.check_yang_baxter()
    assert c.diagonal_value() == QQ.from_int(-1)


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
    assert a.cocycle.diagonal_value() == QQ.from_int(-1)
    am = transposition_model("A", -1)
    assert am.cocycle.diagonal_value() == QQ.from_int(-1)
    c = transposition_model("C", 1)
    assert c.dim == 10


def test_group_model_on_a_mislabeled_rack_is_rejected(monkeypatch):
    from braidrack import braiding

    labels = braiding.preset_transposition_labels("A")
    rotated = list(labels[1:]) + list(labels[:1])
    monkeypatch.setattr(braiding, "preset_transposition_labels", lambda which: rotated)
    with pytest.raises(CocycleError, match="differs from the preset"):
        transposition_model("A", -1)


def test_group_model_b():
    b = cocycle_preset("group(S4,(1234),-1)")
    assert b.dim == 6
    assert b.rack == preset("B")
    assert b.cocycle.diagonal_value() == QQ.from_int(-1)


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
    f = [QQ.from_int((-1) ** d) for d in model.rep_depth]
    twisted = coboundary_twist(model.cocycle, f)
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
        assert space.cocycle.diagonal_value() is not None


def test_d3char2_preset_field_and_values():
    space = cocycle_preset("d3char2")
    F = space.field
    assert F.spec_string() == "Fp(2)[t]/(t^2+t+1)"
    assert all(v == F.gen for row in space.cocycle.q for v in row)


def test_minus1_preset():
    space = cocycle_preset("minus1(T)")
    assert space.dim == 4
    assert space.cocycle.diagonal_value() == QQ.from_int(-1)
