import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrack.braiding import (
    BraidedSpace,
    coboundary_twist,
    cocycle_preset,
    constant_cocycle,
    transposition_model,
)
from braidrack.fields import QQ, parse_field
from braidrack.hilbert import expand_product
from braidrack.hurwitz import orbits as hurwitz_orbits
from braidrack.linalg import kernel_dim
from braidrack.nichols import (
    NicholsEngine,
    NotBlockDiagonal,
    braid_map,
    braid_map_inv,
    check_conditions,
    closed_form_kernel_1orbit,
    closed_form_kernel_8orbit_bound,
    cubic_kernel,
    derive,
    general_inequality,
    general_inequality_lhs,
    graded_dim_direct,
    graded_dims,
    k3_bound,
    kernel_identity_terms,
    lemma_reduction_generic,
    lemma_reduction_minus_one,
    max_k3,
    one_orbit_operator_matrix,
    operator_matrix,
    symmetrizer_apply,
    x3_apply,
)
from braidrack.racks import preset


def minus1(name, field=None):
    f = field or QQ
    return BraidedSpace(constant_cocycle(preset(name), f, f.from_int(-1)))


def test_braid_map_on_d3():
    b = minus1("D3")
    out = braid_map(b, 1, {(0, 1, 2): QQ.one})
    assert out == {(2, 0, 2): QQ.from_int(-1)}


def test_braid_map_q1_is_hurwitz_sigma():
    from braidrack.hurwitz import sigma

    b = BraidedSpace(constant_cocycle(preset("T"), QQ, QQ.one))
    rng = random.Random(3)
    for _ in range(20):
        w = tuple(rng.randrange(4) for _ in range(4))
        i = rng.randint(1, 3)
        assert braid_map(b, i, {w: QQ.one}) == {sigma(b.rack, i, w): QQ.one}


def test_braid_map_inverse():
    b = cocycle_preset("t-new")
    K = b.field
    rng = random.Random(11)
    for _ in range(20):
        w = tuple(rng.randrange(4) for _ in range(3))
        vec = {w: K.pow(K.gen, rng.randrange(3))}
        i = rng.randint(1, 2)
        assert braid_map_inv(b, i, braid_map(b, i, vec)) == vec


def test_symmetrizer_trivial_rank():
    # one-element rack, q = 1: S_3 = 6 id in characteristic 0
    from braidrack.racks import trivial_rack

    b = BraidedSpace(constant_cocycle(trivial_rack(1), QQ, QQ.one))
    out = symmetrizer_apply(b, 3, {(0, 0, 0): QQ.one})
    assert out == {(0, 0, 0): QQ.from_int(6)}
    assert graded_dim_direct(b, 3) == 1


def test_d3_minus1_dims():
    b = minus1("D3")
    assert graded_dims(b, 5) == [1, 3, 4, 3, 1, 0]
    assert graded_dim_direct(b, 2) == 4
    assert graded_dim_direct(b, 3) == 3


def test_direct_and_differential_engines_agree():
    cases = [
        (minus1("D3"), 6),
        (minus1("T"), 5),
        (cocycle_preset("d3char2"), 6),
        (cocycle_preset("t-new"), 5),
        (transposition_model("A", 1), 3),
        (transposition_model("C", -1), 3),
        (minus1("Aff(7,3)"), 3),
    ]
    for b, max_deg in cases:
        eng = NicholsEngine(b)
        for n in range(max_deg + 1):
            assert eng.dim(n) == graded_dim_direct(b, n)


def test_t_minus1_series_and_total():
    b = minus1("T")
    dims = graded_dims(b, 9)
    assert dims == expand_product([(2, 1), (2, 1), (3, 1), (6, 1)], 9)
    assert sum(dims) == 72


def test_t_char2_series_and_total():
    F2 = parse_field("Fp(2)")
    b = BraidedSpace(constant_cocycle(preset("T"), F2, F2.one))
    dims = graded_dims(b, 7)
    assert dims == expand_product([(2, 1), (2, 1), (3, 1), (3, 1)], 7)
    assert sum(dims) == 36


def test_cubic_kernel_d3():
    b = minus1("D3")
    ck = cubic_kernel(b)
    assert ck.total == 9
    assert ck.has_many_cubic_relations()
    by_size = {}
    for blk in ck.blocks:
        by_size.setdefault(blk.size, []).append(blk)
    assert all(blk.kernel_dim == 0 for blk in by_size[1])
    assert all(blk.kernel_dim == 3 and blk.optimal for blk in by_size[8])


def test_one_orbit_block_kernel_is_zero_at_minus1():
    b = minus1("T")
    ck = cubic_kernel(b)
    for blk in ck.blocks:
        if blk.size == 1:
            assert blk.kernel_dim == closed_form_kernel_1orbit(1, QQ.from_int(-1), QQ)


def test_eight_orbit_kernel_bound_generic_q():
    b = BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(2)))
    for blk in cubic_kernel(b).blocks:
        if blk.size == 8:
            assert blk.kernel_dim <= 2


def test_check_conditions_d3():
    rep = check_conditions(minus1("D3"), 4)
    assert rep.dims == [1, 3, 4, 3, 1]
    assert rep.cond1_truncated and rep.cond2 and rep.cond3
    assert rep.all_true()
    assert rep.cubic == cubic_kernel(minus1("D3"))
    assert rep.cubic.total == 9 and rep.cubic.many_cubic_threshold() == 8


def test_check_conditions_fails_for_bad_q():
    b = BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(2)))
    rep = check_conditions(b, 3)
    assert not rep.cond3


CLOSED_FORM_CASES = [
    # (field spec, q literal, expected for e = 1, 2, 3)
    ("QQ", "-1", [0, 2, 8]),
    ("QQ", "1", [0, 2, 8]),
    ("QQ", "2", [0, 0, 0]),
    ("Fp(3)", "1", [1, 4, 11]),        # char 3, q = 1
    ("Fp(3)", "-1", [0, 2, 8]),
    ("Fp(7)", "2", [1, 4, 10]),        # 1 + q + q^2 = 0, char != 3
    ("Fp(7)", "3", [0, 0, 1]),         # 1 - q + q^2 = 0, char not 2, 3
    ("QQ[t]/(t^2+t+1)", "t", [1, 4, 10]),
    ("QQ[t]/(t^2+t+1)", "-t", [0, 0, 1]),
    ("QQ[t]/(t^2+t+1)", "2", [0, 0, 0]),
    ("QQ[t]/(t^2-t+1)", "t", [0, 0, 1]),
    ("QQ[t]/(t^2-t+1)", "t-1", [1, 4, 10]),
    ("Fp(2)[t]/(t^2+t+1)", "t", [1, 4, 10]),
    ("Fp(2)[t]/(t^2+t+1)", "1", [0, 2, 8]),  # q = 1 = -1 in char 2
]


@pytest.mark.parametrize("spec,qs,expected", CLOSED_FORM_CASES)
def test_closed_form_kernel_1orbit(spec, qs, expected):
    f = parse_field(spec)
    q = f.parse(qs)
    for e, want in zip((1, 2, 3), expected):
        assert closed_form_kernel_1orbit(e, q, f) == want
        m = one_orbit_operator_matrix(f, e, q)
        assert kernel_dim(f, m) == want


def test_closed_form_8orbit_bounds():
    assert closed_form_kernel_8orbit_bound(1, QQ.from_int(-1), QQ) == 3
    assert closed_form_kernel_8orbit_bound(1, QQ.from_int(2), QQ) == 2
    assert closed_form_kernel_8orbit_bound(2, QQ.from_int(-1), QQ) == 22


def test_general_inequality_specializations():
    # (6, 1, 4, 0): 24 d1 + 48 d8 >= 136; (10, 1, 6, 0): 24 d1 + 72 d8 >= 216
    for d1 in range(3):
        for d8 in range(4):
            assert general_inequality_lhs(6, 1, 4, 0, d1, d8) == 24 * d1 + 48 * d8 - 136
            assert general_inequality_lhs(10, 1, 6, 0, d1, d8) == 24 * d1 + 72 * d8 - 216
    assert general_inequality(3, 1, 2, 0, 0, 3)  # 72 - 4 - 60 + 0 = 8 >= 0
    assert general_inequality_lhs(3, 1, 2, 0, 0, 3) == 8


def test_lemma_reductions_at_random_points():
    rng = random.Random(42)
    for _ in range(200):
        d, e = rng.randint(1, 30), rng.randint(1, 5)
        k3, m = rng.randint(0, 25), rng.randint(0, 25)
        assert general_inequality_lhs(
            d, e, k3, m, Fraction(e * (e * e - 1), 3), Fraction(e * e * (5 * e + 1), 2)
        ) == -(e * e) * lemma_reduction_minus_one(e, k3, m)
        assert general_inequality_lhs(
            d, e, k3, m, Fraction(e * (e * e + 2), 3), Fraction(e * e * (5 * e - 1), 2)
        ) == -e * lemma_reduction_generic(e, k3, m)


def test_k3_bounds():
    assert max(max_k3(1, True), max_k3(1, False)) == 6
    for e in (2, 3, 4):
        assert max(max_k3(e, True), max_k3(e, False)) <= 3


def test_max_k3_values():
    # the values of the former scan over k3 <= 200
    assert [max_k3(e, True) for e in range(1, 21)] == [6, 3, 3, 1, 1, 1] + [0] * 14
    assert [max_k3(e, False) for e in range(1, 21)] == [3, 1] + [0] * 18


@pytest.mark.parametrize("minus_one", [True, False])
def test_lemma_reduction_is_positive_past_the_k3_bound(minus_one):
    lhs = lemma_reduction_minus_one if minus_one else lemma_reduction_generic
    for e in range(1, 21):
        for k3 in range(k3_bound(e, minus_one), 201):
            assert all(lhs(e, k3, m) > 0 for m in range(0, k3 + 1, 3)), (e, k3)
    with pytest.raises(ValueError):
        k3_bound(0, minus_one)


def test_kernel_identity_is_equality_here():
    for b in (minus1("D3"), minus1("T")):
        ks3, dk1c, kx3 = kernel_identity_terms(b)
        assert ks3 <= dk1c + kx3
        assert ks3 == dk1c + kx3


def test_derive_basic():
    b = minus1("D3")
    assert derive(b, 0, {(0,): QQ.one}) == {(): QQ.one}
    assert derive(b, 1, {(0,): QQ.one}) == {}
    assert derive(b, 0, {(): QQ.one}) == {}


def _derive_reference(b, x, w):
    """d_x(y w) = delta_{x,y} w + q[y][phi_y^{-1}(x)] y d_{phi_y^{-1}(x)}(w), d_x(()) = 0."""
    f = b.field
    if not w:
        return {}
    y, rest = w[0], w[1:]
    x1 = b.rack.phi_inv(y)[x]
    out = {(y,) + u: f.mul(b.cocycle.q[y][x1], c)
           for u, c in _derive_reference(b, x1, rest).items()}
    if y == x:
        out[rest] = f.add(out.get(rest, f.zero), f.one)
    return out


DERIVE_SPACES = {
    "t-new": cocycle_preset("t-new"),
    "d3char2": cocycle_preset("d3char2"),
    "minus1(T)": minus1("T"),
}


@st.composite
def _space_vector(draw):
    b = DERIVE_SPACES[draw(st.sampled_from(sorted(DERIVE_SPACES)))]
    f = b.field
    n = draw(st.integers(1, 5))
    vec = {}
    for _ in range(draw(st.integers(1, 6))):
        w = tuple(draw(st.lists(st.integers(0, b.dim - 1), min_size=n, max_size=n)))
        c = f.from_int(draw(st.integers(-3, 3)))
        if hasattr(f, "gen"):
            c = f.add(c, f.mul(f.from_int(draw(st.integers(-3, 3))), f.gen))
        if not f.is_zero(c):
            vec[w] = c
    return b, vec, draw(st.integers(0, b.dim - 1))


@settings(max_examples=200, deadline=None)
@given(_space_vector())
def test_derive_matches_the_recursion(case):
    b, vec, x = case
    f = b.field
    want = {}
    for w, c in vec.items():
        for u, cu in _derive_reference(b, x, w).items():
            want[u] = f.add(want.get(u, f.zero), f.mul(c, cu))
    assert derive(b, x, vec) == {u: c for u, c in want.items() if not f.is_zero(c)}


def test_operator_matrix_off_block_raises():
    b = minus1("D3")
    o = next(o for o in hurwitz_orbits(b.rack, 3) if o.size == 8)
    half = o.tuples[: o.size // 2]
    with pytest.raises(NotBlockDiagonal):
        operator_matrix(b.field, half, lambda w: x3_apply(b, {w: b.field.one}))
    # the whole orbit is a block
    assert operator_matrix(b.field, o.tuples, lambda w: x3_apply(b, {w: b.field.one})).nrows == 8


def test_squares_in_kernel_at_minus1():
    b = minus1("D3")
    img = symmetrizer_apply(b, 2, {(0, 0): QQ.one})  # S_2(a^2) = (1 + q) a^2
    assert img == {}


def test_derive_maps_kernel_to_kernel():
    b = cocycle_preset("t-new")
    f = b.field
    rel = {(0, 0, 0): f.one}  # a^3 is in ker S_3
    img = symmetrizer_apply(b, 3, rel)
    assert all(f.is_zero(c) for c in img.values())
    for x in range(4):
        dimg = symmetrizer_apply(b, 2, derive(b, x, rel))
        assert all(f.is_zero(c) for c in dimg.values())


def test_block_ranks_sum_to_total():
    b = minus1("T")
    total = graded_dim_direct(b, 3)
    assert total == NicholsEngine(b).dim(3)


def test_truncation_series_ab_c():
    expected = expand_product([(2, 1)] * 2 + [(3, 1)] * 2 + [(4, 1)] * 2, 4)
    assert graded_dims(transposition_model("A", 1), 4) == expected
    assert graded_dims(cocycle_preset("group(S4,(1234),-1)"), 4) == expected


def test_twist_equivalent_modules_share_dims():
    # the two transposition modules and the constant -1 braiding agree
    expected = expand_product([(2, 1)] * 2 + [(3, 1)] * 2 + [(4, 1)] * 2, 4)
    assert graded_dims(minus1("A"), 4) == expected
    assert graded_dims(transposition_model("A", -1), 4) == expected


def test_group_model_bfs_order_does_not_change_dims():
    from braidrack import perms
    from braidrack.braiding import group_model_cocycle

    g = perms.from_cycles(4, [(0, 1)])
    rho = {g: QQ.from_int(-1), perms.from_cycles(4, [(2, 3)]): QQ.one}
    gens_a = [perms.from_cycles(4, [(0, 1)]), perms.from_cycles(4, [(0, 1, 2, 3)])]
    gens_b = list(reversed(gens_a)) + [perms.from_cycles(4, [(1, 2)])]
    dims = []
    for gens in (gens_a, gens_b):
        model = group_model_cocycle(gens, g, rho, QQ)
        dims.append(graded_dims(BraidedSpace(model.cocycle), 3))
    assert dims[0] == dims[1]


TWIST_SPACES = {
    "D3-minus1": lambda: minus1("D3"),
    "T-minus1": lambda: minus1("T"),
    "d3char2": lambda: cocycle_preset("d3char2"),
    "t-new": lambda: cocycle_preset("t-new"),
    "A-sign+1": lambda: transposition_model("A", 1),
}


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(TWIST_SPACES)), data=st.data())
def test_coboundary_twists_keep_the_low_degree_dims(name, data):
    b = TWIST_SPACES[name]()
    f = b.field

    def scalar(ab):
        v = f.from_int(ab[0])
        return f.add(v, f.mul(f.from_int(ab[1]), f.gen)) if hasattr(f, "gen") else v

    unit = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(scalar).filter(
        lambda v: not f.is_zero(v))
    fvals = data.draw(st.lists(unit, min_size=b.dim, max_size=b.dim))
    bt = BraidedSpace(coboundary_twist(b.cocycle, fvals))
    dims = NicholsEngine(bt).dims(3)
    assert dims == [graded_dim_direct(bt, n) for n in range(4)]
    assert dims == NicholsEngine(b).dims(3)
