import hashlib
import itertools
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrack import hilbert, linalg, percolate
from braidrack.braiding import (
    BraidedSpace,
    coboundary_twist,
    cocycle_preset,
    constant_cocycle,
    transposition_model,
)
from braidrack.fields import GF, QQ, parse_field
from braidrack.hilbert import expand_product
from braidrack.hurwitz import orbits as hurwitz_orbits
from braidrack.linalg import kernel_dim
from braidrack.nichols import (
    NicholsEngine,
    NotBlockDiagonal,
    apply_x,
    check_conditions,
    closed_form_kernel_1orbit,
    closed_form_kernel_8orbit_bound,
    cubic_kernel,
    derive,
    general_inequality_lhs,
    graded_dims,
    k3_bound,
    kernel_identity_terms,
    lemma_reduction_generic,
    lemma_reduction_minus_one,
    max_k3,
    operator_matrix,
    symmetrizer_apply,
)
from braidrack.parallel import BlockProcessError, runs
from braidrack.racks import preset, trivial_rack
from direct_engine import graded_dim_direct

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def minus1(name, field=None):
    f = field or QQ
    return BraidedSpace(constant_cocycle(preset(name), f, f.from_int(-1)))


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


@pytest.mark.parametrize("p", [13, 17], ids=["packed-Fp(13)", "dict-Fp(17)"])
def test_d3_minus1_dims_over_the_largest_packed_and_first_dict_prime(p):
    assert graded_dims(minus1("D3", GF(p)), 5) == [1, 3, 4, 3, 1, 0]
    assert (p in linalg._MOD) == (p <= linalg.PACKED_PRIME_MAX)


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
            assert eng.dims(n)[n] == graded_dim_direct(b, n)


NICHOLS_PINS = [
    pytest.param(lambda: workloads.modular_inputs(1).space, 8,
                 "566d5791a3e87f85becddd8db9fa5e3a1a56527213a425e5273c7300ed19e5fe",
                 id="F7-t-new"),
    pytest.param(lambda: transposition_model("A", 1), 5,
                 "1af651a2dc675f14b972261e2027eb0a4f910a90e3f15491ffcd8dce65144f13",
                 id="A-sign+1"),
]


def _nichols_digest(eng):
    # sha256 over repr of (n, basis[n], sorted nfmul[n]) for every degree,
    # nfmul[n] listed as ((y, j), coords) pairs: the pins were taken when a
    # candidate was named by the tuple (y, j) rather than the key y * nb + j.
    # The QQ pin was taken when every QQ scalar was a Fraction; an integral
    # one is an int now, equal in value but not in repr, so it is hashed as
    # Fraction(c)
    scalar = Fraction if eng.f == QQ else (lambda c: c)
    data = []
    for n in sorted(eng.nfmul):
        nb = len(eng.basis[n - 1])
        assert len(eng.nfmul[n]) == eng.b.dim * nb and None not in eng.nfmul[n]
        data.append((n, eng.basis[n], [
            (divmod(key, nb), sorted((i, scalar(c)) for i, c in eng.form(n, key).items()))
            for key in range(len(eng.nfmul[n]))
        ]))
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("space, up_to, digest", NICHOLS_PINS)
def test_nichols_engine_digest_is_pinned(space, up_to, digest, blocks_in_parts):
    blocks_in_parts(1)
    eng = NicholsEngine(space())
    eng.dims(up_to)
    assert set(eng.parts.values()) == {1}
    assert _nichols_digest(eng) == digest


@pytest.mark.parametrize("parts", [2, 3], ids=["2-part", "3-part"])
@pytest.mark.parametrize("space, up_to, digest", NICHOLS_PINS)
def test_nichols_engine_digest_is_pinned_in_forked_parts(space, up_to, digest, parts, blocks_in_parts):
    # the same pin when every degree's blocks run in 2 or 3 processes
    blocks_in_parts(parts)
    eng = NicholsEngine(space())
    eng.dims(up_to)
    assert max(eng.parts.values()) == parts
    assert _nichols_digest(eng) == digest


class _FailInChild(NicholsEngine):
    """Raises, or kills itself, in every grade block reduced outside the
    process that built the engine."""

    def __init__(self, b, how):
        super().__init__(b)
        self.how, self.home = how, os.getpid()

    def _reduce_block(self, n, grade, cands, prev_d):
        if os.getpid() != self.home:
            if self.how == "raise":
                raise ArithmeticError("block of degree %d broke" % n)
            os.kill(os.getpid(), signal.SIGKILL)
        return super()._reduce_block(n, grade, cands, prev_d)


@pytest.mark.parametrize("how, message", [
    ("raise", "ArithmeticError: block of degree 2 broke"),
    ("kill", "was killed by signal %d" % signal.SIGKILL),
])
def test_a_failed_block_process_is_a_named_fault(how, message, blocks_in_parts):
    blocks_in_parts(2)
    eng = _FailInChild(minus1("T"), how)
    with pytest.raises(BlockProcessError) as info:
        eng.dims(3)
    assert message in str(info.value)
    if how == "raise":
        # the child's traceback, with the line that raised
        assert "Traceback (most recent call last)" in str(info.value)
        assert "in _reduce_block" in str(info.value)
    # every child was reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_block_failing_in_the_parent_reaps_its_children(blocks_in_parts):
    class FailAtHome(NicholsEngine):
        def _reduce_block(self, n, grade, cands, prev_d):
            if os.getpid() == home:
                raise ArithmeticError("broke at home")
            return super()._reduce_block(n, grade, cands, prev_d)

    home = os.getpid()
    blocks_in_parts(3)
    with pytest.raises(ArithmeticError, match="broke at home"):
        FailAtHome(minus1("T")).dims(3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_runs_are_contiguous_and_balanced_by_candidates():
    assert runs([5, 5, 5, 5], 1) == [range(0, 4)]
    assert runs([5, 5, 5, 5], 2) == [range(0, 2), range(2, 4)]
    assert runs([9, 1, 1, 1, 1, 1, 1, 1, 1, 1], 2) == [range(0, 1), range(1, 10)]
    assert runs([1, 1, 8], 3) == [range(0, 1), range(1, 2), range(2, 3)]
    assert runs([], 1) == [range(0, 0)]


def test_import_leaves_the_process_runner_and_pickle_unloaded():
    # both are imported only by a degree that forks
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, braidrack; print(sorted(m for m in sys.modules if 'pickle' in m or m == 'braidrack.parallel'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_import_builds_no_packed_rows():
    # the mod-p tables are built by the first packed store over p, not at import
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import braidrack; from braidrack import linalg; print(sorted(linalg._MOD))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["[]"]


def test_the_quick_profile_never_forks():
    # its slowest deciding degree takes a quarter to a half of _FORK_SECONDS
    # (the comment there): no degree of quick runs its blocks in forked
    # processes
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, braidrack; assert braidrack.verify_paper('quick').ok(); "
            "print('braidrack.parallel' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False"]


def test_nichols_engine_keeps_the_top_degree_derivations_only():
    space = workloads.modular_inputs(1).space
    eng = NicholsEngine(space)
    eng.dims(10)
    # one dict dmat[i] = {x: d_x(basis[10][i])} per basis word of degree 10,
    # each derivation nonzero and in basis[9] coordinates
    assert len(eng.dmat) == len(eng.basis[10])
    nb = len(eng.basis[9])
    for k in range(len(eng.dmat)):
        dx = eng.derivations(k)
        assert dx and all(0 <= x < space.dim and v for x, v in dx.items())
        assert all(0 <= i < nb for v in dx.values() for i in v)
    eng.extend(11)
    fresh = NicholsEngine(space)
    assert [len(eng.basis[n]) for n in range(12)] == fresh.dims(11)
    assert eng.basis[11] == fresh.basis[11]
    assert all(eng.form(11, key) == fresh.form(11, key) for key in range(len(eng.nfmul[11])))


@pytest.mark.parametrize("space, up_to", [
    pytest.param(lambda: minus1("T"), 5, id="T-minus1"),
    pytest.param(lambda: workloads.modular_inputs(1).space, 6, id="F7-t-new"),
])
def test_stored_derivations_are_the_free_word_derivations(space, up_to):
    # dmat[i][x] is d_x(basis[n][i]) in basis[n-1] coordinates, and an absent
    # x is a zero derivation: the free-word operator, reduced to its normal
    # form, gives the same vector at every degree
    b = space()
    one = b.field.one
    eng = NicholsEngine(b)
    for n in range(1, up_to + 1):
        eng.extend(n)
        assert len(eng.dmat) == len(eng.basis[n])
        for i, w in enumerate(eng.basis[n]):
            for x in range(b.dim):
                assert eng.derivations(i).get(x, {}) == eng.nf_vector(derive(b, x, {w: one}), n - 1)


@pytest.mark.parametrize("space", [
    minus1("D3"), minus1("T"), transposition_model("A", 1), cocycle_preset("t-new"),
], ids=["D3-minus1", "T-minus1", "A-sign+1", "t-new"])
def test_nfmul_relations_lie_in_the_symmetrizer_kernel(space):
    # y * basis[n-1][j] minus its class in basis[n] is 0 in the Nichols algebra
    f = space.field
    eng = NicholsEngine(space)
    eng.dims(4)
    dependent = 0
    for n in range(2, 5):
        words = set(eng.basis[n])
        nb = len(eng.basis[n - 1])
        for key in range(len(eng.nfmul[n])):
            coords = eng.form(n, key)
            y, j = divmod(key, nb)
            word = (y,) + eng.basis[n - 1][j]
            if word in words:
                continue
            vec = {word: f.one}
            f.axpy(vec, {eng.basis[n][i]: c for i, c in coords.items()}, f.neg(f.one))
            assert symmetrizer_apply(space, n, vec) == {}
            dependent += 1
    assert dependent


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


def test_cubic_kernel_gives_orbits_above_the_cap_the_trivial_bound(plague_searches):
    # the non-braided Aff(7,2) has 3-orbits of sizes 1, 42 and 49; only the
    # 1-orbits get a plague search
    ck = cubic_kernel(minus1("Aff(7,2)"))
    big = [blk for blk in ck.blocks if blk.size > percolate.BOUND_ORBIT_CAP]
    assert sorted({blk.size for blk in big}) == [42, 49]
    assert all(blk.immunity_bound == blk.size and not blk.optimal for blk in big)
    assert plague_searches == [1]


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
    assert rep.cubic == cubic_kernel(minus1("D3"))
    assert rep.cubic.total == 9 and rep.cubic.many_cubic_threshold() == 8


def test_check_conditions_reports_a_cut_factorization_list(monkeypatch):
    # T-minus1's series to degree 4 has two factorizations
    rep = check_conditions(minus1("T"), 4)
    assert len(rep.factorizations) == 2 and rep.factorizations_complete
    monkeypatch.setattr(hilbert, "MAX_SOLUTIONS", 1)
    rep = check_conditions(minus1("T"), 4)
    assert len(rep.factorizations) == 1 and not rep.factorizations_complete
    assert rep.cond1_truncated


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
        # the one-point block with fiber dimension e: the trivial rack of size e
        b = BraidedSpace(constant_cocycle(trivial_rack(e), f, q))
        words = list(itertools.product(range(e), repeat=3))
        m = operator_matrix(f, words, lambda w: apply_x(b, {w: f.one}, 0, 3))
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
    assert general_inequality_lhs(3, 1, 2, 0, 0, 3) == 8  # 72 - 4 - 60 + 0


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
        operator_matrix(b.field, half, lambda w: apply_x(b, {w: b.field.one}, 0, 3))
    # the whole orbit is a block
    assert operator_matrix(b.field, o.tuples, lambda w: apply_x(b, {w: b.field.one}, 0, 3)).nrows == 8


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
    assert total == NicholsEngine(b).dims(3)[3]


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
        dims.append(graded_dims(BraidedSpace(model), 3))
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
