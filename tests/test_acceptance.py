"""Acceptance suite: every release criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  All expected values are exact integers or rationals;
there are no tolerances anywhere.
"""
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from braidrack import classify, hilbert, nichols, percolate, presentations, verify
from braidrack.braiding import (
    BraidedSpace,
    CharacterInconsistent,
    coboundary_twist,
    cocycle_preset,
    constant_cocycle,
    group_model_cocycle,
    transposition_model,
)
from braidrack.fields import QQ, parse_field
from braidrack.hurwitz import REFERENCE_SIZES, census, orbits, reference_orbit
from braidrack.linalg import kernel_dim
from braidrack.racks import invariants, is_isomorphic, preset, trivial_rack
from braidrack import perms


def report(criterion, ok, started):
    line = "%s: %s (%.2fs)" % (criterion, "PASS" if ok else "FAIL", time.time() - started)
    print(line, file=sys.stderr)
    assert ok, criterion


# -- P1 ---------------------------------------------------------------------

P1_EXPECTED = {
    "D3": {1: 3, 8: 3},
    "T": {1: 4, 8: 6, 12: 1},
    "A": {1: 6, 3: 6, 8: 12, 16: 6},
    "B": {1: 6, 3: 6, 8: 12, 16: 6},
    "C": {1: 10, 3: 30, 8: 30, 9: 20, 16: 30},
    "Aff(7,3)": {1: 7, 8: 21, 24: 7},
    "Aff(7,5)": {1: 7, 8: 21, 24: 7},
    "Aff(9,2)": {1: 9, 8: 36, 24: 18},
}


def test_p1_orbit_census():
    t0 = time.time()
    ok = True
    for name, expected in P1_EXPECTED.items():
        c = census(preset(name))
        ok &= c.counts == expected
        ok &= c.total_check
        ok &= bool(c.formula_agrees)
    elapsed = time.time() - t0
    ok &= elapsed < 2.0
    report("P1 orbit census (8 racks, formulas, < 2 s)", ok, t0)


# -- P2 ---------------------------------------------------------------------

def test_p2_immunity():
    t0 = time.time()
    expected_sizes = {1: 1, 3: 1, 6: 2, 8: 3, 9: 3, 12: 4, 16: 5, 24: 7}
    expected_imm = {
        1: Fraction(1), 3: Fraction(1, 3), 6: Fraction(1, 3), 8: Fraction(3, 8),
        9: Fraction(1, 3), 12: Fraction(1, 3), 16: Fraction(5, 16), 24: Fraction(7, 24),
    }
    ok = True
    for size in REFERENCE_SIZES:
        res = percolate.minimal_plague(reference_orbit(size))
        ok &= res.min_size == expected_sizes[size]
        ok &= res.immunity == expected_imm[size]
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report("P2 immunity (exhaustive minimal plagues, < 30 s)", ok, t0)


# -- P3 ---------------------------------------------------------------------

def test_p3_closed_form_kernels():
    t0 = time.time()
    ok = True
    cases = []
    for spec in ("QQ", "Fp(3)", "Fp(7)", "QQ[t]/(t^2+t+1)", "QQ[t]/(t^2-t+1)"):
        f = parse_field(spec)
        # covers 1, -1, sixth/cube roots of unity where present, and a
        # generic value (2 in Fp(7) is a cube root, 3 a sixth root)
        qs = {f.one, f.from_int(-1), f.from_int(2), f.from_int(3)}
        if hasattr(f, "gen"):
            qs |= {f.gen, f.neg(f.gen), f.add(f.gen, f.one)}
        for q in qs:
            if f.is_zero(q):
                continue
            cases.append((f, q))
    for f, q in cases:
        for e in (1, 2, 3):
            want = nichols.closed_form_kernel_1orbit(e, q, f)
            # the one-point block with fiber dimension e: the trivial rack of size e
            b = BraidedSpace(constant_cocycle(trivial_rack(e), f, q))
            words = list(itertools.product(range(e), repeat=3))
            got = kernel_dim(f, nichols.operator_matrix(
                f, words, lambda w: nichols.apply_x(b, {w: f.one}, 0, 3)))
            ok &= want == got
    # 8-orbit bounds on every computed block
    for name, qv in (("D3", -1), ("D3", 2), ("T", -1), ("Aff(7,3)", -1), ("Aff(7,3)", 1)):
        b = BraidedSpace(constant_cocycle(preset(name), QQ, QQ.from_int(qv)))
        bound = nichols.closed_form_kernel_8orbit_bound(1, QQ.from_int(qv), QQ)
        for blk in nichols.cubic_kernel(b).blocks:
            if blk.size == 8:
                ok &= blk.kernel_dim <= bound
    report("P3 closed-form kernels (all cases, e in 1..3, 5 fields)", ok, t0)


# -- P4 ---------------------------------------------------------------------

def test_p4_dihedral_minus1():
    t0 = time.time()
    b = BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(-1)))
    rep = nichols.check_conditions(b, 4)
    ok = rep.dims == [1, 3, 4, 3, 1]
    ok &= sum(rep.dims) == 12
    ok &= rep.cond1_truncated and rep.cond2 and rep.cond3
    b2 = BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(2)))
    ok &= not nichols.cubic_kernel(b2).has_many_cubic_relations()
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    report("P4 dihedral(-1) dims (1,3,4,3,1), conditions, q=2 control (< 5 s)", ok, t0)


# -- P5 (full) ---------------------------------------------------------------

def test_p5_new_dihedral_char2(d3_char2_certificate):
    t0 = time.time()
    cert = d3_char2_certificate
    ok = all(cert["in_kernel"])
    ok &= cert["quotient_dims"] == cert["expected"]
    ok &= sum(cert["quotient_dims"]) == 432
    ok &= max(i for i, v in enumerate(cert["quotient_dims"]) if v) == 20
    ok &= cert["nichols_dims_8"] == cert["expected"][:9]
    K = cert["space"].field
    vec = {cert["integral"]: K.one}
    for x in reversed(cert["chain"]):
        vec = nichols.derive(cert["space"], x, vec)
    ok &= not K.is_zero(vec.get((), K.zero))
    report("P5 new dihedral char-2 certificate (432, top 20, chain != 0)", ok, t0)


# -- P6 ---------------------------------------------------------------------

def test_p6_tetrahedral_series():
    t0 = time.time()
    b = BraidedSpace(constant_cocycle(preset("T"), QQ, QQ.from_int(-1)))
    dims = nichols.graded_dims(b, 9)
    expected = hilbert.expand_product([(2, 1), (2, 1), (3, 1), (6, 1)], 9)
    ok = dims[:7] == expected[:7]
    ok &= dims == expected and sum(dims) == 72
    F2 = parse_field("Fp(2)")
    b2 = BraidedSpace(constant_cocycle(preset("T"), F2, F2.one))
    dims2 = nichols.graded_dims(b2, 7)
    ok &= dims2 == hilbert.expand_product([(2, 1), (2, 1), (3, 1), (3, 1)], 7)
    ok &= sum(dims2) == 36
    report("P6 tetrahedral series over QQ (72) and char 2 (36)", ok, t0)


# -- P7 (full) ---------------------------------------------------------------

@pytest.mark.slow
def test_p7_new_tetrahedral(t_new_certificate):
    t0 = time.time()
    cert = t_new_certificate
    ok = all(cert["in_kernel"])
    ok &= cert["quotient_dims"] == cert["expected"]
    ok &= sum(cert["quotient_dims"]) == 5184
    ok &= max(i for i, v in enumerate(cert["quotient_dims"]) if v) == 24
    ok &= cert["nichols_dims_6"] == cert["expected"][:7]
    K = cert["space"].field
    vec = {cert["integral"]: K.one}
    for x in reversed(cert["chain"]):
        vec = nichols.derive(cert["space"], x, vec)
    ok &= vec.get((), K.zero) == K.neg(K.mul(K.gen, K.gen))
    report("P7 new tetrahedral certificate (5184, top 24, chain = -q^2)", ok, t0)


# -- P8 ---------------------------------------------------------------------

def test_p8_negative_controls():
    t0 = time.time()
    ok = not nichols.cubic_kernel(cocycle_preset("t-sign-flipped")).has_many_cubic_relations()
    g = perms.from_cycles(4, [(0, 1, 2, 3)])
    g3 = perms.from_cycles(4, [(0, 3, 2, 1)])
    gens = [perms.from_cycles(4, [(0, 1)]), g]
    try:
        group_model_cocycle(gens, g, {g: QQ.from_int(-1), g3: QQ.one}, QQ)
        ok = False
    except CharacterInconsistent:
        pass
    b3 = BraidedSpace(constant_cocycle(preset("Aff(7,3)"), QQ, QQ.one))
    ok &= not nichols.cubic_kernel(b3).has_many_cubic_relations()
    report("P8 negative controls (flipped T sign, B character, Aff(7,3) q=1)", ok, t0)


# -- P9 ---------------------------------------------------------------------

def test_p9_classification():
    t0 = time.time()
    jobs = [
        ((2,), 6, {"D3", "A", "C"}),
        ((3,), 6, {"T"}),
        ((4,), 6, {"B"}),
        ((6,), 6, {"Aff(7,3)", "Aff(7,5)"}),
    ]
    ok = True
    for degs, k3m, expected in jobs:
        res = classify.search(classify.SearchSpec(degrees=degs, k3_max=k3m, size_max=12))
        ok &= len(res) == len(expected)
        for nm in expected:
            ok &= any(is_isomorphic(r, preset(nm)) for r in res)
    res8 = classify.search(classify.SearchSpec(degrees=(2,), k3_max=8, size_max=12))
    ok &= any(is_isomorphic(r, preset("Aff(9,2)")) for r in res8)
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    report("P9 classification searches reproduce the tables (< 10 min)", ok, t0)


# -- P10 ---------------------------------------------------------------------

def test_p10_inequality_engine():
    t0 = time.time()
    ok = True
    for d1 in range(3):
        for d8 in range(4):
            ok &= nichols.general_inequality_lhs(6, 1, 4, 0, d1, d8) == 24 * d1 + 48 * d8 - 136
            ok &= nichols.general_inequality_lhs(10, 1, 6, 0, d1, d8) == 24 * d1 + 72 * d8 - 216
    rng = random.Random(2026)
    for _ in range(200):
        d, e = rng.randint(1, 30), rng.randint(1, 6)
        k3, m = rng.randint(0, 25), rng.randint(0, 25)
        ok &= nichols.general_inequality_lhs(
            d, e, k3, m, Fraction(e * (e * e - 1), 3), Fraction(e * e * (5 * e + 1), 2)
        ) == -(e * e) * nichols.lemma_reduction_minus_one(e, k3, m)
        ok &= nichols.general_inequality_lhs(
            d, e, k3, m, Fraction(e * (e * e + 2), 3), Fraction(e * e * (5 * e - 1), 2)
        ) == -e * nichols.lemma_reduction_generic(e, k3, m)
    report("P10 inequality engine (two specializations, 200 random points)", ok, t0)


# -- P11 ---------------------------------------------------------------------

def test_p11_truncations():
    t0 = time.time()
    expected6 = hilbert.expand_product([(2, 1)] * 2 + [(3, 1)] * 2 + [(4, 1)] * 2, 6)
    ok = nichols.graded_dims(transposition_model("A", 1), 6) == expected6
    ok &= nichols.graded_dims(transposition_model("A", -1), 6) == expected6
    ok &= nichols.graded_dims(cocycle_preset("group(S4,(1234),-1)"), 6) == expected6
    expected4 = hilbert.expand_product([(4, 1)] * 4 + [(5, 1)] * 2 + [(6, 1)] * 4, 4)
    ok &= nichols.graded_dims(transposition_model("C", 1), 4) == expected4
    ok &= nichols.graded_dims(transposition_model("C", -1), 4) == expected4
    report("P11 series truncations (A +-1, B to degree 6; C +-1 to degree 4)", ok, t0)


# -- P12 ---------------------------------------------------------------------

def test_p12_structural_invariants():
    t0 = time.time()
    rp = verify.Report(profile="acceptance")
    verify.check_structural(rp, twists=20)
    ok = rp.ok()
    report("P12 structural invariants (YBE, blocks, bounds, twists, derivations)", ok, t0)
