"""End-to-end verification: recompute every reference quantity and compare.

Each check yields Entry records with an expected value (tagged with the
kind of reference it is), the computed value, and an exact match flag.
The quick profile covers censuses, immunity, closed-form kernels, the
dihedral space, negative controls, classification, the inequality engine
and the series truncations; the full profile adds the two big quotient
certificates and the structural invariant sweep.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import classify, hilbert, nichols, percolate, presentations
from .braiding import (
    BraidedSpace,
    CharacterInconsistent,
    coboundary_twist,
    cocycle_preset,
    constant_cocycle,
    group_model_cocycle,
    transposition_model,
)
from .fields import QQ, parse_field
from .hurwitz import REFERENCE_SIZES, census, orbits, reference_orbit
from .linalg import kernel_basis, kernel_dim
from .racks import identify, preset, trivial_rack
from . import perms


@dataclass
class Entry:
    section: str
    name: str
    provenance: str     # reference-table | closed-form | enumeration | error
    expected: object
    computed: object
    match: bool
    runtime_ms: int = 0


@dataclass
class Report:
    """Entries of one run; each entry is timed from the previous one.

    A check adds each entry right after the work that computed it, so an
    entry's runtime_ms is that work's own time, and the entries' times add
    up to no more than the time since the report was created.  ``run``
    restarts the timer at a section's start, so a section's first entry
    is not charged for the work between sections.
    """

    profile: str
    entries: list = dc_field(default_factory=list)
    _mark: float = dc_field(default_factory=time.perf_counter, init=False, repr=False,
                            compare=False)

    def add(self, section, name, provenance, expected, computed):
        now = time.perf_counter()
        ms = int((now - self._mark) * 1000)
        self._mark = now
        self.entries.append(
            Entry(section, name, provenance, expected, computed, expected == computed, ms)
        )

    def run(self, check, *args):
        """Run the section check(self, *args).  If it raises, one error
        entry, "<ExcType>: <message>", stands in for the rest of it, and
        the traceback goes to stderr."""
        self._mark = time.perf_counter()
        try:
            check(self, *args)
        except Exception as exc:
            # imported here: a run in which no section fails never loads it
            import traceback

            traceback.print_exc()
            label = check.__name__ + (repr(args) if args else "")
            self.add(label, "error", "error", None, "%s: %s" % (type(exc).__name__, exc))

    def ok(self):
        return all(e.match for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.match]

    def errors(self):
        return [e for e in self.entries if e.provenance == "error"]

    def to_payload(self):
        return {
            "profile": self.profile,
            "ok": self.ok(),
            "entries": [
                {
                    "section": e.section,
                    "name": e.name,
                    "provenance": e.provenance,
                    "expected": _plain(e.expected),
                    "computed": _plain(e.computed),
                    "match": e.match,
                    "runtime_ms": e.runtime_ms,
                }
                for e in self.entries
            ],
        }


def _plain(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


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

SERIES = {
    "D3-minus1": [(2, 1), (2, 1), (3, 1)],
    "D3-char2": [(3, 1), (4, 1), (6, 1), (6, 2)],
    "T-char2": [(2, 1), (2, 1), (3, 1), (3, 1)],
    "T-minus1": [(2, 1), (2, 1), (3, 1), (6, 1)],
    "T-new": [(6, 1), (6, 1), (6, 1), (6, 1), (2, 2), (2, 2)],
    "AB": [(2, 1), (2, 1), (3, 1), (3, 1), (4, 1), (4, 1)],
    "C": [(4, 1)] * 4 + [(5, 1)] * 2 + [(6, 1)] * 4,
}


# ---------------------------------------------------------------------------
# P1 orbit census

def check_census(report):
    for name, expected in CENSUS_EXPECTED.items():
        c = census(preset(name))
        computed = dict(sorted(c.counts.items()))
        report.add("P1-census", name, "enumeration", expected, computed)
        report.add(
            "P1-census",
            name + "-formulas",
            "closed-form",
            {"total": True, "agrees": True},
            {"total": c.total_check, "agrees": bool(c.formula_agrees)},
        )


# ---------------------------------------------------------------------------
# P2 immunity

def check_immunity(report):
    for size in REFERENCE_SIZES:
        res = percolate.orbit_plague(reference_orbit(size))
        report.add(
            "P2-immunity",
            "orbit-%d" % size,
            "reference-table",
            {
                "min_plague": percolate.EXPECTED_MIN_PLAGUE[size],
                "immunity": Fraction(percolate.EXPECTED_MIN_PLAGUE[size], size),
            },
            {"min_plague": res.min_size, "immunity": res.immunity},
        )


# ---------------------------------------------------------------------------
# P3 closed-form kernels

# field -> values of q: 1, -1, a generic value and the roots of unity at
# which the one-point closed forms change
_ONE_ORBIT_CASES = {
    "QQ": ("1", "-1", "2"),
    "Fp(3)": ("1", "-1"),
    "Fp(7)": ("1", "-1", "2", "3"),
    "QQ[t]/(t^2+t+1)": ("t", "-t", "-1", "2"),
    "QQ[t]/(t^2-t+1)": ("t", "t-1", "2"),
}


def check_one_orbit_kernels(report):
    """X_3 on a one-point block with fiber dimension e is X_3 on the trivial
    rack of size e with the constant cocycle q."""
    all_ok = True
    for spec, values in _ONE_ORBIT_CASES.items():
        fld = parse_field(spec)
        for q in map(fld.parse, values):
            for e in (1, 2, 3):
                b = BraidedSpace(constant_cocycle(trivial_rack(e), fld, q))
                words = list(itertools.product(range(e), repeat=3))
                m = nichols.operator_matrix(
                    fld, words, lambda w: nichols.apply_x(b, {w: fld.one}, 0, 3))
                if kernel_dim(fld, m) != nichols.closed_form_kernel_1orbit(e, q, fld):
                    all_ok = False
    report.add(
        "P3-kernels",
        "one-orbit-closed-forms",
        "closed-form",
        True,
        all_ok,
    )


def check_eight_orbit_bounds(report):
    ok = True
    for name, q in (("D3", "-1"), ("D3", "2"), ("T", "-1"), ("Aff(7,3)", "-1"), ("Aff(7,3)", "1")):
        fld = QQ
        b = BraidedSpace(constant_cocycle(preset(name), fld, fld.parse(q)))
        ck = nichols.cubic_kernel(b)
        bound = nichols.closed_form_kernel_8orbit_bound(1, fld.parse(q), fld)
        for blk in ck.blocks:
            if blk.size == 8 and blk.kernel_dim > bound:
                ok = False
    report.add("P3-kernels", "eight-orbit-bounds", "closed-form", True, ok)


# ---------------------------------------------------------------------------
# P4 / P6 / P8 spaces and conditions

def check_d3_minus1(report):
    b = BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(-1)))
    rep = nichols.check_conditions(b, 4)
    expected_dims = hilbert.expand_product(SERIES["D3-minus1"], 4)
    report.add("P4-dihedral", "dims", "reference-table", expected_dims, rep.dims)
    report.add(
        "P4-dihedral",
        "conditions",
        "reference-table",
        {"cond1": True, "cond2": True, "cond3": True},
        {"cond1": rep.cond1_truncated, "cond2": rep.cond2, "cond3": rep.cond3},
    )
    b2 = BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(2)))
    rep2 = nichols.cubic_kernel(b2)
    report.add(
        "P4-dihedral", "q=2-fails-cond3", "reference-table", False,
        rep2.has_many_cubic_relations(),
    )


def check_t_series(report):
    b = BraidedSpace(constant_cocycle(preset("T"), QQ, QQ.from_int(-1)))
    dims = nichols.graded_dims(b, 9)
    expected = hilbert.expand_product(SERIES["T-minus1"], 9)
    report.add("P6-tetrahedral", "minus1-dims", "reference-table", expected, dims)
    report.add("P6-tetrahedral", "minus1-total", "reference-table", 72, sum(dims))
    F2 = parse_field("Fp(2)")
    b2 = BraidedSpace(constant_cocycle(preset("T"), F2, F2.one))
    dims2 = nichols.graded_dims(b2, 7)
    expected2 = hilbert.expand_product(SERIES["T-char2"], 7)
    report.add("P6-tetrahedral", "char2-dims", "reference-table", expected2, dims2)
    report.add("P6-tetrahedral", "char2-total", "reference-table", 36, sum(dims2))


def check_negative_controls(report):
    b = cocycle_preset("t-sign-flipped")
    ck = nichols.cubic_kernel(b)
    report.add(
        "P8-controls", "T-flipped-sign-cond3", "reference-table", False,
        ck.has_many_cubic_relations(),
    )
    # the 4-cycle class model cannot carry rho(x1) = -1 with rho(x1^3) = +1
    g = perms.from_cycles(4, [(0, 1, 2, 3)])
    g3 = perms.from_cycles(4, [(0, 3, 2, 1)])
    gens = [perms.from_cycles(4, [(0, 1)]), g]
    try:
        group_model_cocycle(gens, g, {g: QQ.from_int(-1), g3: QQ.one}, QQ)
        outcome = "accepted"
    except CharacterInconsistent:
        outcome = "character-inconsistent"
    report.add(
        "P8-controls", "B-inconsistent-character", "reference-table",
        "character-inconsistent", outcome,
    )
    b3 = BraidedSpace(constant_cocycle(preset("Aff(7,3)"), QQ, QQ.one))
    ck3 = nichols.cubic_kernel(b3)
    report.add(
        "P8-controls", "Aff73-q=1-cond3", "reference-table", False,
        ck3.has_many_cubic_relations(),
    )


# ---------------------------------------------------------------------------
# P9 classification

def check_classification(report):
    jobs = [
        ("deg2-k3<=6", (2,), 6, ["D3", "A", "C"]),
        ("deg3-k3<=6", (3,), 6, ["T"]),
        ("deg4-k3<=6", (4,), 6, ["B"]),
        ("deg6-k3<=6", (6,), 6, ["Aff(7,3)", "Aff(7,5)"]),
    ]
    for label, degs, k3m, expected in jobs:
        res = classify.search(classify.SearchSpec(degrees=degs, k3_max=k3m))
        names = [identify(r, expected) or "unknown-size-%d" % r.size for r in res]
        report.add("P9-classify", label, "reference-table", sorted(expected), sorted(names))
    res8 = classify.search(classify.SearchSpec(degrees=(2,), k3_max=8))
    found = any(identify(r, ["Aff(9,2)"]) for r in res8)
    report.add("P9-classify", "deg2-k3<=8-finds-Aff(9,2)", "reference-table", True, found)


# ---------------------------------------------------------------------------
# P10 inequality engine

def check_inequality(report):
    # specialization at (d, e, k3, m) = (6, 1, 4, 0): 24 d1 + 48 d8 >= 136
    ok1 = all(
        nichols.general_inequality_lhs(6, 1, 4, 0, d1, d8)
        == 24 * d1 + 48 * d8 - 136
        for d1 in range(0, 3)
        for d8 in range(0, 4)
    )
    # specialization at (10, 1, 6, 0): 24 d1 + 72 d8 >= 216
    ok2 = all(
        nichols.general_inequality_lhs(10, 1, 6, 0, d1, d8)
        == 24 * d1 + 72 * d8 - 216
        for d1 in range(0, 3)
        for d8 in range(0, 4)
    )
    report.add("P10-inequality", "specializations", "closed-form", (True, True), (ok1, ok2))

    rng = random.Random(20110405)
    ok_red = True
    for _ in range(200):
        d = rng.randint(1, 40)
        e = rng.randint(1, 6)
        k3 = rng.randint(0, 30)
        m = rng.randint(0, 30)
        lhs1 = nichols.general_inequality_lhs(
            d, e, k3, m, Fraction(e * (e * e - 1), 3), Fraction(e * e * (5 * e + 1), 2)
        )
        if lhs1 != -(e * e) * nichols.lemma_reduction_minus_one(e, k3, m):
            ok_red = False
        lhs2 = nichols.general_inequality_lhs(
            d, e, k3, m, Fraction(e * (e * e + 2), 3), Fraction(e * e * (5 * e - 1), 2)
        )
        if lhs2 != -e * nichols.lemma_reduction_generic(e, k3, m):
            ok_red = False
    report.add("P10-inequality", "lemma-reductions-200pts", "closed-form", True, ok_red)
    # k3 <= 6 overall; k3 <= 3 when the fiber dimension is >= 2
    report.add(
        "P10-inequality", "k3-bounds", "closed-form",
        {"e1": 6, "e>=2": 3},
        {
            "e1": max(nichols.max_k3(1, True), nichols.max_k3(1, False)),
            "e>=2": max(
                max(nichols.max_k3(e, True), nichols.max_k3(e, False))
                for e in (2, 3, 4, 5)
            ),
        },
    )


# ---------------------------------------------------------------------------
# P11 table truncations

def check_truncations(report):
    expected6 = hilbert.expand_product(SERIES["AB"], 6)
    for label, space in (
        ("A-sign+1", transposition_model("A", 1)),
        ("A-sign-1", transposition_model("A", -1)),
        ("B-group-model", cocycle_preset("group(S4,(1234),-1)")),
    ):
        dims = nichols.graded_dims(space, 6)
        report.add("P11-truncations", label, "reference-table", expected6, dims)
    expected4 = hilbert.expand_product(SERIES["C"], 4)
    for label, space in (
        ("C-sign+1", transposition_model("C", 1)),
        ("C-sign-1", transposition_model("C", -1)),
    ):
        dims = nichols.graded_dims(space, 4)
        report.add("P11-truncations", label, "reference-table", expected4, dims)


# ---------------------------------------------------------------------------
# P5 / P7 full certificates

def check_new_example(report, name, series_key, total, top, cross_deg, chain_expectation):
    """The certificate of integral preset ``name``: its quotient's series to
    top + 2, and the Nichols engine's dims to ``cross_deg`` against it."""
    space, rels, integral, chain = presentations.integral_preset(name)
    K = space.field
    p = presentations.Presentation(space, rels)
    eng = nichols.NicholsEngine(space)
    in_ker = presentations.relation_in_kernel(p, engine=eng)
    report.add("%s" % name, "relations-in-kernel", "reference-table",
               [True] * len(rels), in_ker)
    qd = presentations.quotient_dims(p, top + 2)
    expected = hilbert.expand_product(SERIES[series_key], top + 2)
    report.add(name, "quotient-dims", "reference-table", expected, qd)
    report.add(name, "total-dim", "reference-table", total, sum(qd))
    report.add(
        name, "top-degree", "reference-table", top,
        max(i for i, v in enumerate(qd) if v),
    )
    dims = eng.dims(cross_deg)
    report.add(
        name, "symmetrizer-ranks<=%d" % cross_deg, "reference-table",
        expected[: cross_deg + 1], dims,
    )
    val = nichols.derive_chain(space, chain, {tuple(integral): K.one}).get((), K.zero)
    if chain_expectation == "nonzero":
        report.add(name, "integral-chain-nonzero", "reference-table", True,
                   not K.is_zero(val))
    else:
        report.add(name, "integral-chain-value", "reference-table",
                   chain_expectation, K.to_str(val))


# ---------------------------------------------------------------------------
# P12 structural invariants

def _structural_spaces():
    F4 = parse_field("Fp(2)[t]/(t^2+t+1)")
    return [
        ("D3-minus1", BraidedSpace(constant_cocycle(preset("D3"), QQ, QQ.from_int(-1))), 5),
        ("D3-char2", cocycle_preset("d3char2"), 5),
        ("T-minus1", BraidedSpace(constant_cocycle(preset("T"), QQ, QQ.from_int(-1))), 4),
        ("T-new", cocycle_preset("t-new"), 4),
        ("A-sign+1", transposition_model("A", 1), 3),
        ("Aff73-minus1", BraidedSpace(constant_cocycle(preset("Aff(7,3)"), QQ, QQ.from_int(-1))), 3),
    ]


def check_structural(report, twists=20):
    rng = random.Random(987654321)
    for label, b, max_deg in _structural_spaces():
        f = b.field
        report.add("P12-structure", label + "-YBE", "closed-form", True,
                   b.cocycle.check_yang_baxter())

        ks3, dk1c, kx3 = nichols.kernel_identity_terms(b)
        report.add("P12-structure", label + "-kernel-identity", "closed-form",
                   True, ks3 <= dk1c + kx3)

        blocks_ok = _block_diagonality(b, min(3, max_deg))
        report.add("P12-structure", label + "-block-diagonality", "closed-form",
                   True, blocks_ok)

        ck = _cubic_kernel_total(b)
        report.add("P12-structure", label + "-immunity-bounds", "closed-form",
                   True, ck is not None)

        dims_base = nichols.graded_dims(b, 3)
        ok_twist = True
        for _ in range(twists):
            fvals = [_random_unit(f, rng) for _ in range(b.dim)]
            bt = BraidedSpace(coboundary_twist(b.cocycle, fvals))
            if _cubic_kernel_total(bt) != ck:
                ok_twist = False
            if nichols.graded_dims(bt, 3) != dims_base:
                ok_twist = False
        report.add("P12-structure", label + "-twist-invariance", "closed-form",
                   True, ok_twist)

        ok_deriv = _derivation_biconditional(b, min(4, max_deg), rng)
        report.add("P12-structure", label + "-derivation-biconditional",
                   "closed-form", True, ok_deriv)


def _cubic_kernel_total(b):
    """dim of the cubic kernel, or None when a block breaks its immunity bound."""
    try:
        return nichols.cubic_kernel(b).total
    except nichols.ImmunityBoundViolated:
        return None


def _random_unit(f, rng):
    while True:
        v = f.from_int(rng.randint(-3, 3))
        if hasattr(f, "gen"):
            v = f.add(v, f.mul(f.from_int(rng.randint(-2, 2)), f.gen))
        if not f.is_zero(v):
            return v


def _block_diagonality(b, n):
    """S_n and X_3 keep every Hurwitz-orbit block inside itself."""
    f = b.field
    try:
        for o in orbits(b.rack, n):
            nichols.operator_matrix(f, o.tuples,
                                    lambda w: nichols.symmetrizer_apply(b, n, {w: f.one}))
        if n >= 3:
            for o in orbits(b.rack, 3):
                nichols.operator_matrix(f, o.tuples, lambda w: nichols.apply_x(b, {w: f.one}, 0, 3))
    except nichols.NotBlockDiagonal:
        return False
    return True


def _kernel_membership(b, n, vec):
    img = nichols.symmetrizer_apply(b, n, vec)
    return all(b.field.is_zero(c) for c in img.values())


def _derivation_biconditional(b, max_deg, rng):
    """u in ker S_n iff all d_x(u) are in ker S_{n-1}, degrees <= max_deg."""
    f = b.field
    d = b.dim
    for n in range(2, max_deg + 1):
        words = list(itertools.product(range(d), repeat=n))
        m = nichols.operator_matrix(f, words,
                                    lambda w: nichols.symmetrizer_apply(b, n, {w: f.one}))
        for kv in kernel_basis(f, m):
            u = {words[j]: c for j, c in kv.items()}
            for x in range(d):
                if not _kernel_membership(b, n - 1, nichols.derive(b, x, u)):
                    return False
        # random non-kernel vectors must have some derivative outside
        for _ in range(4):
            u = {}
            for _ in range(3):
                u[words[rng.randrange(len(words))]] = _random_unit(f, rng)
            if not u or _kernel_membership(b, n, u):
                continue
            if all(
                _kernel_membership(b, n - 1, nichols.derive(b, x, u)) for x in range(d)
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# driver

def verify_paper(profile="quick", threads=None):
    """Recompute the reference data end to end.  Returns a Report.

    The sections run one after another on one report, in a fixed order; a
    section that raises becomes an error entry and the rest still run.
    ``threads`` is kept only for perfbench/workloads.py, which passes
    threads=1; it accepts None or 1.
    """
    if profile not in ("quick", "full"):
        raise ValueError("unknown profile %r (quick or full)" % (profile,))
    if threads not in (None, 1):
        raise ValueError("verify_paper runs serially; threads must be None or 1")
    # the checks are looked up here, at call time, so that a rebound
    # module attribute (a test's monkeypatch, a tracer) is the one that runs
    report = Report(profile=profile)
    for check in (
        check_census,
        check_immunity,
        check_one_orbit_kernels,
        check_eight_orbit_bounds,
        check_d3_minus1,
        check_negative_controls,
        check_classification,
        check_inequality,
        check_truncations,
    ):
        report.run(check)
    if profile == "full":
        report.run(check_new_example, "d3char2", "D3-char2", 432, 20, 8, "nonzero")
        report.run(check_new_example, "t-new", "T-new", 5184, 24, 6, "t+1")
        report.run(check_t_series)
        report.run(check_structural)
    return report
