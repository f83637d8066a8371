"""Per-layer probes: one fixed input per layer, timed from outside.

The probes run in a fresh worker process of their own, after nothing else,
so `nichols.cubic_kernel_s` is measured cold: it includes the minimal
plague search that `cubic_kernel` caches by canonical orbit code, as the
first call in `verify-paper --profile quick` does.  Every probe's result is
checked against a value pinned here, as computed at commit 4c376a2.
"""
from __future__ import annotations

import random
import statistics
import time
from math import comb

from braidrack import (
    GF,
    QQ,
    BraidedSpace,
    classify,
    cocycle_preset,
    constant_cocycle,
    hurwitz,
    is_isomorphic,
    linalg,
    nichols,
    parse_field,
    percolate,
    presentations,
    preset,
)

from workloads import REFERENCE, modular_inputs, zeta3_to_fp

FIELDS = {
    "qq": "QQ",
    "fp7": "Fp(7)",
    "zeta3": "QQ[t]/(t^2+t+1)",
    "f4": "Fp(2)[t]/(t^2+t+1)",
}
FIELD_OPERANDS = 4000
FIELD_PASSES = 7

CENSUS_RACKS = ["D3", "T", "A", "B", "C", "Aff(7,3)", "Aff(7,5)", "Aff(9,2)"]
CUBIC_KERNEL_TOTAL = 112        # Aff(7,3), q = -1, QQ
PLAGUE_24 = 7                   # minimal plague of the 24-orbit (immunity 7/24)
RANK_S3_BLOCK = 9               # S_3 on the first 24-orbit of Aff(7,3), q = -1
RANK_S5_BLOCK = 15              # S_5 on the first largest 5-orbit of T, t-new
CLASSIFY_SIZES = [3, 6, 9, 10, 12]


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def subsets_tried(n, witness):
    """Seeds minimal_plague closes before returning the lex-least witness.

    It tries every subset of sizes 1..k-1, then the k-subsets in
    lexicographic order up to and including the witness.
    """
    k = len(witness)
    rank = 0
    prev = -1
    for i, c in enumerate(witness):
        for v in range(prev + 1, c):
            rank += comb(n - v - 1, k - i - 1)
        prev = c
    return sum(comb(n, j) for j in range(1, k)) + rank + 1


def _small(f, rng):
    """A quotient of small integers whose denominator is nonzero in f."""
    while True:
        den = f.from_int(rng.randint(1, 40))
        if not f.is_zero(den):
            return f.div(f.from_int(rng.randint(-40, 40)), den)


def _operand(f, rng):
    """A nonzero element a + b*t with small a, b (b = 0 without t)."""
    while True:
        x = _small(f, rng)
        if hasattr(f, "gen"):
            x = f.add(x, f.mul(_small(f, rng), f.gen))
        if not f.is_zero(x):
            return x


def field_ops(seed):
    """ns per add, mul and inv, median over passes of seeded operands."""
    metrics = {}
    rng = random.Random(seed)
    for label, spec in FIELDS.items():
        f = parse_field(spec)
        xs = [_operand(f, rng) for _ in range(FIELD_OPERANDS)]
        ys = [_operand(f, rng) for _ in range(FIELD_OPERANDS)]
        pairs = list(zip(xs, ys))
        add, mul, inv = f.add, f.mul, f.inv

        def run_add():
            for a, b in pairs:
                add(a, b)

        def run_mul():
            for a, b in pairs:
                mul(a, b)

        def run_inv():
            for a in xs:
                inv(a)

        for op, fn in (("add", run_add), ("mul", run_mul), ("inv", run_inv)):
            t = _median_time(fn, FIELD_PASSES)
            metrics["fields.%s.%s_ns" % (label, op)] = t / FIELD_OPERANDS * 1e9
    return metrics


def _orbit_block(space, n, orbit):
    """Rows S_n(w) for the words w of one Hurwitz orbit, in orbit coordinates."""
    f = space.field
    rows = []
    for w in orbit.tuples:
        img = nichols.symmetrizer_apply(space, n, {w: f.one})
        rows.append({orbit.index[nw]: c for nw, c in img.items() if not f.is_zero(c)})
    return rows


def _row_reduce_blocks():
    """The largest S_5 orbit block of t-new over QQ(zeta3), and mod 7 (t -> 2)."""
    exact = parse_field("QQ[t]/(t^2+t+1)")
    space = cocycle_preset("t-new", exact)
    orbit = max(hurwitz.orbits(space.rack, 5), key=lambda o: o.size)
    rows = _orbit_block(space, 5, orbit)
    fp7 = GF(7)
    rows7 = [{j: zeta3_to_fp(exact, fp7, 2, c) for j, c in r.items()} for r in rows]
    rows7 = [{j: c for j, c in r.items() if c} for r in rows7]
    # (field, rows, columns, repetitions): about 0.4 s and 0.2 s in all
    return {"zeta3": (exact, rows, orbit.size, 5), "fp7": (fp7, rows7, orbit.size, 30)}


def probe(seed):
    """All layer metrics except those taken from workload traces.

    Returns (metrics, checks) with checks a list of (label, ok).
    """
    metrics = {}
    checks = []

    # cold: the first cubic_kernel in the process fills the plague cache
    space = BraidedSpace(constant_cocycle(preset("Aff(7,3)"), QQ, QQ.from_int(-1)))
    t, ck = _timed(lambda: nichols.cubic_kernel(space))
    metrics["nichols.cubic_kernel_s"] = t
    checks.append(("cubic kernel total %d" % CUBIC_KERNEL_TOTAL, ck.total == CUBIC_KERNEL_TOTAL))

    orbit24 = hurwitz.reference_orbit(24)
    t, res = _timed(lambda: percolate.minimal_plague(orbit24))
    metrics["percolate.minimal_plague_s"] = t
    metrics["percolate.subsets_tried"] = subsets_tried(orbit24.size, res.witness)
    checks.append(("minimal plague of the 24-orbit", res.min_size == PLAGUE_24))

    metrics.update(field_ops(seed))

    block = next(o for o in hurwitz.orbits(space.rack, 3) if o.size == 24)
    m = linalg.SparseMatrix(block.size, block.size)
    for i, row in enumerate(_orbit_block(space, 3, block)):
        for j, c in row.items():
            m.rows[j][i] = c
    metrics["linalg.rank_s"] = _median_time(lambda: linalg.rank(QQ, m), 50)
    checks.append(("rank of the S_3 24-block", linalg.rank(QQ, m) == RANK_S3_BLOCK))

    for label, (f, rows, ncols, reps) in _row_reduce_blocks().items():
        times = []
        for _ in range(reps):
            fresh = [dict(r) for r in rows]
            t, (pivots, _) = _timed(lambda: linalg.row_reduce(f, fresh, ncols))
            times.append(t)
        metrics["linalg.row_reduce_s.%s" % label] = statistics.median(times)
        checks.append(("row_reduce rank over %s" % label, len(pivots) == RANK_S5_BLOCK))

    spec = classify.SearchSpec(degrees=(2,), k3_max=8, size_max=12)
    t, found = _timed(lambda: classify.search(spec))
    metrics["classify.search_s"] = t
    checks.append(("classify deg 2, k3 <= 8 sizes", [r.size for r in found] == CLASSIFY_SIZES))
    checks.append(("classify finds Aff(9,2)",
                   any(is_isomorphic(r, preset("Aff(9,2)")) for r in found)))

    racks = [preset(name) for name in CENSUS_RACKS]
    t, censuses = _timed(lambda: [hurwitz.census(r) for r in racks])
    metrics["hurwitz.census_s"] = t
    want = {name: counts for section, name, counts in REFERENCE["quick"] if section == "P1-census"}
    for name, c in zip(CENSUS_RACKS, censuses):
        got = {str(k): v for k, v in sorted(c.counts.items())}
        checks.append(("census %s" % name, got == want[name]))

    p = modular_inputs(seed).presentation
    t, in_kernel = _timed(lambda: presentations.relation_in_kernel(p))
    metrics["presentations.relation_in_kernel_s"] = t
    checks.append(("t-new relations in ker S_n mod 7", in_kernel == [True] * len(p.relations)))
    return metrics, checks
