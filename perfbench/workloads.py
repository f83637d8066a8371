"""The benchmark's workloads: inputs from a seed, the timed call, the checks.

Every workload is timed on output that is then checked exactly: the
`verify-paper` workloads against `reference.json` (the paper's values as
recorded at commit 4c376a2, where every entry matched), `modular`
against the Hilbert series of the 5184-dimensional quotient.
"""
from __future__ import annotations

import io
import json
import os
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from braidrack import (
    GF,
    BraidedSpace,
    NicholsEngine,
    Presentation,
    cocycle_preset,
    parse_field,
    presentations,
    table_cocycle,
    verify,
)
from braidrack.presentations import t_new_relations

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# Graded dims of the 5184-dimensional t-new quotient (arXiv:1103.4526; first
# computed in M. Grana, "On Nichols algebras of low dimension", 2000): the
# coefficients of (6)_t^4 (2)_{t^2}^2, degrees 0..25.
T_NEW_DIMS = [1, 4, 12, 28, 56, 100, 160, 236, 320, 404, 476, 524, 542,
              524, 476, 404, 320, 236, 160, 100, 56, 28, 12, 4, 1, 0]
T_NEW_TOTAL = 5184
T_NEW_TOP_DEGREE = 24
QUOTIENT_TOP = 25
NICHOLS_TOP = 10
PRIME = 7
ROOTS = (2, 4)  # the roots of t^2 + t + 1 mod 7


def zeta3_to_fp(exact, field, q, c):
    """Image of c in QQ(zeta3) under t -> q in a prime field.

    Raises ZeroDivisionError when a denominator of c vanishes mod p.
    """
    f = field

    def frac(x):
        return f.div(f.from_int(x.numerator), f.from_int(x.denominator))

    c0, c1 = exact.coefficients(c)
    return f.add(frac(c0), f.mul(f.from_int(q), frac(c1)))


@dataclass
class ModularInputs:
    q: int              # image of the generator t of QQ(zeta3) in Fp(7)
    space: BraidedSpace
    presentation: Presentation


def modular_inputs(seed):
    """The t-new space and relations over Fp(7), with t -> q picked by the seed.

    Both roots q in {2, 4} give a space isomorphic to the exact one, so no
    expected value depends on the seed.  The rack keeps its preset labels:
    relabelling it changes the quotient's cost by up to 4x (README.md), which
    would make the seed, not the program, set the timing.
    """
    q = random.Random(seed).choice(ROOTS)
    field = GF(PRIME)
    exact = parse_field("QQ[t]/(t^2+t+1)")

    def to_fp(c):
        return zeta3_to_fp(exact, field, q, c)

    preset_space = cocycle_preset("t-new", exact)
    values = [[to_fp(v) for v in row] for row in preset_space.cocycle.q]
    space = BraidedSpace(table_cocycle(preset_space.rack, field, values, name="t-new-mod7"))
    relations = [{w: to_fp(c) for w, c in r.items()} for r in t_new_relations(exact)]
    return ModularInputs(q, space, Presentation(space, relations))


def run_modular(inputs):
    qdims = presentations.quotient_dims(inputs.presentation, QUOTIENT_TOP)
    engine = NicholsEngine(inputs.space)
    for n in range(2, NICHOLS_TOP + 1):
        engine.extend(n)
    return qdims, engine.dims(NICHOLS_TOP)


def check_modular(out):
    qdims, ndims = out
    checks = [
        ("quotient dim deg %d" % n, n < len(qdims) and qdims[n] == want)
        for n, want in enumerate(T_NEW_DIMS)
    ]
    checks.append(("quotient total %d" % T_NEW_TOTAL, sum(qdims) == T_NEW_TOTAL))
    checks.append((
        "quotient top degree %d" % T_NEW_TOP_DEGREE,
        max((n for n, v in enumerate(qdims) if v), default=-1) == T_NEW_TOP_DEGREE,
    ))
    checks += [
        ("nichols dim deg %d" % n, n < len(ndims) and ndims[n] == T_NEW_DIMS[n])
        for n in range(NICHOLS_TOP + 1)
    ]
    return checks


def check_report(profile, report):
    """One check per reference entry, plus the entry count and Report.ok()."""
    ref = REFERENCE[profile]
    entries = json.loads(json.dumps(report.to_payload()["entries"], default=str))
    got = [[e["section"], e["name"], e["computed"]] for e in entries]
    checks = [
        ("entry count %d" % len(ref), len(got) == len(ref)),
        ("Report.ok()", report.ok()),
    ]
    for i, want in enumerate(ref):
        checks.append(("%s / %s" % tuple(want[:2]), i < len(got) and got[i] == want))
    return checks


# "[ok] P1-census / D3 (enumeration, 12 ms)"
_LINE = re.compile(r"^\[(\w+)\] (.*?) / (.*) \(([\w-]+), -?\d+ ms\)")


def run_cli_quick(_inputs):
    from braidrack import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify-paper", "--profile", "quick", "--threads", "2"])
    return code, buf.getvalue()


def check_cli_quick(out):
    """Exit code, summary line, and an [ok] line per reference entry in order."""
    code, text = out
    ref = REFERENCE["quick"]
    lines = text.splitlines()
    summary = lines[-1] if lines else ""
    body = lines[:-1]
    checks = [
        ("exit code 0", code == 0),
        ("summary line", summary.startswith("%d checks, 0 mismatches," % len(ref))),
    ]
    for i, (section, name, _) in enumerate(ref):
        m = _LINE.match(body[i]) if i < len(body) else None
        ok = m is not None and m.group(1) == "ok" and m.groups()[1:3] == (section, name)
        checks.append(("%s / %s" % (section, name), ok))
    return checks


def _no_inputs(seed):
    return None


def _unset_threads(seed):
    # the CLI falls back to THREADS, then to os.cpu_count(), when --threads
    # is absent; the workload passes --threads 2 and clears THREADS anyway
    os.environ.pop("THREADS", None)
    from braidrack import cli  # noqa: F401  (imported as part of set-up)


@dataclass
class Workload:
    name: str
    setup: Callable       # seed -> inputs
    run: Callable         # inputs -> output (the timed call)
    check: Callable       # output -> [(label, ok)]
    threads: int          # threads the timed call may run
    verify_sections: bool  # its trace yields verify.section_s.*
    # the graded engines keep tens of MB, so speed.py probes memory too
    memory_probe: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quick", _no_inputs,
            lambda _: verify.verify_paper("quick", threads=1),
            lambda rep: check_report("quick", rep), 1, True,
        ),
        Workload("quick-mt", _unset_threads, run_cli_quick, check_cli_quick, 2, True),
        Workload(
            "full", _no_inputs,
            lambda _: verify.verify_paper("full", threads=1),
            lambda rep: check_report("full", rep), 1, True, memory_probe=True,
        ),
        Workload("modular", modular_inputs, run_modular, check_modular, 1, False,
                 memory_probe=True),
    )
}
