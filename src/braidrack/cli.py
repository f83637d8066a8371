"""Command-line interface.

Racks are given as preset names or JSON files ({"size": d, "table": [[..]]},
1-based entries); cocycles as preset names or JSON files ({"rack": ...,
"field": "...", "values": [["..."]]}, "q" aliasing the generator).  Output
is table, json or csv via --format.  Elements are numbered 1..d on this
surface.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import classify, hilbert, nichols, percolate, presentations, verify
from .braiding import BraidedSpace, cocycle_preset, constant_cocycle, table_cocycle
from .fields import QQ, parse_field
from .hurwitz import census, orbit
from .racks import Rack, invariants, is_isomorphic, preset, preset_names

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ERROR = 2


def _load_rack(arg):
    if os.path.exists(arg):
        with open(arg) as fh:
            return Rack.from_json(fh.read(), name=os.path.basename(arg))
    return preset(arg)


def _load_space(rack_arg, cocycle_arg, field_spec):
    if cocycle_arg and os.path.exists(cocycle_arg):
        with open(cocycle_arg) as fh:
            data = json.load(fh)
        r = _load_rack(data["rack"])
        fld = parse_field(data["field"])
        entries = [[fld.parse(v) for v in row] for row in data["values"]]
        return BraidedSpace(table_cocycle(r, fld, entries))
    if cocycle_arg and cocycle_arg not in ("minus1",):
        fld = parse_field(field_spec) if field_spec else None
        return cocycle_preset(cocycle_arg, field=fld)
    fld = parse_field(field_spec) if field_spec else QQ
    r = _load_rack(rack_arg)
    return BraidedSpace(constant_cocycle(r, fld, fld.from_int(-1), name="minus1"))


def _emit(payload, fmt, table_rows=None, header=None):
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    elif fmt == "csv":
        rows = table_rows or _payload_rows(payload)
        if header:
            print(",".join(str(h) for h in header))
        for row in rows:
            print(",".join(str(c) for c in row))
    else:
        rows = table_rows or _payload_rows(payload)
        widths = None
        if header:
            rows = [header] + rows
        for row in rows:
            if widths is None:
                widths = [max(len(str(r[i])) for r in rows) for i in range(len(row))]
            print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _payload_rows(payload):
    if isinstance(payload, dict):
        return [(k, json.dumps(v, default=str)) for k, v in payload.items()]
    return [(json.dumps(payload, default=str),)]


def cmd_rack_info(args):
    r = _load_rack(args.rack)
    inv = invariants(r)
    payload = {
        "size": inv.size,
        "quandle": inv.is_quandle,
        "braided": inv.is_braided,
        "faithful": inv.is_faithful,
        "indecomposable": inv.is_indecomposable,
        "components": [[x + 1 for x in c] for c in inv.component_partition],
        "inner_group_order": inv.inner_group_order,
        "degree": inv.degree,
        "k": {str(n): v for n, v in sorted((inv.k or {}).items())},
        "m": inv.m,
        "t": inv.t,
        "notes": inv.notes,
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_rack_iso(args):
    r1, r2 = _load_rack(args.rack1), _load_rack(args.rack2)
    wit = is_isomorphic(r1, r2, witness=True)
    payload = {
        "isomorphic": wit is not None,
        "witness": [v + 1 for v in wit] if wit else None,
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_rack_preset_list(args):
    _emit({"presets": preset_names()}, args.format,
          table_rows=[(n,) for n in preset_names()], header=("preset",))
    return EXIT_OK


def cmd_hurwitz_census(args):
    r = _load_rack(args.rack)
    c = census(r, n=args.n)
    payload = {
        "rack": args.rack,
        "arity": c.arity,
        "counts": {str(k): v for k, v in sorted(c.counts.items())},
        "total_check": c.total_check,
        "formula_counts": {str(k): v for k, v in sorted((c.formula_counts or {}).items())}
        if c.formula_counts
        else None,
        "formula_agrees": c.formula_agrees,
    }
    rows = [(s, n) for s, n in sorted(c.counts.items())]
    _emit(payload, args.format, table_rows=rows, header=("orbit size", "count"))
    return EXIT_OK


def cmd_hurwitz_orbit(args):
    r = _load_rack(args.rack)
    seed = tuple(int(x) - 1 for x in args.seed.split(","))
    for x in seed:
        if not 0 <= x < r.size:
            raise ValueError("seed entry %d is out of range 1..%d" % (x + 1, r.size))
    o = orbit(r, seed)
    print(o.to_json())
    return EXIT_OK


def cmd_immunity(args):
    r = _load_rack(args.rack)
    table = percolate.immunity_table(r)
    payload = {
        str(size): {
            "min_plague": res.min_size,
            "immunity": str(res.immunity),
            "witness": [i + 1 for i in res.witness],
        }
        for size, res in sorted(table.items())
    }
    rows = [
        (size, res.min_size, str(res.immunity), " ".join(str(i + 1) for i in res.witness))
        for size, res in sorted(table.items())
    ]
    _emit(payload, args.format, table_rows=rows,
          header=("orbit size", "min plague", "immunity", "witness"))
    return EXIT_OK


def cmd_nichols_dims(args):
    b = _load_space(args.rack, args.cocycle, args.field)
    dims = nichols.graded_dims(b, args.max_degree)
    payload = {
        "field": b.field.spec_string(),
        "dims": dims,
        "total_so_far": sum(dims),
    }
    _emit(payload, args.format,
          table_rows=list(enumerate(dims)), header=("degree", "dim"))
    return EXIT_OK


def cmd_nichols_cubic(args):
    b = _load_space(args.rack, args.cocycle, args.field)
    rep = nichols.check_conditions(b, max(3, args.max_degree))
    ck = rep.cubic
    payload = {
        "field": b.field.spec_string(),
        "kernel_total": ck.total,
        "threshold": str(ck.many_cubic_threshold()),
        "cond1_truncated": rep.cond1_truncated,
        "factorizations": [hilbert.format_factorization(f) for f in rep.factorizations],
        "cond2": rep.cond2,
        "cond3": rep.cond3,
        "blocks": [
            {
                "seed": [v + 1 for v in blk.seed],
                "size": blk.size,
                "kernel": blk.kernel_dim,
                "immunity_bound": str(blk.immunity_bound),
                "optimal": blk.optimal,
            }
            for blk in ck.blocks
        ],
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_nichols_quotient(args):
    b = _load_space(args.rack, args.cocycle, args.field)
    rels = _load_relations(args.relations, b.field, b.dim)
    p = presentations.Presentation(b, rels)
    dims = presentations.quotient_dims(p, args.max_degree)
    payload = {"dims": dims, "total": sum(dims)}
    _emit(payload, args.format,
          table_rows=list(enumerate(dims)), header=("degree", "dim"))
    return EXIT_OK


def _load_relations(arg, field, size):
    if arg in presentations.RELATION_PRESETS:
        return presentations.RELATION_PRESETS[arg].relations(field)
    with open(arg) as fh:
        data = json.load(fh)
    rels = []
    for item in data:
        rel = {}
        for term in item["terms"]:
            word = presentations._words(term["word"])
            if not all(0 <= x < size for x in word):
                raise ValueError(
                    "word %r has a letter outside a..%s" % (term["word"], chr(ord("a") + size - 1))
                )
            if "degree" in item and len(word) != item["degree"]:
                raise ValueError("term %r does not match the stated degree" % term["word"])
            rel[word] = field.parse(term["coeff"])
        rels.append(rel)
    return rels


def cmd_nichols_integral(args):
    space, rels, integral, chain = presentations.integral_preset(args.preset)
    K = space.field
    val = nichols.derive_chain(space, chain, {tuple(integral): K.one}).get((), K.zero)
    payload = {
        "preset": args.preset,
        "value": K.to_str(val),
        "nonzero": not K.is_zero(val),
    }
    _emit(payload, args.format)
    return EXIT_OK if not K.is_zero(val) else EXIT_MISMATCH


def cmd_classify(args):
    degrees = tuple(int(x) for x in args.degree.split(","))
    spec = classify.SearchSpec(degrees=degrees, k3_max=args.k3_max, size_max=args.size_max)
    res = classify.search(spec)
    payload = []
    for r in res:
        inv = invariants(r)
        known = None
        for nm in preset_names():
            if is_isomorphic(r, preset(nm)):
                known = nm
                break
        payload.append(
            {
                "size": r.size,
                "degree": inv.degree,
                "k3": inv.k3,
                "m": inv.m,
                "isomorphic_to": known,
                "table": [[v + 1 for v in row] for row in r.table],
            }
        )
    rows = [(e["size"], e["degree"], e["k3"], e["m"], e["isomorphic_to"]) for e in payload]
    _emit(payload, args.format, table_rows=rows,
          header=("size", "degree", "k3", "m", "isomorphic to"))
    return EXIT_OK


def cmd_verify_paper(args):
    t0 = time.perf_counter()
    report = verify.verify_paper(profile=args.profile)
    payload = report.to_payload()
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for e in report.entries:
            status = "ERROR" if e.provenance == "error" else "ok" if e.match else "MISMATCH"
            line = "[%s] %s / %s (%s, %d ms)" % (status, e.section, e.name, e.provenance, e.runtime_ms)
            if not e.match:
                line += "  expected=%r computed=%r" % (e.expected, e.computed)
            print(line)
        print(
            "%d checks, %d mismatches, %.1f s"
            % (len(report.entries), len(report.failures()), time.perf_counter() - t0)
        )
    if report.errors():
        return EXIT_ERROR
    return EXIT_OK if report.ok() else EXIT_MISMATCH


def build_parser():
    # the global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json", "csv"), default=argparse.SUPPRESS
    )
    common.add_argument("--field", default=argparse.SUPPRESS,
                        help="field spec, e.g. QQ or Fp(2)[t]/(t^2+t+1)")

    ap = argparse.ArgumentParser(
        prog="braidrack",
        parents=[common],
        description="Rack invariants, Hurwitz orbits, immunity, and exact "
        "graded dimensions of braided vector spaces of rack type.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    rack = sub.add_parser("rack").add_subparsers(dest="sub", required=True)
    p = rack.add_parser("info", parents=[common])
    p.add_argument("rack")
    p.set_defaults(func=cmd_rack_info)
    p = rack.add_parser("iso", parents=[common])
    p.add_argument("rack1")
    p.add_argument("rack2")
    p.set_defaults(func=cmd_rack_iso)
    p = rack.add_parser("preset-list", parents=[common])
    p.set_defaults(func=cmd_rack_preset_list)

    hz = sub.add_parser("hurwitz").add_subparsers(dest="sub", required=True)
    p = hz.add_parser("census", parents=[common])
    p.add_argument("rack")
    p.add_argument("-n", type=int, default=3)
    p.set_defaults(func=cmd_hurwitz_census)
    p = hz.add_parser("orbit", parents=[common])
    p.add_argument("rack")
    p.add_argument("--seed", required=True, help="comma-separated 1-based entries")
    p.set_defaults(func=cmd_hurwitz_orbit)

    p = sub.add_parser("immunity", parents=[common])
    p.add_argument("rack")
    p.set_defaults(func=cmd_immunity)

    ni = sub.add_parser("nichols").add_subparsers(dest="sub", required=True)
    p = ni.add_parser("dims", parents=[common])
    p.add_argument("rack", nargs="?")
    p.add_argument("--cocycle", default=None)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(func=cmd_nichols_dims)
    p = ni.add_parser("cubic", parents=[common])
    p.add_argument("rack", nargs="?")
    p.add_argument("--cocycle", default=None)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(func=cmd_nichols_cubic)
    p = ni.add_parser("quotient", parents=[common])
    p.add_argument("rack", nargs="?")
    p.add_argument("--cocycle", default=None)
    p.add_argument("--relations", required=True)
    p.add_argument("--max-degree", type=int, default=10)
    p.set_defaults(func=cmd_nichols_quotient)
    p = ni.add_parser("integral", parents=[common])
    p.add_argument("--preset", choices=tuple(presentations.RELATION_PRESETS), required=True)
    p.set_defaults(func=cmd_nichols_integral)

    p = sub.add_parser("classify", parents=[common])
    p.add_argument("--degree", default="2,3,4,6")
    p.add_argument("--k3-max", type=int, default=6)
    p.add_argument("--size-max", type=int, default=12)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-paper", parents=[common])
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify_paper)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    # the shared flags are SUPPRESS-defaulted so a pre-subcommand value
    # survives subparsing; fill the true defaults here
    args.format = getattr(args, "format", "table")
    args.field = getattr(args, "field", None)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # infrastructure failure -> exit code 2
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
