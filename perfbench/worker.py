"""One fresh benchmark process: set up, run one workload or the layer probes.

    python3 perfbench/worker.py MODE WORKLOAD SEED

MODE is `setup` (import and build inputs only), `run` (one timed call,
untraced, with the speed probes of speed.py), `bare` (one timed call,
untraced, no speed probe), `trace` (one call with spans recorded) or `probe`
(the layer probes of layers.py).  The result is one JSON object on the last
line of standard output.  `run.py` starts the workers with `src` on
PYTHONPATH.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext

import tracing
from speed import SpeedProbe


def _span_metrics(spans, sections, engines):
    """Per-layer metrics from a workload's own spans: its verify sections,
    or the single-degree extend calls of its two engines."""
    out = {}
    for s in spans:
        name, detail = s["name"], s["detail"]
        if sections and name.startswith("verify.check_"):
            key = "verify.section_s." + (detail or name[len("verify.check_"):])
        elif engines and detail and ".." not in detail and name in _ENGINE_METRICS:
            key = _ENGINE_METRICS[name] + detail
        else:
            continue
        out[key] = out.get(key, 0.0) + s["end"] - s["start"]
    return out


_ENGINE_METRICS = {
    "nichols.NicholsEngine.extend": "nichols.engine_s.deg",
    "presentations.QuotientEngine.extend": "presentations.quotient_s.deg",
}


def _modular_counts(inputs, out):
    """Work counts of the two engines, derived from the graded dims.

    Degree n of either engine has d * dim(n-1) candidates; the quotient
    places each relation r on every basis word of degree n - deg r.
    """
    qdims, ndims = out
    d = inputs.space.dim
    cand = sum(d * ndims[n - 1] for n in range(2, len(ndims)))
    basis = sum(ndims[2:])
    degs = [len(next(iter(r))) for r in inputs.presentation.relations]
    placements = sum(qdims[n - g] for n in range(2, len(qdims)) for g in degs if g <= n)
    ideal = sum(d * qdims[n - 1] - qdims[n] for n in range(2, len(qdims)))
    return {
        "nichols.engine.candidates": cand,
        "nichols.engine.basis": basis,
        "nichols.engine.useful_ratio": basis / cand,
        "presentations.placements": placements,
        "presentations.ideal_rank": ideal,
        "presentations.useful_ratio": ideal / placements,
    }


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    setup_probe = SpeedProbe()
    setup_probe.edge()
    t0 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[name]
    inputs = w.setup(seed)
    result = {"setup_s": time.perf_counter() - t0}
    setup_probe.edge()
    result["setup_slowness"] = setup_probe.slowness()
    if mode == "setup":
        pass
    elif mode == "probe":
        import layers

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        with tracer.span("probe"):
            metrics, checks = layers.probe(seed)
        result.update(metrics=metrics, spans=tracer.spans)
        result.update(_checks(checks))
    elif mode in ("run", "bare", "trace"):
        tracer = probe = None
        if mode == "trace":
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        if mode == "run":
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            probe = SpeedProbe(memory=w.memory_probe)
            # the probe's own data, taken off the peak below
            probe_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            probe.edge()
        with tracer.span("workload:" + name) if tracer else nullcontext(), \
                probe.during() if probe else nullcontext():
            t1 = time.perf_counter()
            out = w.run(inputs)
            result["wall_s"] = time.perf_counter() - t1
        if probe:
            # the probes' own time is not the program's
            result["wall_s"] -= probe.during_s
            probe.edge()
            result.update(slowness=probe.slowness(), probes=len(probe.times[0]))
        if tracer:
            modular = name == "modular"
            metrics = _span_metrics(tracer.spans, w.verify_sections, modular)
            if modular:
                metrics.update(_modular_counts(inputs, out))
            result.update(metrics=metrics, spans=tracer.spans)
            if w.threads == 1 and w.verify_sections:
                result["sections_sum_s"] = sum(
                    v for k, v in metrics.items() if k.startswith("verify.section_s.")
                )
                result["runtime_ms_sum_s"] = sum(e.runtime_ms for e in out.entries) / 1000
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["rss_mb"] = (rss_kb - (probe_kb if probe else 0)) / 1024
        result.update(_checks(w.check(out)))
    else:
        raise SystemExit("unknown mode %r" % mode)
    print(json.dumps(result))


def _checks(checks):
    return {"attempted": len(checks), "failures": [label for label, ok in checks if not ok]}


if __name__ == "__main__":
    main(sys.argv[1:])
