"""braidrack benchmark: one workload per invocation, measured from outside.

    python3 perfbench/run.py --workload quick --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every measurement is taken in a fresh
worker process (perfbench/worker.py) that imports braidrack from `src`, so
caches never carry over between samples, as for a user's CLI call.

--trace 0 runs the workload repeatedly for about --seconds and reports the
end-to-end metrics, with times scaled to a reference speed of the host
(speed.py).  --trace 1 runs it once untraced and once traced, the
workloads that supply the per-layer families it lacks (see README.md) and
the layer probes, reports the per-layer metrics and writes every span to
.perfbench/.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("quick", "quick-mt", "modular", "full")
# set-up-only workers before each timed one, spreading the set-up samples
# over the run; at least MIN_SETUP_SAMPLES in all
SETUPS_PER_SAMPLE = 1
MIN_SETUP_SAMPLES = 8
# a listed workload's run ends within 180 s; `full` alone takes longer
DEADLINE_S = {"full": 900.0}
DEFAULT_DEADLINE_S = 175.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

VERIFY_SECTIONS = (
    "census", "immunity", "one_orbit_kernels", "eight_orbit_bounds", "d3_minus1",
    "negative_controls", "classification", "inequality", "truncations",
)
PER_LAYER = {}
for _f in ("qq", "fp7", "zeta3", "f4"):
    for _op in ("add", "mul", "inv"):
        PER_LAYER["fields.%s.%s_ns" % (_f, _op)] = "ns"
PER_LAYER.update({
    "linalg.rank_s": "s",
    "linalg.row_reduce_s.zeta3": "s",
    "linalg.row_reduce_s.fp7": "s",
    "percolate.minimal_plague_s": "s",
    "percolate.subsets_tried": "count",
    "nichols.cubic_kernel_s": "s",
})
PER_LAYER.update({"nichols.engine_s.deg%d" % n: "s" for n in range(2, 11)})
PER_LAYER.update({
    "nichols.engine.candidates": "count",
    "nichols.engine.basis": "count",
    "nichols.engine.useful_ratio": "ratio",
})
PER_LAYER.update({"presentations.quotient_s.deg%d" % n: "s" for n in range(2, 26)})
PER_LAYER.update({
    "presentations.placements": "count",
    "presentations.ideal_rank": "count",
    "presentations.useful_ratio": "ratio",
    "presentations.relation_in_kernel_s": "s",
    "classify.search_s": "s",
    "hurwitz.census_s": "s",
})
PER_LAYER.update({"verify.section_s." + s: "s" for s in VERIFY_SECTIONS})
PER_LAYER["trace.overhead_s"] = "s"


class BenchError(Exception):
    pass


class Runner:
    """Starts workers one at a time, each within the run's deadline."""

    def __init__(self, seed, deadline):
        self.seed = seed
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.env = dict(os.environ)
        self.env.pop("THREADS", None)
        self.env["PYTHONHASHSEED"] = "0"
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    def elapsed(self):
        return time.perf_counter() - self.t0

    def worker(self, mode, workload):
        timeout = self.deadline - self.elapsed()
        if timeout <= 0:
            raise BenchError("run deadline of %.0f s reached" % self.deadline)
        cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(self.seed)]
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("%s %s worker passed the run deadline" % (mode, workload))
        if proc.returncode != 0:
            raise BenchError("%s %s worker failed:\n%s" % (mode, workload, proc.stderr[-3000:]))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["process_s"] = time.perf_counter() - t
        return result


def environment(seed):
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    """HEAD of the checkout's own .git, or None (never a parent repository's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_run(runner, workload, seconds):
    """End-to-end metrics: medians over fresh processes for about `seconds`."""
    setups, reps = [], []
    start = time.perf_counter()
    while True:
        setups += [runner.worker("setup", workload) for _ in range(SETUPS_PER_SAMPLE)]
        reps.append(runner.worker("run", workload))
        spent = time.perf_counter() - start
        per_rep = spent / len(reps)
        if spent + per_rep > seconds or runner.elapsed() + 1.5 * per_rep > runner.deadline:
            break
    while len(setups) + len(reps) < MIN_SETUP_SAMPLES:
        setups.append(runner.worker("setup", workload))
    # times in seconds at the reference speed of speed.py
    walls = [r["wall_s"] / r["slowness"] for r in reps]
    setup_samples = [r["setup_s"] / r["setup_slowness"] for r in setups + reps]
    rss = [r["rss_mb"] for r in reps]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(rss),
    }
    counts = {"wall_s": len(walls), "setup_s": len(setup_samples), "peak_rss_mb": len(rss)}
    raw = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in setups + reps],
        "slowness": [r["slowness"] for r in reps],
    }
    info = ["unscaled medians: wall %.4f s, setup %.4f s; slowness %.4f (1 at the reference speed)"
            % (statistics.median(raw["wall_s"]), statistics.median(raw["setup_s"]),
               statistics.median(raw["slowness"]))]
    record = {"samples": {"wall_s": walls, "setup_s": setup_samples, "peak_rss_mb": rss},
              "unscaled": raw}
    return metrics, counts, reps, info, record


def traced_run(runner, workload):
    """Per-layer metrics from traced workers; spans go to .perfbench/."""
    untraced = runner.worker("bare", workload)
    traced = runner.worker("trace", workload)
    results = [untraced, traced]
    metrics = dict(traced["metrics"])
    labels = ["workload:" + workload]
    # the families a workload does not exercise come from the one that defines them
    if not any(k.startswith("verify.section_s.") for k in metrics):
        results.append(runner.worker("trace", "quick"))
        labels.append("workload:quick")
        metrics.update(results[-1]["metrics"])
    if not any(k.startswith("nichols.engine_s.") for k in metrics):
        results.append(runner.worker("trace", "modular"))
        labels.append("workload:modular")
        metrics.update(results[-1]["metrics"])
    results.append(runner.worker("probe", workload))
    labels.append("probe")
    metrics.update(results[-1]["metrics"])
    overhead = traced["wall_s"] - untraced["wall_s"]
    metrics["trace.overhead_s"] = overhead

    info = ["traced wall %.4f s, untraced wall %.4f s" % (traced["wall_s"], untraced["wall_s"])]
    checks = []
    if "sections_sum_s" in traced:
        # the sections run one after another, so their spans must cover the
        # traced call up to the cost of tracing itself
        gap = traced["wall_s"] - traced["sections_sum_s"]
        tol = max(abs(overhead), 0.01 * traced["wall_s"])
        checks.append(("verify.section_s.* sum to the traced wall", 0 <= gap <= tol))
        info.append(
            "verify.section_s.* sum %.4f s, %.4f s short of the traced wall (tolerance %.4f s); "
            "Report.runtime_ms sums to %.1f s and is not used"
            % (traced["sections_sum_s"], gap, tol, traced["runtime_ms_sum_s"])
        )
    missing = [k for k in PER_LAYER if k not in metrics]
    if missing:
        raise BenchError("per-layer metrics missing: %s" % ", ".join(missing))
    metrics = {**{k: metrics[k] for k in PER_LAYER}, **metrics}

    shares = []
    for label, r in zip(labels, results[1:]):
        own = tracing.self_times(r["spans"])
        total = sum(own.values())
        top = sorted(own.items(), key=lambda kv: -kv[1])[:6]
        shares.append("%s self time: %s" % (
            label, ", ".join("%s %.0f%%" % (k, 100 * v / total) for k, v in top)))
    spans = [{"label": lb, "spans": r["spans"]} for lb, r in zip(labels, results[1:])]
    for r in results:
        r.pop("spans", None)
    record = {"traces": spans}
    return metrics, results, checks, info + shares, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "braidrack" / "__init__.py").is_file():
        print("error: no braidrack sources under %s" % SRC, file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("workload %s  seed %d  seconds %g  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env))
    runner = Runner(args.seed, DEADLINE_S.get(args.workload, DEFAULT_DEADLINE_S))
    try:
        if args.trace:
            metrics, results, checks, info, record = traced_run(runner, args.workload)
            units = PER_LAYER
            counts = {}
        else:
            metrics, counts, results, info, record = timed_run(runner, args.workload,
                                                               args.seconds)
            checks = []
            units = END_TO_END
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(r.get("attempted", 0) for r in results) + len(checks)
    failures = [f for r in results for f in r.get("failures", [])]
    failures += [label for label, ok in checks if not ok]
    for line in info:
        print(line)
    for name, value in metrics.items():
        unit = units.get(name, "s")
        n = counts.get(name)
        print("%s %s %s%s" % (name, _fmt(value), unit, "  (median of %d)" % n if n else ""))
    for f in failures:
        print("MISMATCH %s" % f)
    print("failed_frac %s  (%d of %d checks)" % (_fmt(len(failures) / attempted),
                                                 len(failures), attempted))

    OUT.mkdir(exist_ok=True)
    out_file = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    record.update(env=env, workload=args.workload, metrics=metrics, failures=failures,
                  attempted=attempted, workers=results)
    out_file.write_text(json.dumps(record))
    print("wrote %s" % out_file.relative_to(ROOT))

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()},
    }))
    return 0


def _fmt(v):
    return "%d" % v if isinstance(v, int) else "%.6g" % v


if __name__ == "__main__":
    sys.exit(main())
