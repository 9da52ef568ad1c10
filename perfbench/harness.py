"""Sweeps, metrics and reports of the benchmark (entry point: run.py).

End-to-end metrics (--trace 0):
  setup_s                 fastest of SETUP_SAMPLES set-ups spread over the
                          run; one set-up is importing rpoc in a fresh
                          interpreter plus generating the workload
  compile_s.best          one sweep made of each operation's fastest
  verify_s.best           compile (verify) time over the run's sweeps
  cx_out, u1q_out,        summed over the rpo outputs; fixed for a seed
  depth_out
  cx_reduction_gmean_pct  100 * (1 - geometric mean over circuits of
                          (rpo CX + 1) / (baseline CX + 1))
  cx_not_worse_frac       share of circuits where rpo CX <= baseline CX
  verified_frac           share of operations the oracle checked and passed
  peak_rss_mb             maximum resident set size of this process
The median and tail sweep times (the tail is the highest percentile with
TAIL_BEYOND sweeps beyond it, never below the median), failed_frac,
unverified_frac and cx_regressions are printed and recorded as supporting
detail.  Wall times on a small shared host shift by tens of percent from
second to second, which moves medians between runs; each operation's fastest
run does not.

Per-layer metrics (--trace 1): a traced run alternates an untraced sweep
with a traced one that replays pipeline() stage by stage under spans
(tracing.py) and checks that the replay emits byte-identical output.  Times
are the fastest traced sweep's per-layer totals, counts those of one sweep;
bench.trace_overhead.s is the fastest traced minus the fastest untraced
sweep.  The spans go to perfbench/out/<workload>.spans.jsonl.  What each
layer should move:
  passes.qbo.*            cx_out, cx_reduction_gmean_pct everywhere; a small
                          share of compile_s
  passes.qpo.*            cx_out, cx_not_worse_frac (fuzz: blocks_resynth)
  passes.route.*          compile_s and cx_out on routed; 0 on unrouted
  synth.*, pipeline.*     compile_s, mostly on unrouted (grover6)
  oracle.*                verify_s on routed, where most of the 15 wires are
                          idle; an idle-wire change should leave unrouted be
  circuit.*               compile_s on fuzz; an output round trip elsewhere
  bench.generate.s        setup_s

Every run writes per-circuit rows, output hashes and the environment to
perfbench/out/<workload>-trace<k>.json.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from rpoc.circuit import (GateKind, count_1q, cx_count, depth, emit_program,
                          parse_program)
from rpoc.oracle import MAX_QUBITS, equivalent_up_to_global_phase
from rpoc.passes import pipeline

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
NO_STATE_WORK = frozenset({GateKind.BARRIER, GateKind.MEASURE})
SETUP_SAMPLES = 5
# Root spans that an untraced sweep's compile and verify timers also cover.
TIMED_ROOTS = ("pipeline", "bench.compile", "oracle.equivalent")
TAIL_BEYOND = 10  # the tail percentile keeps this many sweeps beyond it

# (name, unit) of every metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("compile_s.best", "s"), ("verify_s.best", "s"),
    ("cx_out", "count"), ("u1q_out", "count"), ("depth_out", "count"),
    ("cx_reduction_gmean_pct", "%"),
    ("cx_not_worse_frac", "ratio"),
    ("verified_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
# Printed and recorded with every run, not compared between commits.
SUPPORTING = (("compile_s.p50", "s"), ("compile_s.tail", "s"),
              ("verify_s.p50", "s"), ("verify_s.tail", "s"),
              ("failed_frac", "ratio"), ("unverified_frac", "ratio"),
              ("cx_regressions", "count"), ("first_setup_s", "s"))
_STAGE_TIMES = ("passes.qbo", "passes.qpo", "passes.route", "synth.unroll",
                "synth.merge_1q_runs", "synth.cancel_adjacent_cx",
                "pipeline.cleanup", "pipeline", "oracle.equivalent",
                "oracle.simulate_src", "oracle.simulate_out",
                "circuit.parse_program", "circuit.emit_program")
_SELF_TIMES = ("pipeline", "pipeline.cleanup", "passes.qpo", "oracle.equivalent")
_COUNTS = ("passes.qbo.calls", "passes.qbo.cx_delta",
           "passes.qpo.calls", "passes.qpo.cx_delta",
           "passes.route.swaps_added",
           "synth.unroll.gates_out", "synth.merge_1q_runs.gates_delta",
           "synth.cancel_adjacent_cx.cx_delta", "pipeline.cleanup.iters",
           "pipeline.cleanup.cap_hits", "oracle.offered_amp_updates")
PER_LAYER = (tuple((n + ".s", "s") for n in _STAGE_TIMES)
             + tuple((n + ".self_s", "s") for n in _SELF_TIMES)
             + (("passes.qpo.blocks_resynth.s", "s"),
                ("passes.qpo.blocks_resynth.calls", "count"))
             + tuple((n, "count") for n in _COUNTS)
             + (("bench.generate.s", "s"), ("bench.trace_overhead.s", "s")))


def quantile(values: list[float], p: float) -> float:
    """Linear-interpolation quantile of values at p in [0, 1]."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_p(n: int) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it, never below the
    median: with 20 or fewer sweeps the tail is the median."""
    return max(0.5, 1.0 - TAIL_BEYOND / n)


def environment(blas_env) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in blas_env},
    }


class Bench:
    """One run: jobs, per-operation records and the sweep loop."""

    def __init__(self, workload: str, jobs: list[workloads.Job]):
        self.workload = workload
        self.jobs = jobs
        self.ref: dict[tuple[str, str], dict] = {}   # first-sweep records
        self.compile_ms: dict[tuple[str, str], list[float]] = {}
        self.verify_ms: dict[tuple[str, str], list[float]] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.unverified = 0
        self.verified = 0

    # -- one operation -----------------------------------------------------

    def compile(self, job, cfg):
        if job.text is None:
            out = pipeline(job.source, cfg.opts)
            return job.source, out, None
        src = parse_program(job.text)
        out = pipeline(src, cfg.opts)
        return src, out, emit_program(out)

    def verify(self, src, out) -> tuple[str, str]:
        try:
            rep = equivalent_up_to_global_phase(src, out, perm=out.layout)
        except ValueError as e:
            if max(src.n_qubits, out.n_qubits) > MAX_QUBITS:
                return "unverified", str(e)
            return "failed", f"{type(e).__name__}: {e}"
        except Exception as e:  # noqa: BLE001 - counted as a failure
            return "failed", f"oracle raised {type(e).__name__}: {e}"
        return ("ok" if rep.equivalent else "failed"), rep.detail

    def record(self, job, cfg, out, text, status, detail) -> None:
        """Per-operation bookkeeping outside the timed region: failures,
        first-sweep quality counts, and output determinism across sweeps."""
        key = (job.cid, cfg.name)
        self.attempted += 1
        if status == "unverified":
            self.unverified += 1
        elif status == "ok":
            self.verified += 1
        if status == "failed":
            self.failed += 1
            self.errors.append(f"{job.cid}/{cfg.name}: {detail}")
            return
        text = text if text is not None else emit_program(out)
        sha = hashlib.sha256(text.encode()).hexdigest()
        if key not in self.ref:
            self.ref[key] = {"cx": cx_count(out), "u1q": count_1q(out),
                             "depth": depth(out), "sha256": sha,
                             "layout": out.layout, "status": status}
        elif self.ref[key]["sha256"] != sha:
            self.failed += 1
            self.errors.append(f"{job.cid}/{cfg.name}: output differs between "
                               "sweeps")

    # -- sweeps ------------------------------------------------------------

    def sweep(self) -> tuple[float, float]:
        """One untraced pass over every job x config: (compile s, verify s)."""
        tc = tv = 0.0
        for job in self.jobs:
            for cfg in job.configs:
                key = (job.cid, cfg.name)
                t0 = time.perf_counter()
                try:
                    src, out, text = self.compile(job, cfg)
                except Exception as e:  # noqa: BLE001 - counted as a failure
                    tc += time.perf_counter() - t0
                    self.record(job, cfg, None, None, "failed",
                                f"compile raised {type(e).__name__}: {e}")
                    continue
                t1 = time.perf_counter()
                status, detail = self.verify(src, out)
                t2 = time.perf_counter()
                tc += t1 - t0
                tv += t2 - t1
                self.compile_ms.setdefault(key, []).append(1e3 * (t1 - t0))
                self.verify_ms.setdefault(key, []).append(1e3 * (t2 - t1))
                self.record(job, cfg, out, text, status, detail)
        return tc, tv

    def traced_sweep(self, tr, counts: dict) -> float:
        """One pass replaying every compile stage by stage under spans.
        Returns the traced counterpart of an untraced sweep's compile plus
        verify time: the sum of the compile and verify root spans."""
        first = len(tr.spans)
        sources: set[int] = set()
        with tracing.instrument(tr, sources):
            for job in self.jobs:
                for cfg in job.configs:
                    key = (job.cid, cfg.name)
                    try:
                        src, out, text, stages, iters = self._traced_compile(
                            tr, job, cfg)
                    except Exception as e:  # noqa: BLE001 - counted
                        self.record(job, cfg, None, None, "failed",
                                    f"traced compile raised "
                                    f"{type(e).__name__}: {e}")
                        continue
                    sources.add(id(src))
                    status, detail = tr.call("oracle.equivalent", job.cid,
                                             self.verify, src, out)
                    sources.discard(id(src))
                    if text is None:
                        # Not part of compiling this job: the text round trip
                        # is traced as roots of its own.
                        text = tr.call("circuit.emit_program", job.cid,
                                       emit_program, out)
                        back = tr.call("circuit.parse_program", job.cid,
                                       parse_program, text)
                        if back != out:
                            status, detail = "failed", (
                                "emit/parse round trip changed the output")
                    ref = self.ref.get(key)
                    if ref is not None and (
                            hashlib.sha256(text.encode()).hexdigest()
                            != ref["sha256"] or out.layout != ref["layout"]):
                        status, detail = "failed", (
                            "stage-by-stage replay differs from pipeline()")
                    self.record(job, cfg, out, text, status, detail)
                    tracing.stage_counts(stages, iters, cfg.opts.basis, counts)
                    for c in (src, out):
                        if c.n_qubits <= MAX_QUBITS:
                            gates = sum(1 for i in c.instructions
                                        if i.kind not in NO_STATE_WORK)
                            counts["oracle.offered_amp_updates"] += (
                                gates * 2 ** c.n_qubits)
        return sum(end - start for _, name, start, end, parent, _
                   in tr.spans[first:]
                   if parent == -1 and name in TIMED_ROOTS)

    def _traced_compile(self, tr, job, cfg):
        if job.text is None:
            src = job.source
            out, stages, iters = tracing.traced_pipeline(tr, job.cid, src,
                                                         cfg.opts)
            return src, out, None, stages, iters

        def compile_text():
            s = tr.call("circuit.parse_program", job.cid, parse_program,
                        job.text)
            o, st, it = tracing.traced_pipeline(tr, job.cid, s, cfg.opts)
            t = tr.call("circuit.emit_program", job.cid, emit_program, o)
            return s, o, t, st, it

        return tr.call("bench.compile", job.cid, compile_text)

    # -- results -----------------------------------------------------------

    def quality(self) -> dict:
        """Output quality of the rpo config against the baseline."""
        rpo = [(cid, r) for (cid, cfg), r in self.ref.items() if cfg == "rpo"]
        base = {cid: r for (cid, cfg), r in self.ref.items()
                if cfg == "baseline"}
        pairs = [(r["cx"], base[cid]["cx"]) for cid, r in rpo if cid in base]
        regressions = sum(1 for a, b in pairs if a > b)
        # Add-one smoothing keeps circuits whose CX drop to zero in the mean.
        log_ratio = [math.log((a + 1) / (b + 1)) for a, b in pairs]
        return {
            "cx_out": sum(r["cx"] for _, r in rpo),
            "u1q_out": sum(r["u1q"] for _, r in rpo),
            "depth_out": sum(r["depth"] for _, r in rpo),
            "cx_reduction_gmean_pct": 100.0 * (
                1.0 - math.exp(statistics.fmean(log_ratio))) if pairs else 0.0,
            "cx_regressions": regressions,
            "cx_not_worse_frac": (1.0 - regressions / len(pairs)) if pairs else 0.0,
            "circuits_compared": len(pairs),
        }

    @staticmethod
    def best(samples_ms: dict) -> float:
        """Seconds of one sweep made of each operation's fastest run."""
        return sum(min(ms) for ms in samples_ms.values()) / 1e3

    def rows(self) -> list[dict]:
        out = []
        for job in self.jobs:
            for cfg in job.configs:
                key = (job.cid, cfg.name)
                ref = self.ref.get(key, {})
                cms, vms = self.compile_ms.get(key), self.verify_ms.get(key)
                out.append({
                    "workload": self.workload, "circuit": job.cid,
                    "config": cfg.name, "cx": ref.get("cx"),
                    "u1q": ref.get("u1q"), "depth": ref.get("depth"),
                    "compile_ms": statistics.median(cms) if cms else None,
                    "verify_ms": statistics.median(vms) if vms else None,
                    "compile_ms_min": min(cms) if cms else None,
                    "verify_ms_min": min(vms) if vms else None,
                    "verified": ref.get("status") == "ok",
                    "sha256": ref.get("sha256"),
                })
        return out

    def output_hashes(self) -> dict[str, str]:
        """SHA-256 over every emitted output of each config, in job order."""
        out = {}
        names = sorted({cfg.name for job in self.jobs for cfg in job.configs})
        for name in names:
            h = hashlib.sha256()
            for job in self.jobs:
                ref = self.ref.get((job.cid, name))
                if ref is not None:
                    h.update(f"{job.cid}:{ref['sha256']}\n".encode())
            out[name] = h.hexdigest()
        return out



IMPORT_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rpoc
print(time.perf_counter() - t0)
"""


def setup_sample(src: Path, workload: str, seed: int):
    """One set-up: import rpoc in a fresh interpreter, then generate the
    workload in this one.  Returns (import s, generate s, jobs)."""
    probe = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE, str(src)],
                           capture_output=True, text=True, timeout=120,
                           check=True)
    t0 = time.perf_counter()
    jobs = workloads.build(workload, seed)
    return float(probe.stdout.split()[-1]), time.perf_counter() - t0, jobs


def listed_metrics(trace: int) -> list[str] | None:
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(args, src: Path, blas_env, first_import_s: float) -> int:
    """Run one benchmark; args holds workload, seed, seconds and trace."""
    # The first set-up builds the jobs; later ones are spread over the run
    # so that the fastest of them is not a single draw of the host's speed.
    setups = [setup_sample(src, args.workload, args.seed)]
    jobs = setups[0][2]
    bench = Bench(args.workload, jobs)
    source_errors = workloads.check_sources(jobs)
    if source_errors:
        bench.errors.extend(source_errors)
    else:
        # Load lazily initialised code paths (LAPACK, the oracle) untimed.
        warm = workloads.build_warmup()
        for cfg in warm.configs:
            _, out, _ = bench.compile(warm, cfg)
            bench.verify(parse_program(warm.text), out)

    sweeps: dict[str, list] = {"compile": [], "verify": [], "traced": [],
                               "layers": []}
    if not source_errors:
        run_sweeps(args, src, bench, setups, sweeps)
    n = len(sweeps["compile"])
    q = bench.quality()
    p = tail_p(n) if n else 0.5
    summary = {
        "sweeps": n,
        "operations_per_sweep": sum(len(j.configs) for j in jobs),
        "failed_frac": bench.failed / max(bench.attempted, 1),
        "unverified_frac": bench.unverified / max(bench.attempted, 1),
        "cx_regressions": q["cx_regressions"],
        "circuits_compared": q["circuits_compared"],
        "first_setup_s": first_import_s + setups[0][1],
        "setup_samples_s": [(i, g) for i, g, _ in setups],
        "compile_sweeps_s": sweeps["compile"],
        "verify_sweeps_s": sweeps["verify"],
        "tail_percentile": 100 * p,
    }
    if n:
        summary.update({
            "compile_s.p50": statistics.median(sweeps["compile"]),
            "compile_s.tail": quantile(sweeps["compile"], p),
            "verify_s.p50": statistics.median(sweeps["verify"]),
            "verify_s.tail": quantile(sweeps["verify"], p),
        })
    if args.trace:
        metrics = per_layer(sweeps, setups)
        declared = PER_LAYER
    else:
        metrics = end_to_end(bench, q, setups)
        declared = END_TO_END
    units = dict(declared)
    order = [name for name, _ in declared]

    listed = listed_metrics(args.trace)
    if listed is not None and sorted(listed) != sorted(metrics):
        bench.errors.append(f"metrics {sorted(metrics)} do not match "
                            f"BENCHMARK.json {sorted(listed)}")
    correct = bench.failed == 0 and not bench.errors

    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(blas_env),
        "summary": summary,
        "metrics": metrics, "output_sha256": bench.output_hashes(),
        "rows": bench.rows(), "errors": bench.errors[:100],
    }
    with open(OUT_DIR / f"{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump(detail, f, indent=1)

    for err in bench.errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sweeps {n}  ops/sweep {summary['operations_per_sweep']}")
    for name in order:
        if name in metrics:
            print(f"  {name:<40} {metrics[name]:>16.6g} {units[name]}")
    print(f"supporting detail (tail = p{summary['tail_percentile']:.0f} of "
          f"{n} sweeps):")
    for name, unit in SUPPORTING:
        if name in summary:
            print(f"  {name:<40} {summary[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in order if name in metrics},
    }))
    return 0 if correct else 1


def run_sweeps(args, src: Path, bench: Bench, setups: list,
               sweeps: dict[str, list]) -> None:
    """Sweep until the next sweep would overrun args.seconds, taking the
    remaining set-up samples at even intervals on the way."""
    tr = tracing.Tracer()
    walls: list[float] = []
    t_begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_begin
        if len(setups) < SETUP_SAMPLES and (
                elapsed >= len(setups) * args.seconds / SETUP_SAMPLES):
            setups.append(setup_sample(src, args.workload, args.seed))
        t0 = time.perf_counter()
        tc, tv = bench.sweep()
        sweeps["compile"].append(tc)
        sweeps["verify"].append(tv)
        if args.trace:
            first = len(tr.spans)
            counts: dict[str, int] = defaultdict(int)
            sweeps["traced"].append(bench.traced_sweep(tr, counts))
            sweeps["layers"].append(layer_metrics(
                tracing.span_totals(tr.spans[first:]), counts))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_begin
        if elapsed + statistics.median(walls) > args.seconds:
            break
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tr.write(OUT_DIR / f"{args.workload}.spans.jsonl")


def end_to_end(bench: Bench, q: dict, setups: list) -> dict[str, float]:
    metrics = {"setup_s": min(i + g for i, g, _ in setups)}
    if bench.compile_ms:
        metrics["compile_s.best"] = bench.best(bench.compile_ms)
        metrics["verify_s.best"] = bench.best(bench.verify_ms)
    metrics.update({k: q[k] for k in ("cx_out", "u1q_out", "depth_out",
                                      "cx_reduction_gmean_pct",
                                      "cx_not_worse_frac")})
    metrics["verified_frac"] = bench.verified / max(bench.attempted, 1)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return metrics


def per_layer(sweeps: dict[str, list], setups: list) -> dict[str, float]:
    metrics: dict[str, float] = {}
    layers = sweeps["layers"]
    if layers:
        metrics = {name: (min(s[name] for s in layers) if unit == "s"
                          else layers[0][name])
                   for name, unit in PER_LAYER if name in layers[0]}
        untraced = [c + v for c, v in zip(sweeps["compile"], sweeps["verify"])]
        metrics["bench.trace_overhead.s"] = (
            min(sweeps["traced"]) - min(untraced))
    metrics["bench.generate.s"] = min(g for _, g, _ in setups)
    return metrics


def layer_metrics(totals: dict[str, tuple[float, float, int]],
                  counts: dict[str, int]) -> dict[str, float]:
    """Per-layer values of one traced sweep."""
    none = (0.0, 0.0, 0)
    out = {}
    for name in _STAGE_TIMES:
        out[name + ".s"] = totals.get(name, none)[0]
    for name in _SELF_TIMES:
        out[name + ".self_s"] = totals.get(name, none)[1]
    resynth = ("passes.qpo.blocks_resynth.simulate",
               "passes.qpo.blocks_resynth.prepare")
    out["passes.qpo.blocks_resynth.s"] = sum(
        totals.get(name, none)[0] for name in resynth)
    out["passes.qpo.blocks_resynth.calls"] = totals.get(resynth[1], none)[2]
    for name in _COUNTS:
        out[name] = counts.get(name, 0)
    return out
