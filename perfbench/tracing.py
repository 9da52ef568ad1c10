"""Spans around the public stage functions, and a stage-by-stage replay of
pipeline().

The replay calls qbo, unroll, route, merge_1q_runs, qpo and
cancel_adjacent_cx in pipeline()'s order, recording one span per call.
Inside qpo and the oracle, the module-level helpers they look up at call
time are wrapped for the duration of a traced sweep only: qpo's block
resynthesis (rpoc.passes.simulate and prepare_two_qubit_state) and the
oracle's two simulations (rpoc.oracle.simulate).  The program itself is not
changed; the benchmark checks that the replay emits byte-identical output.
"""
from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

import rpoc.oracle
import rpoc.passes
from rpoc.circuit import GateKind, cx_count
from rpoc.passes import qbo, qpo, route
from rpoc.synth import cancel_adjacent_cx, merge_1q_runs, unroll

CLEANUP_CAP = 50  # pipeline() stops its cleanup loop after 51 iterations


class Tracer:
    """In-memory spans: [id, name, start, end, parent id, circuit id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, cid: str, fn, *args, **kwargs):
        rec = [len(self.spans), name, 0.0, 0.0,
               self._stack[-1] if self._stack else -1, cid]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def current_cid(self) -> str:
        return self.spans[self._stack[-1]][5] if self._stack else ""

    @contextlib.contextmanager
    def patched(self, module, attr: str, name_of):
        """Wrap module.attr so each call records a span named name_of(args)."""
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name_of(*args), self.current_cid(), orig,
                             *args, **kwargs)

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, name, start, end, parent, cid in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "circuit": cid}) + "\n")


def span_totals(spans: list[list]) -> dict[str, tuple[float, float, int]]:
    """Per span name: (inclusive seconds, self seconds, calls).  Self time is
    a span's duration minus the durations of its direct children."""
    child = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = {}
    for sid, name, start, end, _, _ in spans:
        t = totals.setdefault(name, [0.0, 0.0, 0])
        t[0] += end - start
        t[1] += end - start - child[sid]
        t[2] += 1
    return {name: tuple(t) for name, t in totals.items()}


@contextlib.contextmanager
def instrument(tr: Tracer, sources: set[int]):
    """Wrap qpo's resynthesis helpers and the oracle's simulator.  A
    simulate call on a circuit whose id is in `sources` is the oracle
    simulating the source; any other is the output."""
    def sim_name(c, *_):
        return "oracle.simulate_src" if id(c) in sources else "oracle.simulate_out"

    with tr.patched(rpoc.passes, "simulate",
                    lambda *_: "passes.qpo.blocks_resynth.simulate"), \
            tr.patched(rpoc.passes, "prepare_two_qubit_state",
                       lambda *_: "passes.qpo.blocks_resynth.prepare"), \
            tr.patched(rpoc.oracle, "simulate", sim_name):
        yield


def traced_pipeline(tr: Tracer, cid: str, c, opts):
    """Replay pipeline() stage by stage.  Returns the output circuit, the
    (stage name, input, output) of every call for the per-stage counts, and
    the number of cleanup iterations."""
    basis = frozenset(opts.basis)
    swap_basis = basis | {GateKind.SWAP, GateKind.SWAPZ}
    stages: list[tuple[str, object, object]] = []

    def stage(name, fn, cur, *args, **kwargs):
        out = tr.call(name, cid, fn, cur, *args, **kwargs)
        stages.append((name, cur, out[0] if isinstance(out, tuple) else out))
        return out

    def cleanup(cur):
        iters = 0
        while True:
            before = len(cur.instructions)
            cur = stage("synth.unroll", unroll, cur, basis)
            cur = stage("synth.merge_1q_runs", merge_1q_runs, cur)
            cur = stage("synth.cancel_adjacent_cx", cancel_adjacent_cx, cur)
            iters += 1
            if (iters >= 2 and len(cur.instructions) == before) or iters > CLEANUP_CAP:
                return cur, iters

    def run(cur):
        layout = None
        if opts.enable_qbo:
            cur = stage("passes.qbo", qbo, cur)
        cur = stage("synth.unroll", unroll, cur, swap_basis)
        if opts.coupling is not None:
            cur, layout = stage("passes.route", route, cur, opts.coupling,
                                opts.seed, opts.random_layout)
        if opts.enable_qbo:
            cur = stage("passes.qbo", qbo, cur)
        cur = stage("synth.unroll", unroll, cur, swap_basis)
        cur = stage("synth.merge_1q_runs", merge_1q_runs, cur)
        if opts.enable_qpo:
            cur = stage("passes.qpo", qpo, cur,
                        resynth_blocks=opts.enable_block_resynth)
        cur, iters = tr.call("pipeline.cleanup", cid, cleanup, cur)
        cur.layout = layout
        return cur, iters

    out, iters = tr.call("pipeline", cid, run, c)
    return out, stages, iters


def _swaps(c) -> int:
    return sum(1 for inst in c.instructions if inst.kind is GateKind.SWAP)


def stage_counts(stages, iters: int, basis, counts: dict[str, float]) -> None:
    """Add one compile's per-stage work and effect counts into `counts`.
    CX deltas of qbo and qpo are taken after unrolling both sides to the
    basis, so SWAP and SWAPZ count by their CX cost."""
    unrolled: dict[int, int] = {}

    def basis_cx(c) -> int:
        if id(c) not in unrolled:
            unrolled[id(c)] = cx_count(unroll(c, basis))
        return unrolled[id(c)]

    for name, cin, cout in stages:
        if name in ("passes.qbo", "passes.qpo"):
            counts[name + ".calls"] += 1
            counts[name + ".cx_delta"] += basis_cx(cout) - basis_cx(cin)
        elif name == "passes.route":
            counts["passes.route.swaps_added"] += _swaps(cout) - _swaps(cin)
        elif name == "synth.unroll":
            counts["synth.unroll.gates_out"] += len(cout.instructions)
        elif name == "synth.merge_1q_runs":
            counts["synth.merge_1q_runs.gates_delta"] += (
                len(cout.instructions) - len(cin.instructions))
        elif name == "synth.cancel_adjacent_cx":
            counts["synth.cancel_adjacent_cx.cx_delta"] += (
                cx_count(cout) - cx_count(cin))
    counts["pipeline.cleanup.iters"] += iters
    counts["pipeline.cleanup.cap_hits"] += iters > CLEANUP_CAP
