"""Microbenchmarks of the compiler passes and the oracle (pytest-benchmark).

`addopts` in pyproject.toml disables timing, so a plain test run calls each
case once and checks its output.  To time them:

    pytest tests/test_pass_bench.py --benchmark-enable
"""
import functools

import numpy as np
import pytest

from rpoc import (Circuit, GateKind, PipelineOptions, cancel_adjacent_cx,
                  cx_count, equivalent_up_to_global_phase,
                  gen_grover, gen_qpe, gen_vqe_ry, line_coupling,
                  merge_1q_runs, pipeline, qbo, qpo, route, simulate, unroll)

from rpoc import passes
from rpoc.circuit import count_gates
from rpoc.synth import _merge_runs

from helpers import ref_simulate, spy_calls

LINE15 = line_coupling(15)
UNROLLED = {
    "grover6": lambda: unroll(gen_grover(6, 37, 6)),
    "qpe10": lambda: unroll(gen_qpe(10, 357 / 2 ** 10)),
}

# Each pass's input: a circuit unrolled to the basis, or grover6 unrolled and
# routed on line15 (seed 0), where nearly every gate after the first
# entangling ones has only unknown operands.
PASS_IN = {
    "qpe10": UNROLLED["qpe10"],
    "vqe_ry12": lambda: unroll(
        gen_vqe_ry(12, 2, [0.1 * k for k in range(36)])),
    "routed_grover6": lambda: route(UNROLLED["grover6"](), LINE15, seed=0)[0],
}
PASSES = {
    "qbo": qbo,
    "qpo": qpo,
    "qpo_blocks": functools.partial(qpo, resynth_blocks=True),
}
# CX of each pass's output unrolled to the basis (110, 22 and 3,621 in:
# routed grover6 has 744 CX and 959 SWAPs, of which each pass reduces 10).
CX_OUT = {
    ("qpe10", "qbo"): 110, ("qpe10", "qpo"): 110, ("qpe10", "qpo_blocks"): 0,
    ("vqe_ry12", "qbo"): 21, ("vqe_ry12", "qpo"): 22,
    ("vqe_ry12", "qpo_blocks"): 22,
    ("routed_grover6", "qbo"): 3611, ("routed_grover6", "qpo"): 3611,
}


@pytest.mark.parametrize("circuit,pass_name", list(CX_OUT))
def test_pass(benchmark, circuit, pass_name):
    c = PASS_IN[circuit]()
    out = PASSES[pass_name](c)
    assert cx_count(unroll(out)) == CX_OUT[(circuit, pass_name)]
    assert equivalent_up_to_global_phase(c, out).equivalent
    benchmark(PASSES[pass_name], c)


# Gates out of merge_1q_runs (1,740 and 361 in), and SWAPs route inserts on
# line15 with seed 0 (744 and 110 CX in).
MERGED_GATES = {"grover6": 1560, "qpe10": 286}
ROUTE_SWAPS = {"grover6": 959, "qpe10": 330}


# unroll's inputs: grover6 as generated (its MCX, CCX and named 1q gates
# repeat) and its routed form (959 SWAPs over 744 CX); (gates, CX) out.
UNROLL_IN = {
    "grover6": lambda: gen_grover(6, 37, 6),
    "routed_grover6": PASS_IN["routed_grover6"],
}
UNROLL_OUT = {"grover6": (1740, 744), "routed_grover6": (4617, 3621)}


@pytest.mark.parametrize("circuit", list(UNROLL_IN))
def test_unroll(benchmark, circuit):
    c = UNROLL_IN[circuit]()
    out = unroll(c)
    assert (len(out), cx_count(out)) == UNROLL_OUT[circuit]
    benchmark(unroll, c)


@pytest.mark.parametrize("circuit", list(UNROLLED))
def test_merge_1q_runs(benchmark, circuit):
    c = UNROLLED[circuit]()
    out = merge_1q_runs(c)
    assert len(out) == MERGED_GATES[circuit]
    assert cx_count(out) == cx_count(c)
    benchmark(merge_1q_runs, c)


@pytest.mark.parametrize("circuit", list(UNROLLED))
def test_route(benchmark, circuit):
    c = UNROLLED[circuit]()
    out, _ = route(c, LINE15, seed=0)
    assert count_gates(out, GateKind.SWAP) == ROUTE_SWAPS[circuit]
    assert cx_count(out) == cx_count(c)
    benchmark(route, c, LINE15, 0)


def test_cancel_adjacent_cx_routed_grover6(benchmark):
    # The routed SWAPs unrolled: 744 + 3 * 959 = 3,621 CX in.
    c = unroll(route(UNROLLED["grover6"](), LINE15, seed=0)[0])
    out = cancel_adjacent_cx(c)
    assert cx_count(c) == 3621 and cx_count(out) == 3549
    assert len(c) - len(out) == 3621 - 3549
    benchmark(cancel_adjacent_cx, c)


def test_merge_and_cancel_routed_grover6(benchmark):
    # pipeline()'s cleanup pass on routed grover6, its 959 SWAPs expanded in
    # the pass: the merge takes 4,617 gates to 4,437 and the cancellation
    # 3,621 CX to 3,549.  No run the pairs join fuses further, so one pass is
    # the fixpoint.
    c = PASS_IN["routed_grover6"]()
    out, more = _merge_runs(c, cancel=True)
    assert not more and cx_count(out) == 3549 and len(out) == 4365
    assert out.instructions == merge_1q_runs(cancel_adjacent_cx(
        merge_1q_runs(unroll(c)))).instructions
    benchmark(_merge_runs, c, cancel=True)


# pipeline() unrouted, where no SWAP is left to run qpo on; (gates, CX) out.
PIPELINE_CONFIGS = {
    "baseline": PipelineOptions(enable_qbo=False, enable_qpo=False),
    "rpo": PipelineOptions(),
}
PIPELINE_IN = {
    "grover6": lambda: gen_grover(6, 37, 6),
    "qpe10": lambda: gen_qpe(10, 357 / 2 ** 10),
}
PIPELINE_OUT = {
    ("grover6", "baseline"): (1560, 744), ("grover6", "rpo"): (1560, 744),
    ("qpe10", "baseline"): (286, 110), ("qpe10", "rpo"): (286, 110),
}


@pytest.mark.parametrize("config", list(PIPELINE_CONFIGS))
@pytest.mark.parametrize("circuit", list(PIPELINE_IN))
def test_pipeline_unrouted(benchmark, circuit, config):
    c, opts = PIPELINE_IN[circuit](), PIPELINE_CONFIGS[config]
    out = pipeline(c, opts)
    assert (len(out), cx_count(out)) == PIPELINE_OUT[(circuit, config)]
    benchmark(pipeline, c, opts)


# pipeline() on line15, where qpo runs on the SWAPs routing leaves (on
# qpe10; every SWAP operand of grover6 is unknown) and the cleanup pass
# expands the rest; (gates, CX) out.
PIPELINE_ROUTED_OUT = {
    ("grover6", "baseline"): (4365, 3549), ("grover6", "rpo"): (4359, 3539),
    ("qpe10", "baseline"): (1293, 1100), ("qpe10", "rpo"): (1113, 920),
}


@pytest.mark.parametrize("config", list(PIPELINE_CONFIGS))
@pytest.mark.parametrize("circuit", list(PIPELINE_IN))
def test_pipeline_routed(benchmark, circuit, config):
    c = PIPELINE_IN[circuit]()
    opts = PIPELINE_CONFIGS[config]._replace(coupling=LINE15)
    out = pipeline(c, opts)
    assert (len(out), cx_count(out)) == PIPELINE_ROUTED_OUT[(circuit, config)]
    benchmark(pipeline, c, opts)


# The stages after the second qbo: qpo and its merge run only where a SWAP
# has an operand known off the rays.
ROUTED_TAIL = {
    "grover6": ["_qbo", "_merge_runs+cancel"],
    "qpe10": ["_qbo", "merge_1q_runs", "qpo", "_merge_runs+cancel"],
}


@pytest.mark.parametrize("circuit", list(PIPELINE_IN))
def test_pipeline_routed_runs_one_cleanup_pass(monkeypatch, circuit):
    # No unroll after the second qbo or qpo, and one cleanup pass: nothing
    # it joins fuses to the identity.
    calls = spy_calls(monkeypatch, passes,
                      ("_qbo", "unroll", "merge_1q_runs", "qpo"))
    merge = passes._merge_runs
    monkeypatch.setattr(passes, "_merge_runs", lambda cur, cancel=False: (
        calls.append("_merge_runs+cancel" if cancel else "_merge_runs"),
        merge(cur, cancel=cancel))[1])
    pipeline(PIPELINE_IN[circuit](), PipelineOptions(coupling=LINE15))
    assert calls.count("_qbo") == 2
    second = calls.index("_qbo", calls.index("_qbo") + 1)
    assert calls[second:] == ROUTED_TAIL[circuit]


def test_simulate_routed_grover6(benchmark):
    # rpo's line15 output touches wires 0-5 only; the reference simulator
    # takes it on those six wires, without the terminal measurements.
    out = pipeline(gen_grover(6, 37, 6), PipelineOptions(coupling=LINE15))
    c = Circuit(6).extend(i for i in out.instructions
                          if i.kind is not GateKind.MEASURE)
    assert len(c) > 4000
    assert np.allclose(simulate(c), ref_simulate(c), atol=1e-9)
    benchmark(simulate, c)
