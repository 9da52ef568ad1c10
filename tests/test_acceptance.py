"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured evidence.  Tolerances are pinned here, not configurable."""
import itertools
import math
import random
import time

import numpy as np
import pytest

from rpoc import (BasisState, Circuit, GateKind, Instruction,
                  PipelineOptions, Tracker, cx_count, emit_program,
                  equivalent_up_to_global_phase, gen_bv, gen_grover, gen_qpe,
                  gen_qv_like, gen_vqe_ry, line_coupling, pipeline, qbo, qpo,
                  simulate, unroll)
from rpoc.oracle import reduced_qubit_state, trace_distance_to_pure
from rpoc.passes import cx_cell_instructions, swap_cell_instructions
from rpoc.synth import pure_state_vector

from helpers import BASIS_PREP, TOP_SPAN, random_circuit

PI = math.pi
B = BasisState
FIVE = [B.TOP, B.ZERO, B.ONE, B.PLUS, B.MINUS]
FID_TOL = 1e-9


def _ok(msg):
    print(f"ACCEPTANCE PASS: {msg}")


def fidelity_ok(a, b, tol=FID_TOL):
    return abs(np.vdot(a, b)) ** 2 >= 1.0 - tol


def _span_inputs(state):
    if state is B.TOP:
        return TOP_SPAN
    return [BASIS_PREP[state]]


def _validate_cell(lhs_gate, replacement, s0, s1):
    for g0 in _span_inputs(s0):
        for g1 in _span_inputs(s1):
            base = Circuit(2)
            for k in g0:
                base.append(Instruction(k, (0,)))
            for k in g1:
                base.append(Instruction(k, (1,)))
            lhs = base.replace(base.instructions + [lhs_gate])
            rhs = base.replace(base.instructions + list(replacement))
            assert fidelity_ok(simulate(lhs), simulate(rhs)), (s0, s1, g0, g1)


def test_criterion_1_table_cx_cells():
    t0 = time.perf_counter()
    checked = 0
    for ctrl, tgt in itertools.product(FIVE, FIVE):
        repl = cx_cell_instructions(ctrl, tgt, 0, 1)
        checked += 1
        if repl is None:
            continue
        _validate_cell(Instruction(GateKind.CX, (0, 1)), repl, ctrl, tgt)
    elapsed = time.perf_counter() - t0
    assert checked == 25
    assert elapsed < 1.0
    _ok(f"criterion 1: 25/25 CX cells brute-force equivalent "
        f"(fidelity >= 1-1e-9) in {elapsed:.3f}s")


def test_criterion_2_table_swap_cells():
    t0 = time.perf_counter()
    checked = 0
    for top, bot in itertools.product(FIVE, FIVE):
        repl = swap_cell_instructions(top, bot, 0, 1)
        checked += 1
        if repl is None:
            continue
        _validate_cell(Instruction(GateKind.SWAP, (0, 1)), repl, top, bot)
    elapsed = time.perf_counter() - t0
    assert checked == 25
    assert elapsed < 1.0
    _ok(f"criterion 2: 25/25 SWAP cells brute-force equivalent in {elapsed:.3f}s")


def test_criterion_3_toffoli_and_fredkin():
    t0 = time.perf_counter()

    def check_identity(premise_wire, premise_prep, lhs, rhs, n=3):
        """Brute force over a spanning set on the unconstrained wires."""
        free = [q for q in range(n) if q != premise_wire]
        for gates in itertools.product(TOP_SPAN, repeat=len(free)):
            base = Circuit(n)
            for k in premise_prep:
                base.append(Instruction(k, (premise_wire,)))
            for wire, gseq in zip(free, gates):
                for k in gseq:
                    base.append(Instruction(k, (wire,)))
            va = simulate(base.replace(base.instructions + lhs))
            vb = simulate(base.replace(base.instructions + rhs))
            assert fidelity_ok(va, vb), (premise_wire, premise_prep, gates)

    ccx = [Instruction(GateKind.CCX, (0, 1, 2))]
    # Control |0>: gate removed.
    check_identity(0, BASIS_PREP[B.ZERO], ccx, [])
    # Control |1>: control dropped.
    check_identity(0, BASIS_PREP[B.ONE], ccx,
                   [Instruction(GateKind.CX, (1, 2))])
    # Target |+>: gate removed.
    check_identity(2, BASIS_PREP[B.PLUS], ccx, [])
    # Target |->: controlled-Z between the controls.
    check_identity(2, BASIS_PREP[B.MINUS], ccx,
                   [Instruction(GateKind.CZ, (0, 1))])

    # The pass itself applies these rules.
    c = Circuit(3)
    c.x(0)
    c.u3(1, 1, 1, 1)
    c.u3(2, 1, 1, 2)
    c.ccx(0, 1, 2)
    out = qbo(c)
    assert any(i.kind is GateKind.CX for i in out.instructions)
    assert equivalent_up_to_global_phase(c, out).equivalent

    # Fredkin with known pure swap targets: two controlled-u3 gates, at most
    # four CX after unrolling, oracle-equivalent.
    rng = np.random.default_rng(303)
    for _ in range(20):
        c = Circuit(3)
        c.h(0)
        c.u3(rng.uniform(0, PI), rng.uniform(0, 2 * PI), 0.0, 1)
        c.u3(rng.uniform(0, PI), rng.uniform(0, 2 * PI), 0.0, 2)
        c.cswap(0, 1, 2)
        out = qpo(c)
        assert cx_count(unroll(out)) <= 4
        rep = equivalent_up_to_global_phase(c, out)
        assert rep.equivalent and rep.fidelity >= 1 - FID_TOL

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(f"criterion 3: Toffoli cases + Fredkin pure-target (<=4 CX) verified "
        f"in {elapsed:.3f}s")


def test_criterion_4_swap_cost_ladder():
    rng = np.random.default_rng(404)

    # Both unknown: two independently entangled pairs, swap across them.
    c = Circuit(4)
    c.h(0)
    c.cx(0, 1)
    c.h(2)
    c.cx(2, 3)
    c.swap(1, 2)
    out = pipeline(c)
    assert cx_count(out) == 2 + 3
    rep = equivalent_up_to_global_phase(c, out)
    assert rep.equivalent and rep.fidelity >= 1 - FID_TOL

    # One known pure operand: swap costs 2.
    c = Circuit(3)
    c.h(0)
    c.cx(0, 2)
    c.u3(rng.uniform(0, PI), rng.uniform(0, 2 * PI), 0.0, 1)
    c.swap(0, 1)
    out = pipeline(c)
    assert cx_count(out) == 1 + 2
    rep = equivalent_up_to_global_phase(c, out)
    assert rep.equivalent and rep.fidelity >= 1 - FID_TOL

    # Both known pure: swap costs 0.
    c = Circuit(2)
    c.u3(rng.uniform(0, PI), rng.uniform(0, 2 * PI), 0.0, 0)
    c.u3(rng.uniform(0, PI), rng.uniform(0, 2 * PI), 0.0, 1)
    c.swap(0, 1)
    out = pipeline(c)
    assert cx_count(out) == 0
    rep = equivalent_up_to_global_phase(c, out)
    assert rep.equivalent and rep.fidelity >= 1 - FID_TOL

    _ok("criterion 4: SWAP cost ladder 3/2/0 CX, each oracle-verified")


def test_criterion_5_bv_conversion():
    t0 = time.perf_counter()
    rng = random.Random(505)
    for trial in range(50):
        n = rng.randrange(1, 11)
        s = "".join(rng.choice("01") for _ in range(n))
        out = pipeline(gen_bv(n, s, "boolean"))
        assert cx_count(out) == 0, (n, s)
        dist = simulate(out)
        assert dist == {s: pytest.approx(1.0, abs=1e-12)}, (n, s)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(f"criterion 5: 50 random boolean-oracle circuits -> 0 CX, exact "
        f"output distribution, in {elapsed:.2f}s")


def test_criterion_6_qpe_directional():
    t0 = time.perf_counter()
    cmap = line_coupling(15)
    results = {}
    for n in (3, 4, 5, 6):
        qpe = gen_qpe(n, (2 ** n - 1) / 2 ** n)
        wins = 0
        for seed in range(25):
            base = pipeline(qpe, PipelineOptions(
                coupling=cmap, seed=seed, enable_qbo=False, enable_qpo=False))
            rpo = pipeline(qpe, PipelineOptions(coupling=cmap, seed=seed))
            assert cx_count(rpo) <= cx_count(base), (n, seed)
            if cx_count(rpo) < cx_count(base):
                wins += 1
        assert wins >= 23, (n, wins)  # >= 90% of 25 seeds
        results[n] = wins
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(f"criterion 6: QPE strict CX wins per size {results} "
        f"(never worse) in {elapsed:.1f}s")


def _bench_instances():
    yield gen_bv(4, "1011", "boolean"), "line5"
    yield gen_bv(8, "10110110", "boolean"), None
    yield gen_bv(10, "1011011011", "boolean"), "line15"
    yield gen_qpe(3, 7 / 8), "line5"
    yield gen_qpe(5, 0.3), "line15"
    yield gen_qpe(6, 63 / 64), None
    yield gen_grover(3, 5, 2), None
    yield gen_grover(4, 11, 2, use_ancilla=True, annotate=True), "line15"
    yield gen_grover(5, 19, 1, use_ancilla=True, annotate=True), None
    yield gen_grover(8, 173, 1, use_ancilla=True, annotate=True), None
    yield gen_vqe_ry(4, 2, [0.3 * k for k in range(12)]), "line5"
    yield gen_vqe_ry(6, 2, [0.21 * k for k in range(18)]), None
    yield gen_vqe_ry(8, 3, [0.17 * k for k in range(32)]), None
    yield gen_qv_like(4, 4, seed=1), "line5"
    yield gen_qv_like(5, 5, seed=2), None
    yield gen_qv_like(6, 6, seed=3), None


def test_criterion_7_end_to_end_equivalence():
    t0 = time.perf_counter()
    count = 0
    for circ, coupling in _bench_instances():
        from rpoc.passes import resolve_coupling
        cmap = resolve_coupling(coupling)
        for flags in ((True, True), (True, False), (False, True)):
            out = pipeline(circ, PipelineOptions(
                coupling=cmap, seed=11, enable_qbo=flags[0],
                enable_qpo=flags[1]))
            rep = equivalent_up_to_global_phase(circ, out, perm=out.layout)
            assert rep.equivalent, (coupling, flags, rep.detail)
            count += 1

    rng = random.Random(707)
    for i in range(500):
        c = random_circuit(rng, rng.randrange(2, 7), rng.randrange(5, 45))
        out = pipeline(c, PipelineOptions(enable_block_resynth=bool(i % 2)))
        rep = equivalent_up_to_global_phase(c, out)
        assert rep.equivalent and rep.fidelity >= 1 - FID_TOL, emit_program(c)
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _ok(f"criterion 7: {count} pipeline runs oracle-equivalent in {elapsed:.1f}s")


def test_criterion_8_analysis_soundness():
    rng = random.Random(808)
    points = 0
    for _ in range(200):
        n = rng.randrange(2, 5)
        c = random_circuit(rng, n, rng.randrange(4, 22), allow_reset=True)
        pt = Tracker(n)
        prefix = c.copy_empty()
        for inst in c.instructions:
            prefix.append(inst)
            state = simulate(prefix)
            pt.step(inst)
            for q in range(n):
                rho = reduced_qubit_state(state, q)
                if pt.states[q] is not None:
                    td = trace_distance_to_pure(
                        rho, pure_state_vector(*pt.states[q]))
                    assert td <= 1e-8, (inst, q, pt.states[q], td)
                    points += 1
    _ok(f"criterion 8: 200 random circuits, {points} non-top claims all "
        f"within trace distance 1e-8")


def test_criterion_9_annotation_path():
    cmap = line_coupling(15)
    checked = 0
    for n, marked, iters in ((4, 11, 2), (5, 19, 1)):
        with_a = gen_grover(n, marked, iters, use_ancilla=True, annotate=True)
        without = gen_grover(n, marked, iters, use_ancilla=True, annotate=False)
        simulate(with_a)  # all annotations hold on the source circuit
        for seed in range(10):
            oa = pipeline(with_a, PipelineOptions(coupling=cmap, seed=seed))
            ob = pipeline(without, PipelineOptions(coupling=cmap, seed=seed))
            simulate(oa)  # annotations still hold after optimization
            assert cx_count(oa) <= cx_count(ob), (n, seed)
            checked += 1
    _ok(f"criterion 9: annotations verified under simulation; annotated CX "
        f"<= unannotated CX on {checked}/{checked} seeds")


def test_criterion_10_block_resynthesis():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        c = Circuit(2)
        c.u3(*(float(x) for x in rng.uniform(0, 2 * PI, 3)), 0)
        c.u3(*(float(x) for x in rng.uniform(0, 2 * PI, 3)), 1)
        n_cx = int(rng.integers(2, 5))
        for _ in range(n_cx):
            a, b = (0, 1) if rng.random() < 0.5 else (1, 0)
            c.cx(a, b)
            c.u3(*(float(x) for x in rng.uniform(0, 2 * PI, 3)), 0)
            c.u3(*(float(x) for x in rng.uniform(0, 2 * PI, 3)), 1)
        out = qpo(c, resynth_blocks=True)
        assert cx_count(out) <= 1
        rep = equivalent_up_to_global_phase(c, out)
        assert rep.equivalent and rep.fidelity >= 1 - FID_TOL
    _ok("criterion 10: 100 random blocks (>=2 CX) re-synthesized to <=1 CX "
        "at fidelity >= 1-1e-9")


def test_criterion_11_monotonicity_and_determinism():
    rng = random.Random(1111)
    for _ in range(100):
        c = random_circuit(rng, rng.randrange(2, 6), rng.randrange(5, 40))
        assert cx_count(unroll(qbo(c))) <= cx_count(unroll(c))
        swap_basis = frozenset({GateKind.U1, GateKind.U2, GateKind.U3,
                                GateKind.ID, GateKind.CX, GateKind.SWAP,
                                GateKind.SWAPZ})
        u = unroll(c, swap_basis)
        assert cx_count(unroll(qpo(u))) <= cx_count(unroll(u))

    cmap = line_coupling(6)
    c = random_circuit(rng, 5, 40)
    opts = PipelineOptions(coupling=cmap, seed=99, enable_block_resynth=True)
    texts = {emit_program(pipeline(c, opts)) for _ in range(3)}
    assert len(texts) == 1
    _ok("criterion 11: per-pass CX monotonicity on 100 random circuits; "
        "pipeline output byte-identical across reruns")
