import itertools
import math
import random

import numpy as np
import pytest

from rpoc import (BasisState, Circuit, CouplingMap, GateKind, Instruction,
                  PipelineOptions, cx_count, emit_program,
                  equivalent_up_to_global_phase, line_coupling, grid_coupling,
                  parse_program, pipeline, qbo, qpo, route, simulate,
                  unroll)
from rpoc.passes import (CX_CELLS, SWAP_CELLS, cx_cell_instructions,
                         swap_cell_instructions, resolve_coupling)
from rpoc.synth import (U3Params, cancel_adjacent_cx, matrix_1q, merge_1q_runs,
                        zyz_decompose)
from helpers import BASIS_PREP, TOP_SPAN, random_circuit, random_full_circuit

PI = math.pi
B = BasisState
FIVE = [B.TOP, B.ZERO, B.ONE, B.PLUS, B.MINUS]


def prep_gates(state, wire):
    return [Instruction(k, (wire,)) for k in BASIS_PREP[state]]


def rays_close(a, b, tol=1e-9):
    return abs(abs(np.vdot(a, b)) - 1.0) <= tol


def _inputs_for(state):
    """Initial-gate sequences covering a table wire's assumed input set."""
    if state is B.TOP:
        return TOP_SPAN
    return [BASIS_PREP[state]]


def _check_cell(lhs_gate, replacement, control_state, target_state):
    """Brute-force cell check: for every assumed input the replacement must
    match the original gate on the 2-qubit statevector up to global phase.
    TOP wires range over a 4-state spanning set, which pins phase coherence
    across the whole subspace."""
    for gc in _inputs_for(control_state):
        for gt in _inputs_for(target_state):
            base = Circuit(2)
            for k in gc:
                base.append(Instruction(k, (0,)))
            for k in gt:
                base.append(Instruction(k, (1,)))
            lhs = base.replace(base.instructions + [lhs_gate])
            rhs = base.replace(base.instructions + list(replacement))
            assert rays_close(simulate(lhs), simulate(rhs)), (
                control_state, target_state, gc, gt)


class TestTableCX:
    def test_all_25_cells(self):
        for ctrl, tgt in itertools.product(FIVE, FIVE):
            repl = cx_cell_instructions(ctrl, tgt, 0, 1)
            if repl is None:
                continue  # keep: trivially equivalent
            _check_cell(Instruction(GateKind.CX, (0, 1)), repl, ctrl, tgt)

    def test_cell_structure(self):
        # Spot-check the table shape itself.
        assert cx_cell_instructions(B.ZERO, B.TOP, 0, 1) == []
        assert cx_cell_instructions(B.ONE, B.TOP, 0, 1) == [
            Instruction(GateKind.X, (1,))]
        assert cx_cell_instructions(B.TOP, B.PLUS, 0, 1) == []
        assert cx_cell_instructions(B.TOP, B.MINUS, 0, 1) == [
            Instruction(GateKind.Z, (0,))]
        assert cx_cell_instructions(B.ONE, B.MINUS, 0, 1) == []
        assert cx_cell_instructions(B.TOP, B.TOP, 0, 1) is None
        assert len(CX_CELLS) == 25


class TestTableSWAP:
    def test_all_25_cells(self):
        for top, bot in itertools.product(FIVE, FIVE):
            repl = swap_cell_instructions(top, bot, 0, 1)
            if repl is None:
                continue
            _check_cell(Instruction(GateKind.SWAP, (0, 1)), repl, top, bot)

    def test_cell_structure(self):
        assert len(SWAP_CELLS) == 25
        assert swap_cell_instructions(B.ZERO, B.ZERO, 0, 1) == []
        # One zero input: a swapz designated on the zero wire.
        repl = swap_cell_instructions(B.TOP, B.ZERO, 0, 1)
        assert repl == [Instruction(GateKind.SWAPZ, (0, 1))]
        repl = swap_cell_instructions(B.ZERO, B.TOP, 0, 1)
        assert repl == [Instruction(GateKind.SWAPZ, (1, 0))]
        # Both known: single-qubit fixups only, no two-qubit gate.
        for top, bot in itertools.product(FIVE[1:], FIVE[1:]):
            repl = swap_cell_instructions(top, bot, 0, 1)
            assert all(len(i.qubits) == 1 for i in repl)

    def test_swap_cost_never_exceeds_original(self):
        # 3 CX for unknown/unknown, 2 for one known, 0 for both known.
        for top, bot in itertools.product(FIVE, FIVE):
            repl = swap_cell_instructions(top, bot, 0, 1)
            if repl is None:
                assert top is B.TOP and bot is B.TOP
                continue
            cx_equiv = sum(2 for i in repl if i.kind is GateKind.SWAPZ)
            assert cx_equiv <= (2 if (top is B.TOP) != (bot is B.TOP) else 3)
            if top is not B.TOP and bot is not B.TOP:
                assert cx_equiv == 0


class TestQBO:
    def test_control_one_becomes_x(self):
        c = Circuit(2)
        c.x(0)
        c.cx(0, 1)
        out = qbo(c)
        assert [i.kind for i in out.instructions] == [GateKind.X, GateKind.X]
        assert out.instructions[1].qubits == (1,)

    def test_target_plus_deleted(self):
        c = Circuit(2)
        c.h(1)
        c.cx(0, 1)
        out = qbo(c)
        assert [i.kind for i in out.instructions] == [GateKind.H]

    def test_eigenstate_1q_deleted(self):
        c = Circuit(1)
        c.x(0)
        c.z(0)  # Z|1> = -|1>: removable up to global phase
        c.t(0)
        c.u1(0.37, 0)
        out = qbo(c)
        assert [i.kind for i in out.instructions] == [GateKind.X]
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_gate_fixing_an_off_ray_state_deleted(self):
        # V rotates about the Bloch axis of |psi> = u3(0.7, 0.3, 0)|0>, a
        # state on none of the six rays: qbo tracks psi and drops V, but
        # keeps a rotation about any other axis.
        u = U3Params(0.7, 0.3, 0.0).matrix()
        about_psi = zyz_decompose(u @ matrix_1q(GateKind.T) @ u.conj().T)
        for v, kept in ((about_psi, 1), (U3Params(1.1, 0.0, 0.0), 2)):
            c = Circuit(1)
            c.u3(0.7, 0.3, 0.0, 0)
            c.u3(v.theta, v.phi, v.lam, 0)
            out = qbo(c)
            assert len(out.instructions) == kept
            assert equivalent_up_to_global_phase(c, out).equivalent

    def test_swap_both_zero_deleted(self):
        c = Circuit(2)
        c.swap(0, 1)
        assert qbo(c).instructions == []

    def test_swap_one_unknown_becomes_swapz(self):
        c = Circuit(2)
        c.u3(1.0, 0.4, 0.2, 0)
        c.swap(0, 1)
        out = qbo(c)
        assert out.instructions[-1].kind is GateKind.SWAPZ
        assert out.instructions[-1].qubits == (0, 1)  # zero wire designated
        assert cx_count(unroll(out)) == 2
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_swapz_validation_fallback(self):
        # Zero-designated operand is |1>: decomposed by definition, and the
        # result still simulates identically.
        c = Circuit(2)
        c.x(1)
        c.u3(1.0, 2.0, 3.0, 0)
        c.swapz(0, 1)
        out = qbo(c)
        assert all(i.kind is not GateKind.SWAPZ for i in out.instructions)
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_validated_swapz_improved(self):
        c = Circuit(2)
        c.x(0)
        c.swapz(0, 1)  # zero operand really is |0>: acts as a swap of |1>,|0>
        out = qbo(c)
        assert cx_count(unroll(out)) == 0
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_cz_rules(self):
        c = Circuit(2)
        c.cz(0, 1)
        assert qbo(c).instructions == []
        c = Circuit(2)
        c.x(0)
        c.u3(1.0, 1.0, 1.0, 1)
        c.cz(0, 1)
        out = qbo(c)
        assert [i.kind for i in out.instructions] == [GateKind.X, GateKind.U3,
                                                      GateKind.Z]
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_open_controls_normalized(self):
        c = Circuit(2)
        c.append(Instruction(GateKind.CX, (0, 1), open_mask=(True,)))
        out = qbo(c)  # open control on |0> fires: X on target, X-pair cancels
        assert equivalent_up_to_global_phase(c, out).equivalent
        assert cx_count(out) == 0

    def test_ccx_any_control_zero_deleted(self):
        c = Circuit(3)
        c.u3(1, 1, 1, 0)
        c.h(2)
        c.ccx(0, 1, 2)  # control 1 is |0>
        out = qbo(c)
        assert all(i.kind is not GateKind.CCX for i in out.instructions)
        assert cx_count(unroll(out)) == 0
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_ccx_control_one_drops_to_cx(self):
        c = Circuit(3)
        c.x(0)
        c.u3(1, 1, 1, 1)
        c.u3(2, 1, 0, 2)
        c.ccx(0, 1, 2)
        out = qbo(c)
        assert any(i.kind is GateKind.CX for i in out.instructions)
        assert all(i.kind is not GateKind.CCX for i in out.instructions)
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_ccx_target_minus_becomes_cz(self):
        c = Circuit(3)
        c.u3(1, 1, 1, 0)
        c.u3(2, 1, 0, 1)
        c.x(2)
        c.h(2)
        c.ccx(0, 1, 2)
        out = qbo(c)
        assert any(i.kind is GateKind.CZ for i in out.instructions)
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_mcx_rules(self):
        # 4 controls, one in |1>: that control is dropped.
        c = Circuit(5)
        c.x(0)
        for q in (1, 2, 3):
            c.u3(1, 1, 1, q)
        c.mcx(0, 1, 2, 3, 4)
        out = qbo(c)
        mcx = [i for i in out.instructions if i.kind is GateKind.MCX]
        assert len(mcx) == 1 and mcx[0].qubits == (1, 2, 3, 4)
        assert equivalent_up_to_global_phase(c, out).equivalent

        # 3 controls, one in |1>: drops all the way to a Toffoli.
        c = Circuit(4)
        c.x(0)
        for q in (1, 2):
            c.u3(1, 1, 1, q)
        c.mcx(0, 1, 2, 3)
        out = qbo(c)
        kinds = [i.kind for i in out.instructions]
        assert GateKind.MCX not in kinds and GateKind.CCX in kinds
        assert equivalent_up_to_global_phase(c, out).equivalent

        c = Circuit(4)
        c.mcx(0, 1, 2, 3)  # all controls |0>
        assert qbo(c).instructions == []

    def test_cswap_rules(self):
        c = Circuit(3)
        c.cswap(0, 1, 2)  # control |0>
        assert qbo(c).instructions == []

        c = Circuit(3)
        c.x(0)
        c.u3(1, 1, 1, 1)
        c.cswap(0, 1, 2)  # control |1>: swap with one known-zero -> swapz
        out = qbo(c)
        assert any(i.kind is GateKind.SWAPZ for i in out.instructions)
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_cswap_known_target_decomposed(self):
        c = Circuit(4)
        c.h(0)
        c.cx(0, 3)  # control becomes genuinely unknown
        c.x(1)
        c.u3(1, 1, 1, 2)
        c.cswap(0, 1, 2)
        out = qbo(c)
        assert all(i.kind is not GateKind.CSWAP for i in out.instructions)
        assert equivalent_up_to_global_phase(c, out).equivalent
        # First CX of the decomposition had a |0...> style known input: after
        # unrolling we must not exceed the 8-CX budget of a kept gate.
        assert cx_count(unroll(out)) <= 1 + 8

    def test_cu3_control_rules(self):
        c = Circuit(2)
        c.cu3(1.0, 0.5, 0.25, 0, 1)  # control |0>
        assert qbo(c).instructions == []
        c = Circuit(2)
        c.x(0)
        c.cu3(1.0, 0.5, 0.25, 0, 1)
        out = qbo(c)
        assert [i.kind for i in out.instructions] == [GateKind.X, GateKind.U3]
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_barrier_is_a_fence(self):
        c = Circuit(2)
        c.x(0)
        c.barrier(0, 1)
        c.cx(0, 1)
        out = qbo(c)  # states survive the barrier; rewrite still fires
        assert [i.kind for i in out.instructions] == [
            GateKind.X, GateKind.BARRIER, GateKind.X]

    def test_swap_cells_hold_under_entanglement(self):
        # The unknown wire of a fixup+swapz cell may be entangled with a
        # spectator; the rewrite must still preserve the joint state.
        preps = {"zero": [], "one": ["x"], "plus": ["h"], "minus": ["x", "h"]}
        for name, gates in preps.items():
            for orient in (0, 1):
                c = Circuit(3)
                c.h(2)
                c.cx(2, 0)
                c.t(0)
                for g in gates:
                    getattr(c, g)(1)
                c.swap(0, 1) if orient == 0 else c.swap(1, 0)
                out = qbo(c)
                assert equivalent_up_to_global_phase(c, out).equivalent, name
                assert cx_count(unroll(out)) == 1 + 2, (name, orient)

    def test_annotations_enable_strict_wins(self):
        from rpoc import gen_grover
        cmap = line_coupling(15)
        strict = 0
        with_a = gen_grover(4, 11, 2, use_ancilla=True, annotate=True)
        without = gen_grover(4, 11, 2, use_ancilla=True, annotate=False)
        for seed in range(5):
            ca = cx_count(pipeline(with_a, PipelineOptions(coupling=cmap,
                                                           seed=seed)))
            cb = cx_count(pipeline(without, PipelineOptions(coupling=cmap,
                                                            seed=seed)))
            assert ca <= cb
            if ca < cb:
                strict += 1
        assert strict >= 1  # the annotation path must actually pay off

    def test_y_basis_precision_survives_swap_cell(self):
        # Wire 0 carries |+i> (outside the X/Z table, looked up as unknown);
        # the (unknown, |0>) cell swaps tracked entries, so the Y-basis fact
        # migrates to wire 1 and the Y gate there is still recognized as a
        # fixed ray and removed.
        c = Circuit(2)
        c.h(0)
        c.s(0)       # |+i>
        c.swap(0, 1)
        c.y(1)       # Y-eigenstate after the swap
        out = qbo(c)
        assert all(i.kind is not GateKind.Y for i in out.instructions)
        assert any(i.kind is GateKind.SWAPZ for i in out.instructions)
        assert equivalent_up_to_global_phase(c, out).equivalent

        # The (|1>, unknown) and (|->, unknown) cells put an X or Z fixup on
        # the wire read as unknown; the SWAP must still carry the Y state
        # itself, not its fixed-up opposite.  After `s` the receiving wire
        # is |-> or |+>, so the CX from a third wire becomes a Z kickback
        # or vanishes.
        known_prep = {"1": ("x",), "-": ("x", "h")}
        y_prep = {"+i": ("h", "s"), "-i": ("h", "sdg")}
        for (kn, kg), (yn, yg), y_wire in itertools.product(
                known_prep.items(), y_prep.items(), (0, 1)):
            c = Circuit(3)
            for g in yg:
                getattr(c, g)(y_wire)
            for g in kg:
                getattr(c, g)(1 - y_wire)
            c.swap(0, 1)
            c.s(1 - y_wire)
            c.u3(1.0, 0.0, 0.0, 2)
            c.cx(2, 1 - y_wire)
            out = qbo(c)
            case = (kn, yn, y_wire)
            assert equivalent_up_to_global_phase(c, out).equivalent, case
            assert cx_count(unroll(out)) == 2, case

    def test_bv_conversion(self):
        from rpoc import gen_bv
        bv = gen_bv(4, "1011", "boolean")
        out = qbo(bv)
        assert cx_count(out) == 0
        assert sum(1 for i in out.instructions if i.kind is GateKind.Z) == 3
        assert simulate(out) == simulate(bv)

    def test_cx_monotone_on_random_corpus(self):
        rng = random.Random(1234)
        for _ in range(60):
            c = random_circuit(rng, rng.randrange(2, 6), rng.randrange(5, 40))
            out = qbo(c)
            assert cx_count(unroll(out)) <= cx_count(unroll(c))
            assert equivalent_up_to_global_phase(c, out).equivalent

    def test_idempotent_on_fixpoints(self):
        rng = random.Random(77)
        for _ in range(20):
            c = random_circuit(rng, 4, 20)
            once = qbo(c)
            twice = qbo(once)
            assert cx_count(unroll(twice)) <= cx_count(unroll(once))
            assert equivalent_up_to_global_phase(once, twice).equivalent


class TestQPO:
    def test_swap_one_known_layout(self):
        # Unknown wire 0 (entangled with wire 2), known pure wire 1.
        th, ph = 1.1, 0.7
        c = Circuit(3)
        c.u3(0.4, 0.3, 0.0, 2)
        c.cx(2, 0)
        c.u3(th, ph, 0.0, 1)
        c.swap(0, 1)
        out = qpo(c)
        kinds = [i.kind for i in out.instructions]
        assert GateKind.SWAP not in kinds
        sz = [i for i in out.instructions if i.kind is GateKind.SWAPZ]
        assert len(sz) == 1 and sz[0].qubits == (0, 1)  # zero on the pure wire
        # Re-preparation u3 lands on the opposite wire, after the swapz.
        assert out.instructions[-1].qubits == (0,)
        assert cx_count(unroll(out)) == 1 + 2  # entangler + swapz
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_swap_both_known_equal_states_deleted(self):
        c = Circuit(2)
        c.h(0)
        c.h(1)
        c.swap(0, 1)
        out = qpo(c)
        assert len(out.instructions) == 2  # the two H gates only
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_swap_both_known_general(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = Circuit(2)
            c.u3(*rng.uniform(0, 2 * PI, 3), 0)
            c.u3(*rng.uniform(0, 2 * PI, 3), 1)
            c.swap(0, 1)
            out = qpo(c)
            assert cx_count(unroll(out)) == 0
            assert equivalent_up_to_global_phase(c, out).equivalent

    def test_swapz_with_known_partner_removed(self):
        c = Circuit(2)
        c.u3(1.3, 0.4, 0.0, 0)
        c.swapz(0, 1)
        out = qpo(c)
        assert cx_count(unroll(out)) == 0
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_cswap_known_targets(self):
        c = Circuit(3)
        c.h(0)
        c.u3(0.7, 0.3, 0.0, 1)
        c.u3(1.9, 2.5, 0.0, 2)
        c.cswap(0, 1, 2)
        out = qpo(c)
        cu = [i for i in out.instructions if i.kind is GateKind.CU3]
        assert len(cu) == 2
        assert cx_count(unroll(out)) <= 4
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_cswap_identical_targets_deleted(self):
        c = Circuit(3)
        c.h(0)
        c.u3(1.0, 2.0, 0.0, 1)
        c.u3(1.0, 2.0, 0.0, 2)
        c.cswap(0, 1, 2)
        out = qpo(c)
        assert all(i.kind not in (GateKind.CSWAP, GateKind.CU3)
                   for i in out.instructions)
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_block_resynthesis(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            c = Circuit(2)
            c.u3(*rng.uniform(0, 2 * PI, 3), 0)
            c.u3(*rng.uniform(0, 2 * PI, 3), 1)
            for _ in range(3):
                c.cx(0, 1)
                c.u3(*rng.uniform(0, 2 * PI, 3), 0)
                c.u3(*rng.uniform(0, 2 * PI, 3), 1)
            out = qpo(c, resynth_blocks=True)
            assert cx_count(out) <= 1
            rep = equivalent_up_to_global_phase(c, out)
            assert rep.equivalent and rep.fidelity >= 1 - 1e-9

    def test_block_skipped_without_flag(self):
        c = Circuit(2)
        c.cx(0, 1)
        c.cx(0, 1)
        out = qpo(c, resynth_blocks=False)
        assert cx_count(out) == 2

    def test_block_broken_by_barrier(self):
        c = Circuit(2)
        c.cx(0, 1)
        c.barrier(0, 1)
        c.cx(0, 1)
        out = qpo(c, resynth_blocks=True)
        assert cx_count(out) == 2  # fence: no merge across the barrier

    def test_block_absorbs_disjoint_spectators(self):
        rng = np.random.default_rng(10)
        c = Circuit(3)
        c.cx(0, 1)
        c.u3(*rng.uniform(0, 2 * PI, 3), 2)  # spectator on wire 2
        c.cx(0, 1)
        out = qpo(c, resynth_blocks=True)
        assert cx_count(out) <= 1
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_cx_monotone_on_random_corpus(self):
        rng = random.Random(4321)
        for _ in range(40):
            c = random_circuit(rng, rng.randrange(2, 6), rng.randrange(5, 40))
            base = unroll(c, frozenset(
                {GateKind.U1, GateKind.U2, GateKind.U3, GateKind.ID,
                 GateKind.CX, GateKind.SWAP, GateKind.SWAPZ}))
            for blocks in (False, True):
                out = qpo(base, resynth_blocks=blocks)
                assert cx_count(unroll(out)) <= cx_count(unroll(base))
                assert equivalent_up_to_global_phase(c, out).equivalent


class TestCouplingMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            CouplingMap(3, [(0, 0)])
        with pytest.raises(ValueError):
            CouplingMap(3, [(0, 5)])
        with pytest.raises(ValueError):
            CouplingMap(4, [(0, 1), (2, 3)])  # disconnected

    def test_builtins(self):
        assert resolve_coupling("line5").n_physical == 5
        assert resolve_coupling("line15").n_physical == 15
        g = resolve_coupling("grid4x5")
        assert g.n_physical == 20
        assert g.adjacent(0, 5) and g.adjacent(0, 1) and not g.adjacent(0, 6)

    def test_from_json(self, tmp_path):
        p = tmp_path / "map.json"
        p.write_text('{"n": 3, "edges": [[0,1],[1,2]]}')
        m = resolve_coupling(str(p))
        assert m.n_physical == 3 and m.adjacent(1, 2)

    def test_shortest_path(self):
        m = line_coupling(5)
        rng = random.Random(0)
        assert m.shortest_path(0, 4, rng) == [0, 1, 2, 3, 4]


class TestRoute:
    def test_distance_two_line(self):
        c = Circuit(3)
        c.cx(0, 2)
        routed, layout = route(c, line_coupling(3), seed=0)
        kinds = [(i.kind, i.qubits) for i in routed.instructions]
        assert kinds == [(GateKind.SWAP, (0, 1)), (GateKind.CX, (1, 2))]
        assert layout == [1, 0, 2]
        assert equivalent_up_to_global_phase(c, routed, perm=layout).equivalent

    def test_adjacent_unchanged(self):
        c = Circuit(2)
        c.cx(0, 1)
        routed, layout = route(c, line_coupling(2), seed=0)
        assert routed.instructions == c.instructions
        assert layout == [0, 1]

    def test_all_gates_on_edges(self):
        rng = random.Random(5)
        cmap = line_coupling(5)
        for seed in range(10):
            c = random_circuit(rng, 5, 40)
            c = unroll(c)
            routed, layout = route(c, cmap, seed=seed)
            for inst in routed.instructions:
                if len(inst.qubits) == 2:
                    assert cmap.adjacent(*inst.qubits)
            assert equivalent_up_to_global_phase(c, routed,
                                                 perm=layout).equivalent

    def test_random_layout_mode(self):
        c = Circuit(3)
        c.x(0)
        routed, layout = route(c, line_coupling(5), seed=3, random_layout=True)
        assert routed.instructions[0].qubits == (layout[0],)
        assert equivalent_up_to_global_phase(c, routed, perm=layout).equivalent

    def test_multiqubit_gate_rejected(self):
        c = Circuit(3)
        c.ccx(0, 1, 2)
        with pytest.raises(ValueError):
            route(c, line_coupling(3), seed=0)

    def test_width_overflow(self):
        with pytest.raises(ValueError):
            route(Circuit(4), line_coupling(3), seed=0)

    def test_deterministic(self):
        rng = random.Random(6)
        c = unroll(random_circuit(rng, 5, 30))
        a, la = route(c, grid_coupling(2, 3), seed=9)
        b, lb = route(c, grid_coupling(2, 3), seed=9)
        assert a == b and la == lb


class TestPipeline:
    def test_bv_goes_to_zero_cx(self):
        from rpoc import gen_bv
        out = pipeline(gen_bv(4, "1011", "boolean"))
        assert cx_count(out) == 0
        assert simulate(out) == {"1011": pytest.approx(1.0)}

    def test_deterministic_output_text(self):
        rng = random.Random(8)
        c = random_circuit(rng, 4, 30)
        opts = PipelineOptions(coupling=line_coupling(5), seed=13)
        a = emit_program(pipeline(c, opts))
        b = emit_program(pipeline(c, opts))
        assert a == b

    def test_flags_disable_passes(self):
        c = Circuit(2)
        c.x(0)
        c.cx(0, 1)
        base = pipeline(c, PipelineOptions(enable_qbo=False, enable_qpo=False))
        assert cx_count(base) == 1
        opt = pipeline(c)
        assert cx_count(opt) == 0

    def test_output_respects_coupling(self):
        rng = random.Random(9)
        cmap = grid_coupling(2, 3)
        for seed in range(5):
            c = random_circuit(rng, 5, 30)
            out = pipeline(c, PipelineOptions(coupling=cmap, seed=seed))
            for inst in out.instructions:
                if len(inst.qubits) == 2:
                    assert cmap.adjacent(*inst.qubits)

    def test_unrolled_output_kinds(self):
        rng = random.Random(10)
        c = random_circuit(rng, 4, 30)
        out = pipeline(c)
        allowed = {GateKind.U1, GateKind.U2, GateKind.U3, GateKind.ID,
                   GateKind.CX, GateKind.RESET, GateKind.ANNOT,
                   GateKind.MEASURE, GateKind.BARRIER}
        assert all(i.kind in allowed for i in out.instructions)

    def test_equivalence_random_corpus(self):
        rng = random.Random(11)
        for i in range(30):
            c = random_circuit(rng, rng.randrange(2, 6), rng.randrange(5, 40))
            out = pipeline(c, PipelineOptions(
                enable_block_resynth=bool(i % 2)))
            rep = equivalent_up_to_global_phase(c, out)
            assert rep.equivalent, emit_program(c)

    def test_equivalence_with_coupling(self):
        rng = random.Random(12)
        cmap = line_coupling(6)
        for seed in range(10):
            c = random_circuit(rng, 4, 25)
            out = pipeline(c, PipelineOptions(coupling=cmap, seed=seed))
            rep = equivalent_up_to_global_phase(c, out, perm=out.layout)
            assert rep.equivalent, emit_program(c)

    def test_never_worse_than_baseline(self):
        rng = random.Random(13)
        cmap = line_coupling(6)
        for seed in range(15):
            c = random_circuit(rng, 4, 30)
            rpo = pipeline(c, PipelineOptions(coupling=cmap, seed=seed))
            base = pipeline(c, PipelineOptions(coupling=cmap, seed=seed,
                                               enable_qbo=False,
                                               enable_qpo=False))
            assert cx_count(rpo) <= cx_count(base)

    def test_equivalence_with_resets(self):
        rng = random.Random(14)
        found = 0
        for _ in range(80):
            c = random_circuit(rng, 4, 25, allow_reset=True)
            if not any(i.kind is GateKind.RESET for i in c.instructions):
                continue
            found += 1
            out = pipeline(c)
            assert equivalent_up_to_global_phase(c, out).equivalent
        assert found >= 5  # the corpus really exercised the reset path

    def test_y_basis_swap_cell_repro(self):
        # The SWAP cell for (|+i>, |1>) emits X then SWAPZ; the wire that
        # receives |+i> holds |-> after `s`, so the final CX is a kickback.
        c = parse_program("qreg q[3]; u2(pi/2,0) q[0]; x q[1]; "
                          "swap q[0],q[1]; s q[1]; u3(1,0,0) q[2]; "
                          "cx q[2],q[1];")
        base = pipeline(c, PipelineOptions(enable_qbo=False, enable_qpo=False))
        out = pipeline(c, PipelineOptions())
        assert equivalent_up_to_global_phase(c, out).equivalent
        assert (cx_count(base), cx_count(out)) == (4, 2)

    def test_cleanup_cancels_nested_pairs(self):
        # Each cleanup round merges the innermost u3(a_k), u3(-a_k) pair away
        # and exposes one more adjacent CX pair: 60 rounds to empty.
        angles = [0.1 + 0.01 * k for k in range(60)]
        c = Circuit(2)
        for a in angles:
            c.cx(0, 1)
            c.u3(a, 0, 0, 0)
        for a in reversed(angles):
            c.u3(-a, 0, 0, 0)
            c.cx(0, 1)
        out = pipeline(c, PipelineOptions(enable_qbo=False, enable_qpo=False))
        assert equivalent_up_to_global_phase(c, out).equivalent
        assert cx_count(out) == 0

    def test_qbo_tracks_rotations_that_return_to_a_ray(self):
        # The u3 pair leaves the control on |0> again, so qbo removes the
        # second CX too and rpo emits no more CX than the baseline.
        c = parse_program("qreg q[2]; cx q[0],q[1]; u3(0.3,0,0) q[0]; "
                          "u3(-0.3,0,0) q[0]; cx q[0],q[1];")
        assert cx_count(qbo(c)) == 0
        for opts in (PipelineOptions(), PipelineOptions(enable_qbo=False,
                                                        enable_qpo=False),
                     PipelineOptions(enable_block_resynth=True)):
            out = pipeline(c, opts)
            assert equivalent_up_to_global_phase(c, out).equivalent
            assert cx_count(out) == 0, opts

    def test_output_is_cleanup_fixpoint(self):
        from rpoc import gen_bv, gen_grover, gen_qpe, gen_qv_like, gen_vqe_ry
        rng = random.Random(15)
        circuits = [gen_bv(4, "1011", "boolean"), gen_qpe(3, 7 / 8),
                    gen_grover(3, 5, 2),
                    gen_grover(4, 11, 1, use_ancilla=True, annotate=True),
                    gen_vqe_ry(4, 2, [0.3 * k for k in range(12)]),
                    gen_qv_like(4, 4, seed=1)]
        circuits += [random_circuit(rng, 4, 30) for _ in range(6)]
        for c in circuits:
            for cmap in (None, line_coupling(5)):
                for on_qbo, on_qpo in itertools.product((False, True), repeat=2):
                    out = pipeline(c, PipelineOptions(
                        coupling=cmap, enable_qbo=on_qbo, enable_qpo=on_qpo))
                    again = cancel_adjacent_cx(merge_1q_runs(out))
                    assert again.instructions == out.instructions, (
                        emit_program(c), cmap, on_qbo, on_qpo)

    def test_pass_outputs_are_canonical(self, monkeypatch):
        # Passes build instructions unchecked; each one must equal its
        # checked rebuild, with int qubits and float angles, in range.
        from rpoc import gen_bv, gen_grover, gen_qpe, gen_qv_like, gen_vqe_ry
        from rpoc import passes

        def check(c, where):
            for inst in c.instructions:
                assert inst == Instruction(inst.kind, inst.qubits, inst.params,
                                           inst.clbits, inst.open_mask), where
                assert all(type(q) is int for q in inst.qubits + inst.clbits), where
                assert all(type(p) is float for p in inst.params), where
                assert all(0 <= q < c.n_qubits for q in inst.qubits), where
                assert all(0 <= b < c.n_clbits for b in inst.clbits), where

        def checked(name):
            fn = getattr(passes, name)

            def run(*args, **kwargs):
                res = fn(*args, **kwargs)
                check(res[0] if name == "route" else res, name)
                return res
            return run

        for name in ("qbo", "qpo", "route", "unroll", "merge_1q_runs",
                     "cancel_adjacent_cx"):
            monkeypatch.setattr(passes, name, checked(name))
        rng = random.Random(16)
        circuits = [gen_bv(4, "1011", "boolean"), gen_qpe(3, 7 / 8),
                    gen_grover(3, 5, 2),
                    gen_grover(4, 11, 1, use_ancilla=True, annotate=True),
                    gen_vqe_ry(4, 2, [0.3 * k for k in range(12)]),
                    gen_qv_like(4, 4, seed=1)]
        circuits += [random_full_circuit(rng, 4, 30, measure=k % 2 == 1)
                     for k in range(6)]
        for i, c in enumerate(circuits):
            for cmap in (None, line_coupling(5)):
                for on in itertools.product((False, True), repeat=3):
                    out = pipeline(c, PipelineOptions(
                        coupling=cmap, seed=i, random_layout=True,
                        enable_qbo=on[0], enable_qpo=on[1],
                        enable_block_resynth=on[2]))
                    check(out, (emit_program(c), cmap, on))

    def test_measured_circuit_with_coupling(self):
        c = Circuit(3, 3)
        c.h(0)
        c.cx(0, 2)
        c.cx(0, 1)
        for q in range(3):
            c.measure(q, q)
        out = pipeline(c, PipelineOptions(coupling=line_coupling(5), seed=2))
        assert equivalent_up_to_global_phase(c, out).equivalent
