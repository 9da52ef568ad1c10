import functools
import gc
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpoc import (Circuit, CouplingMap, GateKind, Instruction,
                  PipelineOptions, cx_count, emit_program, gen_grover,
                  equivalent_up_to_global_phase, line_coupling, grid_coupling,
                  parse_program, pipeline, qbo, qpo, route, unroll)
from rpoc import passes, synth
from rpoc.analysis import BasisState
from rpoc.passes import resolve_coupling
from rpoc.synth import (DEFAULT_BASIS, U3Params, cancel_adjacent_cx,
                        merge_1q_runs, zyz_decompose)
from helpers import (BASIS_PREP, JOINED_IDENTITY_RUNS, nested_cx_pairs,
                     random_circuit, random_circuits, random_full_circuit,
                     ray_vector, ref_matrix_1q, spy_calls,
                     swap_operand_off_ray)

PI = math.pi
B = BasisState


def _cx(c):
    return cx_count(unroll(c))


# qpo's rotations split the SWAP pair that the baseline's adjacent-CX
# cleanup cancels: baseline 2 CX, rpo 4 (perfbench's ITEM4_REPRO).
SPLIT_SWAP_PAIR = """\
qreg q[2];
u3(4.814499294461411,4.938681377419053,0.08610039599769347) q[1];
swap q[1],q[0];
swapz q[1],q[0];
swap q[1],q[0];
"""


class TestTableCX:
    """The paper's CX table, realized by qbo's multi-controlled-X rule.
    Acceptance criterion 1 checks every cell on every input class."""

    def test_cell_structure(self):
        def rewrite(prep):
            out = qbo(parse_program(f"qreg q[2]; {prep} cx q[0],q[1];"))
            return [(i.kind, i.qubits) for i in out.instructions]
        K = GateKind
        assert rewrite("") == []                                  # ctrl |0>
        assert rewrite("x q[0];") == [(K.X, (0,)), (K.X, (1,))]   # ctrl |1>
        assert rewrite("h q[1];") == [(K.H, (1,))]                # tgt |+>
        # Target |->: phase kickback onto the control.
        assert rewrite("h q[0]; x q[1]; h q[1];") == [
            (K.H, (0,)), (K.X, (1,)), (K.H, (1,)), (K.Z, (0,))]
        assert rewrite("h q[0];")[-1] == (K.CX, (0, 1))           # kept


class TestTableSWAP:
    """The paper's SWAP table, realized by the SWAP rule on ray states.
    Acceptance criterion 2 checks every cell on every input class."""

    def test_cell_structure(self):
        def kinds(prep):
            out = qbo(parse_program(f"qreg q[2]; {prep} swap q[0],q[1];"))
            return [(i.kind, i.qubits) for i in out.instructions
                    if len(i.qubits) == 2]
        top = "u3(1.1,0.4,0) q[0];"  # off every ray: read as TOP
        assert kinds("") == []
        # One |0> input: a swapz designated on the zero wire.
        assert kinds(top) == [(GateKind.SWAPZ, (0, 1))]
        assert kinds("u3(1.1,0.4,0) q[1];") == [(GateKind.SWAPZ, (1, 0))]
        # Any other known ray: rotated to |0> first, then the same swapz.
        assert kinds(top + " h q[1];") == [(GateKind.SWAPZ, (0, 1))]
        # Both known, Y rays included: single-qubit gates only.
        assert kinds("h q[0]; s q[0]; x q[1];") == []


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
        about_psi = zyz_decompose(u @ ref_matrix_1q(GateKind.T) @ u.conj().T)
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

    @pytest.mark.parametrize("k, cx_in, cx_out", [(3, 14, 6), (4, 30, 14)])
    def test_mcx_target_minus_kicks_back(self, k, cx_in, cx_out):
        # k >= 3 controls on |+>, target on |->: the kickback is a
        # k-controlled Z among the controls, written as H on the last one
        # around a C^(k-1)X onto it.
        c = parse_program(
            f"qreg q[{k + 1}];"
            + "".join(f" h q[{q}];" for q in range(k))
            + f" x q[{k}]; h q[{k}]; mcx "
            + ",".join(f"q[{q}]" for q in range(k + 1)) + ";")
        out = qbo(c)
        h = Instruction(GateKind.H, (k - 1,))
        kind = GateKind.CCX if k == 3 else GateKind.MCX
        assert out.instructions[-3:] == [
            h, Instruction(kind, tuple(range(k))), h]
        assert equivalent_up_to_global_phase(c, out).equivalent
        assert (cx_count(unroll(c)), cx_count(unroll(out))) == (cx_in, cx_out)

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

        # Off-ray pure targets under a TOP control and under each equator
        # ray: the Fredkin rule, two controlled-u3 gates.
        rng = np.random.default_rng(23)
        controls = [[GateKind.H, GateKind.T]] + [
            BASIS_PREP[r] for r in (B.PLUS, B.MINUS, B.PLUS_I, B.MINUS_I)]
        for prep in controls:
            for _ in range(5):
                c = Circuit(3)
                for k in prep:
                    c.append(Instruction(k, (0,)))
                c.u3(rng.uniform(0.2, PI - 0.2), rng.uniform(0, 2 * PI), 0.0, 1)
                c.u3(rng.uniform(0.2, PI - 0.2), rng.uniform(0, 2 * PI), 0.0, 2)
                c.cswap(0, 1, 2)
                out = qbo(c)
                tail = out.instructions[len(c) - 1:]
                assert [i.kind for i in tail] == [GateKind.CU3] * 2, prep
                assert equivalent_up_to_global_phase(c, out).equivalent, prep

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

    def test_cswap_known_pure_targets(self):
        c = Circuit(3)
        c.h(0)
        c.u3(0.7, 0.3, 0.0, 1)
        c.u3(1.9, 2.5, 0.0, 2)
        c.cswap(0, 1, 2)
        out = qbo(c)
        cu = [i for i in out.instructions if i.kind is GateKind.CU3]
        assert len(cu) == 2
        assert cx_count(unroll(out)) <= 4
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_cswap_identical_pure_targets_deleted(self):
        c = Circuit(3)
        c.h(0)
        c.u3(1.0, 2.0, 0.0, 1)
        c.u3(1.0, 2.0, 0.0, 2)
        c.cswap(0, 1, 2)
        out = qbo(c)
        assert all(i.kind not in (GateKind.CSWAP, GateKind.CU3)
                   for i in out.instructions)
        assert equivalent_up_to_global_phase(c, out).equivalent

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

    # Per target ray, u3 params it is an eigenstate of: diagonal ones (a u1
    # and a theta-0 u3) on |0>, where the phase is 0, and |1>; X or Y and a
    # rotation about the ray's axis on the equator.
    KICKBACK_U3 = {
        B.ZERO: [(0.0, 0.0, 0.9), (0.0, 0.3, 0.9)],
        B.ONE: [(0.0, 0.0, 0.9), (0.0, 0.3, 0.9)],
        B.PLUS: [(PI, 0.0, PI), (0.7, -PI / 2, PI / 2)],
        B.MINUS: [(PI, 0.0, PI), (0.7, -PI / 2, PI / 2)],
        B.PLUS_I: [(PI, PI / 2, PI / 2), (0.7, 0.0, 0.0)],
        B.MINUS_I: [(PI, PI / 2, PI / 2), (0.7, 0.0, 0.0)],
    }
    # The control entangled with wire 2 (TOP), or known off the rays.
    CONTROLS = {"top": "h q[2]; cx q[2],q[0];",
                "off_ray": "u3(1.1,0.4,0) q[0];"}

    def _cu3(self, control, target_prep, params):
        return parse_program(f"qreg q[3]; {self.CONTROLS[control]} "
                             f"{target_prep} cu3({params[0]},{params[1]},"
                             f"{params[2]}) q[0],q[1];")

    @pytest.mark.parametrize("ray", list(KICKBACK_U3), ids=lambda r: r.name)
    @pytest.mark.parametrize("control", list(CONTROLS))
    def test_cu3_target_eigenstate_kicks_back(self, control, ray):
        # The cu3 becomes u1(arg <s|U|s>) on the control, or nothing when
        # that phase is 0.
        target = " ".join(f"{k.value} q[1];" for k in BASIS_PREP[ray])
        for params in self.KICKBACK_U3[ray]:
            c = self._cu3(control, target, params)
            v, u = ray_vector(ray), ref_matrix_1q(GateKind.U3, params)
            phase = np.angle(np.vdot(v, u @ v))
            out = qbo(c)
            prep = c.instructions[:-1]
            assert out.instructions[:len(prep)] == prep
            tail = out.instructions[len(prep):]
            if abs(phase) < 1e-9:
                assert tail == [], (params, tail)
            else:
                assert [(i.kind, i.qubits) for i in tail] == [
                    (GateKind.U1, (0,))], (params, tail)
                assert math.isclose(tail[0].params[0] % (2 * PI),
                                    phase % (2 * PI), abs_tol=1e-9), params
            assert equivalent_up_to_global_phase(c, out).equivalent, params

    @pytest.mark.parametrize("control", list(CONTROLS))
    def test_cu3_kept_unless_target_is_a_ray_eigenstate(self, control):
        # Ray targets the u3 moves, and an eigenstate of the u3 off the rays:
        # the rule reads rays only, so it stays inside qbo's ablation.
        u = U3Params(0.7, 0.3, 0.0).matrix()
        v = zyz_decompose(u @ ref_matrix_1q(GateKind.T) @ u.conj().T)
        cases = [("h q[1];", (0.0, 0.0, 0.9)), ("", (PI, 0.0, PI)),
                 ("h q[1]; s q[1];", (0.7, -PI / 2, PI / 2)),
                 ("x q[1];", (0.3, 0.0, 0.0)),
                 ("u3(0.7,0.3,0) q[1];", (v.theta, v.phi, v.lam))]
        for target_prep, params in cases:
            c = self._cu3(control, target_prep, params)
            out = qbo(c)
            assert out.instructions[-1].kind is GateKind.CU3, target_prep
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
        # Wire 0 carries |+i>, a ray like any other: the SWAP with |0>
        # becomes two local rotations, the Y-basis fact migrates to wire 1,
        # and the Y gate there is recognized as fixing it and removed.
        c = Circuit(2)
        c.h(0)
        c.s(0)       # |+i>
        c.swap(0, 1)
        c.y(1)       # Y-eigenstate after the swap
        out = qbo(c)
        assert all(i.kind is not GateKind.Y for i in out.instructions)
        assert all(len(i.qubits) == 1 for i in out.instructions)
        assert equivalent_up_to_global_phase(c, out).equivalent

        # A SWAP of a Y ray with |1> or |->: the SWAP must carry the Y state
        # itself, not some fixed-up opposite.  After `s` the receiving wire
        # is |-> or |+>, so the CX from a third wire becomes a Z kickback
        # or vanishes, and the SWAP costs nothing.
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
            assert cx_count(unroll(out)) == 0, case


class TestRewritePassesAddNoCX:
    """qbo, qpo and qpo with block resynthesis each return a circuit that is
    oracle-equivalent to their input and has no more CX once unrolled, on
    `helpers.random_circuits` as drawn, unrolled to the basis with SWAP and
    SWAPZ kept (the form the pipeline passes on), or so unrolled and routed
    on line6.  This is the one check of per-pass CX monotonicity, and the
    one of `route` alone: each two-qubit gate on a map edge, and the routed
    circuit equivalent through its layout."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(c=random_circuits(), form=st.sampled_from(["raw", "unrolled",
                                                      "routed"]),
           seed=st.integers(0, 2 ** 16))
    def test_no_rewrite_pass_adds_cx(self, c, form, seed):
        if form != "raw":
            c = unroll(c, DEFAULT_BASIS | {GateKind.SWAP, GateKind.SWAPZ})
        if form == "routed":
            line6 = line_coupling(6)
            c, layout = route(unrouted := c, line6, seed)
            assert all(line6.adjacent(*i.qubits) for i in c.instructions
                       if len(i.qubits) == 2
                       and i.kind is not GateKind.BARRIER)
            assert equivalent_up_to_global_phase(unrouted, c,
                                                 perm=layout).equivalent
        before = cx_count(unroll(c))
        for rewrite in (qbo, qpo, functools.partial(qpo, resynth_blocks=True)):
            out = rewrite(c)
            assert cx_count(unroll(out)) <= before, rewrite
            assert equivalent_up_to_global_phase(c, out).equivalent, rewrite


# One gate of each multi-qubit kind on wires 0..k-1, and a closed-control
# twin of each open-control one.
_MULTI = {
    "cx": Instruction(GateKind.CX, (0, 1)),
    "cz": Instruction(GateKind.CZ, (0, 1)),
    "ccx": Instruction(GateKind.CCX, (0, 1, 2)),
    "mcx": Instruction(GateKind.MCX, (0, 1, 2, 3)),
    "cswap": Instruction(GateKind.CSWAP, (0, 1, 2)),
    "cu3": Instruction(GateKind.CU3, (0, 1), (0.3, 0.2, 0.1)),
    "swap": Instruction(GateKind.SWAP, (0, 1)),
    "barrier": Instruction(GateKind.BARRIER, (0, 1, 2)),
}


def _unknown_operands(inst: Instruction) -> Circuit:
    """`inst` after a prep that entangles each operand with an ancilla, so
    every operand's tracked state is TOP when it runs."""
    k = len(inst.qubits)
    c = Circuit(2 * k)
    for q in range(k):
        c.h(k + q)
        c.cx(k + q, q)
    return c.extend([inst])


class TestUnknownOperands:
    """qbo and qpo keep a gate whose operands are all TOP as it is, without
    asking a rule: no rule of either pass fires on such a gate, and TOP
    absorbs every kind but RESET and ANNOT.  qbo's two exceptions, open
    controls and an unvalidated SWAPZ, are rewritten whatever the states."""

    @pytest.mark.parametrize("name", list(_MULTI))
    def test_no_rule_fires(self, name):
        inst = _MULTI[name]
        assert passes._qbo_rule(inst, [None] * len(inst.qubits)) is None
        if inst.kind is GateKind.SWAP:
            assert passes.swap_rule(None, None, *inst.qubits) == [inst]

    @pytest.mark.parametrize("rewrite", [qbo, qpo], ids=["qbo", "qpo"])
    @pytest.mark.parametrize("name", list(_MULTI))
    def test_kept_as_it_is(self, name, rewrite):
        c = _unknown_operands(_MULTI[name])
        out = rewrite(c)
        assert out.instructions == c.instructions
        assert out.instructions[-1] is c.instructions[-1]

    @pytest.mark.parametrize("rewrite", [qbo, qpo], ids=["qbo", "qpo"])
    def test_reset_and_annot_restate_an_unknown_wire(self, rewrite):
        # RESET (|0>) or ANNOT (|1>) makes TOP wire 0 known, so its SWAP
        # with TOP wire 1 becomes a SWAPZ: one CX fewer.
        for restate in (Instruction(GateKind.RESET, (0,)),
                        Instruction(GateKind.ANNOT, (0,), (PI, 0.0))):
            c = _unknown_operands(Instruction(GateKind.SWAP, (0, 1)))
            c.instructions.insert(-1, restate)
            assert _cx(rewrite(c)) == _cx(c) - 1, restate.kind

    def test_qpo_keeps_open_controls_and_swapz(self):
        for inst in (Instruction(GateKind.CX, (0, 1), open_mask=(True,)),
                     Instruction(GateKind.SWAPZ, (0, 1))):
            c = _unknown_operands(inst)
            assert qpo(c).instructions == c.instructions

    def test_qbo_rewrites_open_controls(self):
        c = _unknown_operands(
            Instruction(GateKind.CCX, (0, 1, 2), open_mask=(True, False)))
        tail = qbo(c).instructions[len(c) - 1:]
        assert tail == [Instruction(GateKind.X, (0,)),
                        Instruction(GateKind.CCX, (0, 1, 2)),
                        Instruction(GateKind.X, (0,))]
        assert equivalent_up_to_global_phase(c, qbo(c)).equivalent

    def test_qbo_rewrites_unvalidated_swapz(self):
        c = _unknown_operands(Instruction(GateKind.SWAPZ, (0, 1)))
        out = qbo(c)
        tail = out.instructions[len(c) - 1:]
        assert {i.kind for i in tail} == {GateKind.CX}
        assert cx_count(out) == cx_count(c) + 2
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_qbo_asks_rules_only_with_a_known_operand(self, monkeypatch):
        # Routed grover6: after its first entangling gates nearly every
        # operand is TOP; the rule must not see such a gate, but must still
        # see the ones with a known operand.
        c, _ = route(unroll(gen_grover(6, 37, 6)), line_coupling(15), seed=0)
        seen = []
        rule = passes._qbo_rule

        def spy(inst, states, *ray):
            seen.append(any(states[q] is not None for q in inst.qubits))
            return rule(inst, states, *ray)

        monkeypatch.setattr(passes, "_qbo_rule", spy)
        out = qbo(c)
        assert seen and all(seen)
        multi = sum(len(i.qubits) > 1 for i in c.instructions)
        assert len(seen) < multi // 10
        monkeypatch.undo()
        assert out.instructions == qbo(c).instructions


class _Unmemoized(dict):
    """passes._Memo without the cache: every lookup computes."""

    def __init__(self, f):
        self.f = f

    def __getitem__(self, k):
        return self.f(k)


class TestStateMemo:
    """qbo and qpo pick a SWAP's rotations once per distinct operand state
    pair per call, and qbo snaps each distinct state to its ray once per
    call; the next call computes them again."""

    @staticmethod
    def _circuit() -> Circuit:
        # |+> on wires 0 and 2, |1> on 1 and 3: the pair (|+>, |1>) on two
        # SWAPs, then (|1>, |+>) on two.  Wires 4 and 5 are entangled, so
        # the last two SWAPs both pair |+> with an unknown state.
        c = Circuit(6)
        for q in (0, 2):
            c.h(q)
        for q in (1, 3):
            c.x(q)
        c.swap(0, 1).swap(2, 3).swap(0, 1).swap(2, 3)
        c.h(4).cx(4, 5)
        return c.swap(0, 4).swap(2, 5)

    @pytest.mark.parametrize("rewrite", [qbo, qpo], ids=["qbo", "qpo"])
    def test_each_distinct_pair_computed_once_per_call(self, monkeypatch,
                                                       rewrite):
        c = self._circuit()
        names = ("pure_to_pure_gate", "pure_to_zero_gate")
        calls = spy_calls(monkeypatch, passes, names)
        for _ in range(2):
            calls.clear()
            out = rewrite(c).instructions
            # Two both-known pairs, two rotations each; one one-known pair.
            assert sorted(calls) == [names[0]] * 4 + [names[1]]
        with monkeypatch.context() as m:
            m.setattr(passes, "_Memo", _Unmemoized)
            calls.clear()
            assert rewrite(c).instructions == out
            assert sorted(calls) == [names[0]] * 8 + [names[1]] * 2

    def test_qbo_snaps_each_distinct_state_once_per_call(self, monkeypatch):
        c = self._circuit()
        seen = []
        ray = passes.basis_of
        monkeypatch.setattr(passes, "basis_of",
                            lambda s: (seen.append(s), ray(s))[1])
        for _ in range(2):
            seen.clear()
            qbo(c)
            assert len(seen) == len(set(seen)) >= 3


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

    def test_swap_exchanges_the_tracked_states(self, monkeypatch):
        # After a rewritten SWAP qpo exchanges the two states, as qbo does:
        # the second SWAP's rule sees the first one's states, bit for bit.
        rng = random.Random(23)
        for _ in range(10):
            a, b = ((rng.uniform(0.1, 3.0), rng.uniform(0.1, 6.0))
                    for _ in range(2))
            c = Circuit(2)
            c.u3(*a, 0.0, 0)
            c.u3(*b, 0.0, 1)
            c.swap(0, 1)
            c.swap(0, 1)
            seen = []
            rule = passes.swap_rule
            monkeypatch.setattr(passes, "swap_rule", lambda sa, sb, *qs: (
                seen.append((sa, sb)), rule(sa, sb, *qs))[1])
            qpo(c)
            monkeypatch.undo()
            assert len(seen) == 2 and seen[1] == seen[0][::-1], seen

    def test_swapz_with_known_partner_removed(self):
        c = Circuit(2)
        c.u3(1.3, 0.4, 0.0, 0)
        c.swapz(0, 1)
        out = qpo(c)
        assert cx_count(unroll(out)) == 0
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_cswap_kept_as_it_is(self):
        # The Fredkin rule is qbo's; qpo keeps the gate, and its targets
        # are unknown after it, so the SWAP that follows stays a SWAP.
        c = Circuit(3)
        c.h(0)
        c.u3(0.7, 0.3, 0.0, 1)
        c.u3(1.9, 2.5, 0.0, 2)
        c.cswap(0, 1, 2)
        c.swap(1, 2)
        assert qpo(c).instructions == c.instructions

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

    def test_block_output_states_reach_the_swap_after_it(self):
        # Blocks are taken inside the one traversal: the CX pair's product
        # output leaves wire 1 known, so the SWAP that follows has one known
        # operand and costs 2 CX, beside the entangler on wires 2 and 3.
        # Were the SWAPs rewritten before the blocks, wire 1 would be unknown
        # at the SWAP, which would keep its 3 CX: 4 in all.
        c = parse_program(
            "qreg q[4]; h q[2]; cx q[2],q[3]; u3(0.3,0.2,0.1) q[0];"
            " u3(0.7,0.1,0.4) q[1]; cx q[0],q[1]; cx q[0],q[1];"
            " swap q[1],q[2];")
        out = qpo(c, resynth_blocks=True)
        assert cx_count(unroll(out)) == 3
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_rules_off(self):
        # qpo is qbo's traversal with the rules off: the u1 that fixes |0>
        # and the CX whose control is |0> stay, where qbo drops both.
        c = parse_program("qreg q[2]; u1(0.3) q[0]; cx q[0],q[1];")
        assert qpo(c).instructions == c.instructions
        assert qbo(c).instructions == []


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

    @pytest.mark.parametrize("name", ["line", "grid", "json"])
    def test_adjacent_exactly_on_edges(self, tmp_path, name):
        if name == "line":
            n, edges = 6, [(i, i + 1) for i in range(5)]
            m = line_coupling(6)
        elif name == "grid":
            n = 12  # 3 rows of 4
            edges = ([(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
                     + [(i, i + 4) for i in range(8)])
            m = grid_coupling(3, 4)
        else:
            n, edges = 5, [(0, 3), (3, 1), (4, 1), (2, 4), (2, 0)]
            p = tmp_path / "map.json"
            p.write_text('{"n": 5, "edges": [[0,3],[3,1],[4,1],[2,4],[2,0]]}')
            m = resolve_coupling(str(p))
        on = {frozenset(e) for e in edges}
        for a, b in itertools.product(range(n), repeat=2):
            assert m.adjacent(a, b) == (frozenset((a, b)) in on), (a, b)

    def test_shortest_path(self):
        m = line_coupling(5)
        rng = random.Random(0)
        assert m.shortest_path(0, 4, rng) == [0, 1, 2, 3, 4]

    def test_shortest_path_is_shortest(self):
        m = grid_coupling(4, 5)
        rng = random.Random(1)
        for a, b in itertools.product(range(m.n_physical), repeat=2):
            path = m.shortest_path(a, b, rng)
            assert path[0] == a and path[-1] == b
            assert len(path) - 1 == m.distances_from(a)[b]
            assert all(m.adjacent(x, y) for x, y in zip(path, path[1:]))


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

    def test_random_layout_mode(self):
        c = Circuit(3)
        c.x(0)
        routed, layout = route(c, line_coupling(5), seed=3, random_layout=True)
        assert routed.instructions[0].qubits == (layout[0],)
        assert equivalent_up_to_global_phase(c, routed, perm=layout).equivalent

    @pytest.mark.parametrize("random_layout", [False, True])
    def test_barrier_and_measure_remapped(self, random_layout):
        # Every gate after the last cx sees the final assignment.
        c = Circuit(4, 3)
        c.h(0)
        c.cx(0, 3)
        c.barrier(0, 1, 3)
        c.measure(3, 2)
        c.measure(1, 0)
        routed, layout = route(c, line_coupling(5), seed=3,
                               random_layout=random_layout)
        assert routed.n_qubits == 5 and routed.n_clbits == 3
        barrier, m3, m1 = routed.instructions[-3:]
        assert barrier == Instruction(GateKind.BARRIER,
                                      (layout[0], layout[1], layout[3]))
        assert m3 == Instruction(GateKind.MEASURE, (layout[3],), clbits=(2,))
        assert m1 == Instruction(GateKind.MEASURE, (layout[1],), clbits=(0,))
        assert random_layout or any(i.kind is GateKind.SWAP
                                    for i in routed.instructions)

    def test_multiqubit_gate_rejected(self):
        c = Circuit(3)
        c.ccx(0, 1, 2)
        with pytest.raises(ValueError):
            route(c, line_coupling(3), seed=0)

    def test_width_overflow(self):
        with pytest.raises(ValueError):
            route(Circuit(4), line_coupling(3), seed=0)

    def test_reused_map_routes_like_a_fresh_one(self):
        # A map caches the next-hop tables its shortest paths read; a warm
        # cache must draw ties from rng exactly as a cold one does.
        rng = random.Random(7)
        warm = grid_coupling(4, 5)
        for seed in range(4):
            c = unroll(random_circuit(rng, 12, 60))
            got = route(c, warm, seed=seed, random_layout=True)
            want = route(c, grid_coupling(4, 5), seed=seed, random_layout=True)
            assert got == want
            assert any(i.kind is GateKind.SWAP for i in got[0].instructions)


class TestPipeline:
    def test_flags_disable_passes(self):
        c = Circuit(2)
        c.x(0)
        c.cx(0, 1)
        base = pipeline(c, PipelineOptions(enable_qbo=False, enable_qpo=False))
        assert cx_count(base) == 1
        opt = pipeline(c)
        assert cx_count(opt) == 0

    def test_fredkin_rule_reached(self):
        # The first unroll expands every CSWAP, so qbo's Fredkin rule must
        # fire before it: 2 controlled-u3 (4 CX) against the 8 CX of a CSWAP.
        c = parse_program("qreg q[3];\nh q[0];\nu3(0.7,0.3,0) q[1];\n"
                          "u3(1.9,2.5,0) q[2];\ncswap q[0],q[1],q[2];\n")
        for cmap in (None, line_coupling(5)):
            base = pipeline(c, PipelineOptions(
                coupling=cmap, enable_qbo=False, enable_qpo=False))
            out = pipeline(c, PipelineOptions(coupling=cmap))
            assert cx_count(out) < cx_count(base), cmap
            assert cmap is not None or cx_count(out) <= 4
            rep = equivalent_up_to_global_phase(c, out, perm=out.layout)
            assert rep.equivalent, cmap

    # The stages pipeline() runs, by the names it calls them under (qbo
    # runs as _qbo, which also says whether qpo has work, and qpo runs its
    # own _qbo traversal with the rules off); _merge_runs with
    # cancel=True, the cleanup's merge-and-cancel pass, is recorded as
    # "_merge_runs+cancel".
    STAGES = ("_qbo", "unroll", "route", "merge_1q_runs", "qpo")
    # A SWAP of an entangled wire with |0>: qbo leaves a SWAPZ whose partner
    # is unknown, which qpo cannot rewrite either.
    SWAP_SRC = ("qreg q[4];\nh q[0];\ncx q[0],q[1];\nswap q[1],q[2];\n"
                "cx q[2],q[3];\n")
    # Its second SWAP has an operand known off the rays: qbo keeps it, and
    # only qpo reduces it.
    OFF_RAY_SRC = ("qreg q[4]; h q[0]; cx q[0],q[1]; swap q[1],q[2];"
                   " u3(0.3,0.2,0.1) q[3]; swap q[2],q[3]; cx q[3],q[0];")
    # On line3, routing moves wire 0, known off the rays, past the entangled
    # wire 1 with a SWAP.
    ROUTED_OFF_RAY_SRC = ("qreg q[3]; h q[1]; cx q[1],q[2];"
                          " u3(0.3,0.2,0.1) q[0]; cx q[0],q[2];")

    def _stages(self, monkeypatch, c, **opts) -> list[str]:
        calls = spy_calls(monkeypatch, passes, self.STAGES)
        merge = passes._merge_runs
        monkeypatch.setattr(passes, "_merge_runs", lambda cur, cancel=False: (
            calls.append("_merge_runs+cancel" if cancel else "_merge_runs"),
            merge(cur, cancel=cancel))[1])
        pipeline(c, PipelineOptions(**opts))
        return calls

    def test_swap_free_compile_skips_qpo_and_basis_unroll(self, monkeypatch):
        from rpoc import gen_qpe
        calls = self._stages(monkeypatch, gen_qpe(4, 5 / 16))
        assert calls == ["_qbo", "unroll", "_qbo", "_merge_runs+cancel"]

    def test_swaps_left_run_qpo_and_no_basis_unroll(self, monkeypatch):
        # The cleanup pass expands the SWAP/SWAPZ qpo leaves; no unroll
        # runs after the second qbo or after qpo.  qpo and its merge run
        # only when a SWAP left has an operand known off the rays.
        c = parse_program(self.ROUTED_OFF_RAY_SRC)
        swap_basis = DEFAULT_BASIS | {GateKind.SWAP, GateKind.SWAPZ}
        assert swap_operand_off_ray(route(
            unroll(qbo(c), swap_basis), line_coupling(3))[0])
        calls = self._stages(monkeypatch, c, coupling=line_coupling(3))
        assert calls == ["_qbo", "unroll", "route", "_qbo", "merge_1q_runs",
                         "qpo", "_qbo", "_merge_runs+cancel"]
        calls = self._stages(monkeypatch, parse_program(self.OFF_RAY_SRC))
        assert calls == ["_qbo", "unroll", "_qbo", "merge_1q_runs", "qpo",
                         "_qbo", "_merge_runs+cancel"]
        c = parse_program(self.SWAP_SRC)
        calls = self._stages(monkeypatch, c)
        assert calls == ["_qbo", "unroll", "_qbo", "_merge_runs+cancel"]
        # The SWAPZ is still there for the cleanup to expand.
        left = qbo(unroll(qbo(c), swap_basis))
        assert GateKind.SWAPZ in {i.kind for i in left.instructions}
        # Without qbo, any SWAP left runs them.
        calls = self._stages(monkeypatch, c, enable_qbo=False)
        assert calls == ["unroll", "merge_1q_runs", "qpo", "_qbo",
                         "_merge_runs+cancel"]

    def test_swap_free_compile_with_blocks_runs_qpo(self, monkeypatch):
        from rpoc import gen_qpe
        calls = self._stages(monkeypatch, gen_qpe(4, 5 / 16),
                             enable_block_resynth=True)
        assert calls == ["_qbo", "unroll", "_qbo", "merge_1q_runs", "qpo",
                         "_qbo", "_merge_runs+cancel"]

    @pytest.mark.parametrize("cmap", [None, line_coupling(5)],
                             ids=["unrouted", "line5"])
    @pytest.mark.parametrize("on", itertools.product((False, True), repeat=3),
                             ids=lambda on: "".join(map(str, map(int, on))))
    def test_one_unroll_per_compile(self, monkeypatch, cmap, on):
        from rpoc import gen_qpe
        for c in (gen_qpe(4, 5 / 16), parse_program(self.SWAP_SRC),
                  parse_program(self.OFF_RAY_SRC)):
            calls = self._stages(monkeypatch, c, coupling=cmap,
                                 enable_qbo=on[0], enable_qpo=on[1],
                                 enable_block_resynth=on[2])
            assert calls.count("unroll") == 1
            assert calls.index("unroll") == on[0]  # after the first qbo

    @pytest.mark.parametrize("cmap", [None, line_coupling(5)],
                             ids=["unrouted", "line5"])
    def test_second_qbo_needs_no_unroll(self, cmap):
        # Why pipeline() does not unroll after its second qbo: on unrolled
        # (and routed) input, qbo emits no multi-qubit kind outside the
        # unroll basis, and the named 1q gates it adds (x, z) merge, in
        # merge_1q_runs and in the cleanup pass alike, to the u-gates that
        # unroll would give them.
        swap_basis = DEFAULT_BASIS | {GateKind.SWAP, GateKind.SWAPZ}
        non_unitary = {GateKind.RESET, GateKind.ANNOT, GateKind.MEASURE,
                       GateKind.BARRIER}
        rng = random.Random(25)
        named = 0
        for seed in range(80):
            cur = unroll(random_full_circuit(
                rng, rng.randrange(2, 6), rng.randrange(5, 40),
                measure=seed % 2 == 1), swap_basis)
            if cmap is not None:
                cur, _ = route(cur, cmap, seed)
            out = qbo(cur)
            kinds = {i.kind for i in out.instructions}
            assert {i.kind for i in out.instructions if len(i.qubits) > 1
                    } - {GateKind.BARRIER} <= swap_basis
            assert kinds - swap_basis - non_unitary <= {GateKind.X, GateKind.Z}
            named += bool(kinds & {GateKind.X, GateKind.Z})
            unrolled = unroll(out, swap_basis)
            assert (emit_program(merge_1q_runs(out))
                    == emit_program(merge_1q_runs(unrolled)))
            a, b = (synth._merge_runs(x, cancel=True) for x in (out, unrolled))
            assert emit_program(a) == emit_program(b)
        assert named >= 20

    @pytest.mark.parametrize("body", [
        # The merge drops the h-h run, so the cancellation removes both CX
        # pairs; the t gates the pairs join fuse to a gate, not the
        # identity.
        "h q[0]; cx q[0],q[1]; cx q[0],q[1]; t q[1]; cx q[1],q[0]; h q[0];"
        " h q[0]; cx q[1],q[0]; t q[1];",
        # The cancellation joins an h-h run that fuses to the identity: the
        # pass drops it, and the CX pair around it cancels when its second
        # CX arrives.
        "cx q[0],q[1]; h q[1]; cx q[0],q[1]; cx q[0],q[1]; h q[1];"
        " cx q[0],q[1];",
    ], ids=["one_round", "two_rounds"])
    def test_cleanup_cancels_again_only_after_a_drop(self, monkeypatch, body):
        c = parse_program("qreg q[2]; " + body)
        calls = self._stages(monkeypatch, c, enable_qbo=False,
                             enable_qpo=False)
        assert calls == ["unroll", "_merge_runs+cancel"]
        out = pipeline(c, PipelineOptions(enable_qbo=False, enable_qpo=False))
        assert cx_count(out) == 0

    def test_cleanup_calls_no_cancel_adjacent_cx(self, monkeypatch):
        # The cleanup cancels only in _merge_runs, on every path: a joined
        # identity run, routed, with blocks.
        from rpoc import gen_qpe
        assert not hasattr(passes, "cancel_adjacent_cx")
        calls = spy_calls(monkeypatch, synth, ("cancel_adjacent_cx",))
        for c in (JOINED_IDENTITY_RUNS[0], nested_cx_pairs(),
                  gen_qpe(4, 5 / 16), parse_program(self.SWAP_SRC)):
            for opts in (dict(enable_qbo=False, enable_qpo=False), dict(),
                         dict(coupling=line_coupling(5)),
                         dict(enable_block_resynth=True)):
                pipeline(c, PipelineOptions(**opts))
        assert calls == []

    @pytest.mark.parametrize("qbo_on", [False, True])
    def test_skipped_stages_change_nothing(self, qbo_on):
        # What the SWAP-free skips rest on: with no SWAP or SWAPZ left, qpo
        # (without blocks) returns its input and a second merge the first
        # one's output; and nothing is left to unroll but the x and z the
        # second qbo may add, which the merge fuses as unroll would, so the
        # cleanup pass, which expands only SWAP and SWAPZ, needs no unroll
        # before it.
        rng = random.Random(14)
        swaps = {GateKind.SWAP, GateKind.SWAPZ}
        swap_basis = DEFAULT_BASIS | swaps
        swap_free = 0
        for _ in range(30):
            c = random_full_circuit(rng, rng.randrange(2, 6),
                                    rng.randrange(5, 30))
            # Also without its SWAPs, so most cases are SWAP-free.
            for src in (c, c.replace([i for i in c.instructions
                                      if i.kind not in swaps])):
                cur = unroll(qbo(src) if qbo_on else src, swap_basis)
                if qbo_on:
                    cur = qbo(cur)
                if swaps & {i.kind for i in cur.instructions}:
                    continue
                swap_free += 1
                merged = merge_1q_runs(cur)
                assert qpo(merged).instructions == merged.instructions
                unrolled = unroll(cur)
                assert qbo_on or unrolled.instructions == cur.instructions
                assert (merge_1q_runs(unrolled).instructions
                        == merged.instructions)
                assert merge_1q_runs(merged).instructions == merged.instructions
        assert swap_free >= 30

    @pytest.mark.parametrize("cmap", [None, line_coupling(5),
                                      grid_coupling(2, 3)],
                             ids=["unrouted", "line5", "grid2x3"])
    def test_qpo_skip_changes_nothing(self, cmap):
        # What the off-ray skip rests on: when the second qbo met no SWAP
        # operand known off the rays, qpo returns the merged circuit as it
        # is, though SWAPs and SWAPZs may be left; when it met one, qpo
        # rewrites something.  pipeline() gives what always running the
        # merge and qpo gives.
        rng = random.Random(26)
        swap_basis = DEFAULT_BASIS | {GateKind.SWAP, GateKind.SWAPZ}
        random_layout = cmap is not None and cmap.n_physical == 6
        skipped_with_swaps = ran = 0
        for seed in range(40):
            make = random_full_circuit if seed % 2 else random_circuit
            c = make(rng, rng.randrange(2, 6), rng.randrange(5, 30))
            cur, layout = unroll(qbo(c), swap_basis), None
            if cmap is not None:
                cur, layout = route(cur, cmap, seed, random_layout)
            cur, off_ray = passes._qbo(cur)
            merged = merge_1q_runs(cur)
            full = qpo(merged)
            if off_ray:
                ran += 1
                assert full.instructions != merged.instructions
            else:
                assert full.instructions == merged.instructions
                skipped_with_swaps += bool(
                    {GateKind.SWAP, GateKind.SWAPZ}
                    & {i.kind for i in cur.instructions})
            full = synth._merge_runs(full, cancel=True)
            full.layout = layout
            out = pipeline(c, PipelineOptions(coupling=cmap, seed=seed,
                                              random_layout=random_layout))
            assert emit_program(out) == emit_program(full)  # and the layout
        assert skipped_with_swaps >= 5 and ran >= 5

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

    # Known violations of rpo CX <= baseline CX, unrouted.  Each must fail
    # until a change closes it; then drop its xfail.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="known never-worse violation")
    @pytest.mark.parametrize("make", [
        lambda: parse_program(SPLIT_SWAP_PAIR),  # baseline 2 CX, rpo 4
        # qbo drops the outermost first CX, then keeps its partner once the
        # control is off-ray: baseline 0 CX, rpo 1.
        nested_cx_pairs,
    ], ids=["split-swap-pair", "nested-pairs"])
    def test_never_worse_known_violation(self, make):
        c = make()
        base = pipeline(c, PipelineOptions(enable_qbo=False, enable_qpo=False))
        rpo = pipeline(c, PipelineOptions())
        assert cx_count(rpo) <= cx_count(base)

    def test_y_basis_swap_cell_repro(self):
        # The SWAP of (|+i>, |1>) becomes two rotations; the wire that
        # receives |+i> holds |-> after `s`, so the final CX is a kickback.
        c = parse_program("qreg q[3]; u2(pi/2,0) q[0]; x q[1]; "
                          "swap q[0],q[1]; s q[1]; u3(1,0,0) q[2]; "
                          "cx q[2],q[1];")
        base = pipeline(c, PipelineOptions(enable_qbo=False, enable_qpo=False))
        out = pipeline(c, PipelineOptions())
        assert equivalent_up_to_global_phase(c, out).equivalent
        assert (cx_count(base), cx_count(out)) == (4, 0)

    def test_rpo_not_worse_than_qpo_alone(self):
        # qbo's SWAPs leave every wire they know known: a later SWAP still
        # meets qpo's two-known rule, so running qbo first costs no CX.
        from rpoc import gen_qpe
        small = parse_program(
            "qreg q[4]; u3(1.1,0.4,0) q[0]; cx q[0],q[3]; h q[1]; "
            "swap q[0],q[1]; u3(0.3,0,0) q[2]; swap q[0],q[2];")
        for c, coupling in [(small, None),
                            (gen_qpe(10, 781 / 1024), line_coupling(15))]:
            rpo = pipeline(c, PipelineOptions(coupling=coupling))
            qpo_only = pipeline(c, PipelineOptions(coupling=coupling,
                                                   enable_qbo=False))
            assert equivalent_up_to_global_phase(c, rpo,
                                                 perm=rpo.layout).equivalent
            assert cx_count(rpo) <= cx_count(qpo_only), coupling

    def test_cleanup_cancels_nested_pairs(self):
        # Each merge of an innermost u3(a_k), u3(-a_k) pair to the identity
        # makes one more CX pair adjacent: the cleanup cancels all 60 in its
        # one pass.
        c = nested_cx_pairs()
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

    def test_pass_outputs_are_canonical(self, monkeypatch):
        # Passes build instructions unchecked; each one must equal its
        # checked rebuild, with int qubits and float angles, in range.  The
        # output is also a fixpoint of the merge and the CX cancellation.
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
                check(res[0] if name in ("_qbo", "route") else res, name)
                return res
            return run

        # _qbo is both qbo calls, and _merge_runs the cleanup.
        for name in ("_qbo", "qpo", "route", "unroll", "merge_1q_runs",
                     "_merge_runs"):
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
                    again = cancel_adjacent_cx(merge_1q_runs(out))
                    assert again.instructions == out.instructions, (
                        emit_program(c), cmap, on)

    def test_measured_circuit_with_coupling(self):
        c = Circuit(3, 3)
        c.h(0)
        c.cx(0, 2)
        c.cx(0, 1)
        for q in range(3):
            c.measure(q, q)
        out = pipeline(c, PipelineOptions(coupling=line_coupling(5), seed=2))
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_basis_is_fixed(self):
        assert PipelineOptions().basis == DEFAULT_BASIS
        with pytest.raises(TypeError):
            PipelineOptions(basis=DEFAULT_BASIS)

    def test_compile_steps_leave_no_cyclic_garbage(self):
        # Each pass is freed by reference counting alone: with the collector
        # off, a collection after any step finds nothing unreachable.  What
        # a step allocates is still in generation 0 when it returns, so one
        # full collection first and then a generation-0 one per step finds
        # any cycle, without walking the whole session's heap each time.
        from rpoc import gen_bv, gen_grover, gen_qpe
        circuits = [gen_bv(12, "101101110010", "boolean"), gen_qpe(6, 45 / 64),
                    gen_grover(4, 11, 1, use_ancilla=True, annotate=True)]
        circuits += [random_full_circuit(random.Random(seed), 5, 40)
                     for seed in range(4)]
        steps = [qbo, qpo, functools.partial(qpo, resynth_blocks=True),
                 unroll, merge_1q_runs, cancel_adjacent_cx]
        for cmap in (None, line_coupling(15)):
            for on, blocks in ((False, False), (True, False), (True, True)):
                steps.append(functools.partial(pipeline, opts=PipelineOptions(
                    coupling=cmap, enable_qbo=on, enable_qpo=on,
                    enable_block_resynth=blocks)))
        gc.collect()
        gc.disable()
        try:
            for c in circuits:
                for step in steps:
                    step(c)
                    assert gc.collect(0) == 0, (step, emit_program(c))
        finally:
            gc.enable()
