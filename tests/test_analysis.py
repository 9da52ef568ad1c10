import itertools
import math
import random

import numpy as np
import pytest

from rpoc import (BASIS, PURE, BasisState, GateKind, Instruction, Tracker,
                  U3Params, basis_transition, classify_pure_as_basis,
                  pure_transition, simulate)
from rpoc.analysis import (BASIS_VECTORS, basis_state_angles, canonical_pure,
                           vector_to_pure)
from rpoc.oracle import reduced_qubit_state, trace_distance_to_pure
from rpoc.passes import cx_cell_instructions
from rpoc.synth import matrix_1q, pure_state_vector

from helpers import random_circuit

PI = math.pi
B = BasisState

_SIX = [B.ZERO, B.ONE, B.PLUS, B.MINUS, B.PLUS_I, B.MINUS_I]


class TestClassify:
    def test_poles(self):
        for phi in (0.0, 1.0, 5.0):
            assert classify_pure_as_basis(0.0, phi) is B.ZERO
            assert classify_pure_as_basis(PI, phi) is B.ONE

    def test_equator(self):
        assert classify_pure_as_basis(PI / 2, 0.0) is B.PLUS
        assert classify_pure_as_basis(PI / 2, PI) is B.MINUS
        assert classify_pure_as_basis(PI / 2, PI / 2) is B.PLUS_I
        assert classify_pure_as_basis(PI / 2, 3 * PI / 2) is B.MINUS_I

    def test_generic_is_top(self):
        assert classify_pure_as_basis(1.0, 2.0) is B.TOP

    def test_within_tolerance(self):
        assert classify_pure_as_basis(1e-9, 2.0) is B.ZERO
        assert classify_pure_as_basis(PI / 2 + 1e-9, 1e-9) is B.PLUS

    def test_vectors_match_angles(self):
        for s in _SIX:
            th, ph = basis_state_angles(s)
            v = BASIS_VECTORS[s]
            assert np.allclose(v, pure_state_vector(th, ph))


class TestCanonicalPure:
    def test_theta_folded_into_range(self):
        th, ph = canonical_pure(3 * PI / 2, 0.25)
        assert 0 <= th <= PI
        # Same ray: compare vectors up to phase.
        a = pure_state_vector(3 * PI / 2, 0.25)
        b = pure_state_vector(th, ph)
        assert abs(abs(np.vdot(a, b)) - 1) < 1e-9

    def test_pole_phi_zeroed(self):
        assert canonical_pure(0.0, 2.2) == (0.0, 0.0)
        assert canonical_pure(PI, 2.2)[1] == 0.0

    def test_vector_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            th = rng.uniform(0, PI)
            ph = rng.uniform(0, 2 * PI)
            th2, ph2 = vector_to_pure(pure_state_vector(th, ph))
            a = pure_state_vector(th, ph)
            b = pure_state_vector(th2, ph2)
            assert abs(abs(np.vdot(a, b)) - 1) < 1e-9


class TestBasisTransition:
    def test_h_from_zero(self):
        assert basis_transition(B.ZERO, GateKind.H) is B.PLUS

    def test_s_from_plus(self):
        assert basis_transition(B.PLUS, GateKind.S) is B.PLUS_I

    def test_t_from_plus_is_top(self):
        # Independent check: T|+> overlaps none of the six rays.
        v = matrix_1q(GateKind.T) @ BASIS_VECTORS[B.PLUS]
        assert all(abs(abs(np.vdot(v, BASIS_VECTORS[s])) - 1) > 1e-3
                   for s in _SIX)
        assert basis_transition(B.PLUS, GateKind.T) is B.TOP

    def test_named_gate_edges(self):
        cases = [
            (B.ZERO, GateKind.X, B.ONE), (B.ONE, GateKind.X, B.ZERO),
            (B.PLUS, GateKind.X, B.PLUS), (B.MINUS, GateKind.X, B.MINUS),
            (B.PLUS_I, GateKind.X, B.MINUS_I),
            (B.ZERO, GateKind.Y, B.ONE), (B.PLUS, GateKind.Y, B.MINUS),
            (B.PLUS_I, GateKind.Y, B.PLUS_I),
            (B.ZERO, GateKind.Z, B.ZERO), (B.PLUS, GateKind.Z, B.MINUS),
            (B.PLUS_I, GateKind.Z, B.MINUS_I),
            (B.ZERO, GateKind.H, B.PLUS), (B.ONE, GateKind.H, B.MINUS),
            (B.PLUS_I, GateKind.H, B.MINUS_I),
            (B.PLUS, GateKind.S, B.PLUS_I), (B.PLUS_I, GateKind.S, B.MINUS),
            (B.MINUS, GateKind.S, B.MINUS_I), (B.MINUS_I, GateKind.S, B.PLUS),
            (B.PLUS_I, GateKind.SDG, B.PLUS), (B.ZERO, GateKind.T, B.ZERO),
            (B.ONE, GateKind.TDG, B.ONE),
        ]
        for before, kind, after in cases:
            assert basis_transition(before, kind) is after, (before, kind)

    def test_u1_keeps_z_basis_for_any_angle(self):
        for lam in (0.123, 4.0, PI / 3):
            assert basis_transition(B.ZERO, GateKind.U1, (lam,)) is B.ZERO
            assert basis_transition(B.ONE, GateKind.U1, (lam,)) is B.ONE
            assert basis_transition(B.PLUS, GateKind.U1, (lam,)) is B.TOP

    def test_u1_quarter_turns_act_like_named_gates(self):
        for lam, kind in ((PI / 2, GateKind.S), (PI, GateKind.Z),
                          (3 * PI / 2, GateKind.SDG)):
            for s in _SIX:
                assert (basis_transition(s, GateKind.U1, (lam,))
                        is basis_transition(s, kind))

    def test_u3_recognized_when_matching_named_gate(self):
        assert basis_transition(B.ZERO, GateKind.U3, (PI, 0.0, PI)) is B.ONE
        assert basis_transition(B.ZERO, GateKind.U2, (0.0, PI)) is B.PLUS
        assert basis_transition(B.ZERO, GateKind.U3, (1.0, 0.0, 0.0)) is B.TOP

    def test_reset_annot_measure(self):
        assert basis_transition(B.TOP, GateKind.RESET) is B.ZERO
        assert basis_transition(B.TOP, GateKind.ANNOT, (PI, 0.0)) is B.ONE
        assert basis_transition(B.TOP, GateKind.ANNOT, (PI / 2, PI / 2)) is B.PLUS_I
        assert basis_transition(B.PLUS, GateKind.MEASURE) is B.TOP

    def test_top_absorbing_for_gates(self):
        for kind in (GateKind.X, GateKind.H, GateKind.S, GateKind.T):
            assert basis_transition(B.TOP, kind) is B.TOP

    def test_clifford_generators_permute_six_states(self):
        for kind in (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
                     GateKind.S, GateKind.SDG):
            image = [basis_transition(s, kind) for s in _SIX]
            assert B.TOP not in image
            assert len(set(image)) == 6

    def test_multi_qubit_kind_rejected(self):
        with pytest.raises(ValueError):
            basis_transition(B.ZERO, GateKind.CX)


class TestPureTransition:
    def test_from_ground(self):
        th, ph, lam = 1.2, 0.7, 2.3
        out = pure_transition((0.0, 0.0), U3Params(th, ph, lam))
        assert abs(out[0] - th) < 1e-9 and abs(out[1] - ph) < 1e-9

    def test_identity(self):
        s = (1.0, 2.0)
        out = pure_transition(s, U3Params(0.0, 0.0, 0.0))
        assert abs(out[0] - s[0]) < 1e-9 and abs(out[1] - s[1]) < 1e-9

    def test_top_absorbs(self):
        assert pure_transition(None, U3Params(1.0, 0.0, 0.0)) is None

    def test_chain_matches_statevector(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            state = (0.0, 0.0)
            vec = np.array([1.0, 0.0], dtype=complex)
            for _ in range(10):
                th, ph, lam = rng.uniform(0, 2 * PI, 3)
                g = U3Params(th, ph, lam)
                state = pure_transition(state, g)
                vec = g.matrix() @ vec
            claimed = pure_state_vector(*state)
            assert abs(abs(np.vdot(claimed, vec)) - 1.0) < 1e-9

    def test_agrees_with_basis_transition(self):
        named = [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S,
                 GateKind.SDG, GateKind.T, GateKind.TDG]
        for s, kind in itertools.product(_SIX, named):
            inst = Instruction(kind, (0,))
            from rpoc.synth import as_u3params
            pure_out = pure_transition(basis_state_angles(s), as_u3params(inst))
            basis_out = basis_transition(s, kind)
            if basis_out is not B.TOP:
                assert classify_pure_as_basis(*pure_out) is basis_out


class TestTrackerSoundness:
    """Every non-TOP claim must match the simulated reduced density matrix."""

    def _check_circuit(self, c):
        bt = Tracker(c.n_qubits, BASIS)
        pt = Tracker(c.n_qubits, PURE)
        state = None
        prefix = c.copy_empty()
        for inst in c.instructions:
            prefix.append(inst)
            state = simulate(prefix)
            bt.step(inst)
            pt.step(inst)
            for q in range(c.n_qubits):
                rho = reduced_qubit_state(state, q)
                if bt.states[q] is not B.TOP:
                    td = trace_distance_to_pure(rho, BASIS_VECTORS[bt.states[q]])
                    assert td <= 1e-8, (q, inst, bt.states[q])
                if pt.states[q] is not None:
                    td = trace_distance_to_pure(
                        rho, pure_state_vector(*pt.states[q]))
                    assert td <= 1e-8, (q, inst, pt.states[q])

    def test_random_circuits(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randrange(2, 5)
            self._check_circuit(random_circuit(rng, n, rng.randrange(5, 25),
                                               allow_reset=True))

    def test_swap_exchanges_states(self):
        bt = Tracker(2, BASIS)
        bt.step(Instruction(GateKind.H, (0,)))
        bt.step(Instruction(GateKind.SWAP, (0, 1)))
        assert bt.states == [B.ZERO, B.PLUS]

    def test_swapz_conservative_when_not_zero(self):
        bt = Tracker(2, BASIS)
        bt.step(Instruction(GateKind.X, (1,)))
        bt.step(Instruction(GateKind.SWAPZ, (0, 1)))
        assert bt.states == [B.TOP, B.TOP]

    def test_swapz_swaps_when_zero(self):
        pt = Tracker(2, PURE)
        pt.step(Instruction(GateKind.U3, (0,), (1.0, 2.0, 0.0)))
        pt.step(Instruction(GateKind.SWAPZ, (0, 1)))
        assert pt.states[0] == (0.0, 0.0)
        assert abs(pt.states[1][0] - 1.0) < 1e-9

    def test_step_outcomes_of_rewritten_gate(self):
        # A rewrite pass steps the tracker through what it emits (the CX
        # cell's replacement, or the kept CX), never through the gate the
        # replacement stands for.
        bt = Tracker(2, BASIS)
        cx = Instruction(GateKind.CX, (0, 1))

        def rewrite_cx():
            repl = cx_cell_instructions(bt.states[0], bt.states[1], 0, 1)
            for inst in [cx] if repl is None else repl:
                bt.step(inst)
            return repl

        # Removed gate (control |0>): states unchanged.
        assert rewrite_cx() == []
        assert bt.states == [B.ZERO, B.ZERO]
        # Rewritten to a 1q gate (control |1>): the target wire advances.
        bt.step(Instruction(GateKind.X, (0,)))
        assert rewrite_cx() == [Instruction(GateKind.X, (1,))]
        assert bt.states == [B.ONE, B.ONE]
        # Kept (control |->, target |1>): both wires go unknown.
        bt.step(Instruction(GateKind.H, (0,)))
        assert rewrite_cx() is None
        assert bt.states == [B.TOP, B.TOP]
        pt = Tracker(2, PURE)
        pt.step(Instruction(GateKind.H, (0,)))
        pt.step(Instruction(GateKind.CX, (0, 1)))
        assert pt.states == [None, None]
