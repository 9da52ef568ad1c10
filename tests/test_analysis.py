import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpoc import (BasisState, Circuit, GateKind, Instruction, Tracker,
                  U3Params, basis_of, classify_pure_as_basis, pure_transition,
                  simulate)
from rpoc.analysis import canonical_pure, vector_to_pure
from rpoc.oracle import reduced_qubit_state, trace_distance_to_pure
from rpoc.passes import cx_cell_instructions
from rpoc.synth import as_u3params, matrix_1q, pure_state_vector

from helpers import (partial_trace_oracle, random_circuit, random_full_circuit,
                     ref_simulate)

PI = math.pi
B = BasisState

_SIX = [B.ZERO, B.ONE, B.PLUS, B.MINUS, B.PLUS_I, B.MINUS_I]
_R2 = 1 / math.sqrt(2)
# The six rays as statevectors, written out independently of analysis.py.
_RAY_VECTORS = {
    B.ZERO: [1, 0], B.ONE: [0, 1], B.PLUS: [_R2, _R2], B.MINUS: [_R2, -_R2],
    B.PLUS_I: [_R2, 1j * _R2], B.MINUS_I: [_R2, -1j * _R2],
}


def _ray_vector(s):
    return np.array(_RAY_VECTORS[s], dtype=complex)


def _after(s, kind, params=()):
    """Ray of a tracked ray (or TOP) after one single-qubit gate."""
    state = None if s is B.TOP else vector_to_pure(_ray_vector(s))
    g = as_u3params(Instruction(kind, (0,), params))
    return basis_of(pure_transition(state, g))


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
            th, ph = vector_to_pure(_ray_vector(s))
            assert classify_pure_as_basis(th, ph) is s
            assert np.allclose(_ray_vector(s), pure_state_vector(th, ph))

    def test_basis_of_unknown_is_top(self):
        assert basis_of(None) is B.TOP
        assert basis_of((1.0, 2.0)) is B.TOP
        assert basis_of((PI / 2, PI)) is B.MINUS


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
    """The six-ray transitions, read off the pure tracker through basis_of."""

    def test_h_from_zero(self):
        assert _after(B.ZERO, GateKind.H) is B.PLUS

    def test_s_from_plus(self):
        assert _after(B.PLUS, GateKind.S) is B.PLUS_I

    def test_t_from_plus_is_top(self):
        # Independent check: T|+> overlaps none of the six rays.
        v = matrix_1q(GateKind.T) @ _ray_vector(B.PLUS)
        assert all(abs(abs(np.vdot(v, _ray_vector(s))) - 1) > 1e-3
                   for s in _SIX)
        assert _after(B.PLUS, GateKind.T) is B.TOP

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
            assert _after(before, kind) is after, (before, kind)

    def test_u1_keeps_z_basis_for_any_angle(self):
        for lam in (0.123, 4.0, PI / 3):
            assert _after(B.ZERO, GateKind.U1, (lam,)) is B.ZERO
            assert _after(B.ONE, GateKind.U1, (lam,)) is B.ONE
            assert _after(B.PLUS, GateKind.U1, (lam,)) is B.TOP

    def test_u1_quarter_turns_act_like_named_gates(self):
        for lam, kind in ((PI / 2, GateKind.S), (PI, GateKind.Z),
                          (3 * PI / 2, GateKind.SDG)):
            for s in _SIX:
                assert _after(s, GateKind.U1, (lam,)) is _after(s, kind)

    def test_u3_recognized_when_matching_named_gate(self):
        assert _after(B.ZERO, GateKind.U3, (PI, 0.0, PI)) is B.ONE
        assert _after(B.ZERO, GateKind.U2, (0.0, PI)) is B.PLUS
        assert _after(B.ZERO, GateKind.U3, (1.0, 0.0, 0.0)) is B.TOP

    def test_reset_annot_measure(self):
        tr = Tracker(1)
        tr.states[0] = None
        tr.step(Instruction(GateKind.RESET, (0,)))
        assert basis_of(tr.states[0]) is B.ZERO
        tr.states[0] = None
        tr.step(Instruction(GateKind.ANNOT, (0,), (PI, 0.0)))
        assert basis_of(tr.states[0]) is B.ONE
        tr.states[0] = None
        tr.step(Instruction(GateKind.ANNOT, (0,), (PI / 2, PI / 2)))
        assert basis_of(tr.states[0]) is B.PLUS_I
        tr.step(Instruction(GateKind.H, (0,)))
        tr.step(Instruction(GateKind.MEASURE, (0,), clbits=(0,)))
        assert tr.states[0] is None

    def test_top_absorbing_for_gates(self):
        for kind in (GateKind.X, GateKind.H, GateKind.S, GateKind.T):
            assert _after(B.TOP, kind) is B.TOP

    def test_clifford_generators_permute_six_states(self):
        for kind in (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
                     GateKind.S, GateKind.SDG):
            image = [_after(s, kind) for s in _SIX]
            assert B.TOP not in image
            assert len(set(image)) == 6

    def test_multi_qubit_kind_rejected(self):
        # The u3 view that pure_transition consumes exists only for
        # single-qubit gates.
        with pytest.raises(ValueError):
            as_u3params(Instruction(GateKind.CX, (0, 1)))


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
        # Ray after the tracked transition == ray of the matrix action.
        named = [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S,
                 GateKind.SDG, GateKind.T, GateKind.TDG]
        for s, kind in itertools.product(_SIX, named):
            v = matrix_1q(kind) @ _ray_vector(s)
            want = classify_pure_as_basis(*vector_to_pure(v))
            assert _after(s, kind) is want, (s, kind)

    def test_generic_states_match_matrix_action(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            th, ph = rng.uniform(0, PI), rng.uniform(0, 2 * PI)
            g = U3Params(*rng.uniform(0, 2 * PI, 3))
            got = pure_state_vector(*pure_transition((th, ph), g))
            want = g.matrix() @ pure_state_vector(th, ph)
            assert abs(abs(np.vdot(got, want)) - 1.0) < 1e-12


def _check_claims(tr, rho_of, where):
    """Every known state, and the ray basis_of reads off it, must match the
    simulated reduced state of its wire."""
    for q, s in enumerate(tr.states):
        if s is None:
            continue
        rho = rho_of(q)
        td = trace_distance_to_pure(rho, pure_state_vector(*s))
        assert td <= 1e-8, (where, q, s, td)
        ray = basis_of(s)
        if ray is not B.TOP:
            td = trace_distance_to_pure(rho, _ray_vector(ray))
            assert td <= 1e-8, (where, q, ray, td)


class TestTrackerSoundness:
    """Every non-TOP claim must match the simulated reduced density matrix."""

    def _check_circuit(self, c):
        tr = Tracker(c.n_qubits)
        prefix = c.copy_empty()
        for inst in c.instructions:
            prefix.append(inst)
            state = simulate(prefix)
            tr.step(inst)
            _check_claims(tr, lambda q: reduced_qubit_state(state, q), inst)

    def test_random_circuits(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randrange(2, 5)
            self._check_circuit(random_circuit(rng, n, rng.randrange(5, 25),
                                               allow_reset=True))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(n=st.integers(1, 5), length=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_every_gate_kind_against_reference(self, n, length, seed):
        # Open controls, mcx, cu3, cswap, swapz, barriers, resets and
        # annotations, checked against the independent dense simulator.
        c = random_full_circuit(random.Random(seed), n, length)
        tr = Tracker(n)
        state = ref_simulate(Circuit(n))
        for inst in c.instructions:
            state = ref_simulate(c.replace([inst]), initial_state=state)
            tr.step(inst)
            _check_claims(tr, lambda q: partial_trace_oracle(state, q), inst)

    def test_swap_exchanges_states(self):
        tr = Tracker(2)
        tr.step(Instruction(GateKind.H, (0,)))
        tr.step(Instruction(GateKind.SWAP, (0, 1)))
        assert [basis_of(s) for s in tr.states] == [B.ZERO, B.PLUS]

    def test_swapz_conservative_when_not_zero(self):
        tr = Tracker(2)
        tr.step(Instruction(GateKind.X, (1,)))
        tr.step(Instruction(GateKind.SWAPZ, (0, 1)))
        assert tr.states == [None, None]

    def test_swapz_swaps_when_zero(self):
        tr = Tracker(2)
        tr.step(Instruction(GateKind.U3, (0,), (1.0, 2.0, 0.0)))
        tr.step(Instruction(GateKind.SWAPZ, (0, 1)))
        assert tr.states[0] == (0.0, 0.0)
        assert abs(tr.states[1][0] - 1.0) < 1e-9

    def test_step_outcomes_of_rewritten_gate(self):
        # A rewrite pass steps the tracker through what it emits (the CX
        # cell's replacement, or the kept CX), never through the gate the
        # replacement stands for.
        tr = Tracker(2)
        cx = Instruction(GateKind.CX, (0, 1))

        def rewrite_cx():
            repl = cx_cell_instructions(basis_of(tr.states[0]),
                                        basis_of(tr.states[1]), 0, 1)
            for inst in [cx] if repl is None else repl:
                tr.step(inst)
            return repl

        def rays():
            return [basis_of(s) for s in tr.states]

        # Removed gate (control |0>): states unchanged.
        assert rewrite_cx() == []
        assert rays() == [B.ZERO, B.ZERO]
        # Rewritten to a 1q gate (control |1>): the target wire advances.
        tr.step(Instruction(GateKind.X, (0,)))
        assert rewrite_cx() == [Instruction(GateKind.X, (1,))]
        assert rays() == [B.ONE, B.ONE]
        # Kept (control |->, target |1>): both wires go unknown.
        tr.step(Instruction(GateKind.H, (0,)))
        assert rewrite_cx() is None
        assert tr.states == [None, None]
