import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpoc import (Circuit, GateKind, Instruction, cancel_adjacent_cx,
                  cx_count, merge_1q_runs, parse_program,
                  prepare_two_qubit_state, simulate, u3_matrix, unroll,
                  zyz_decompose)
from rpoc import synth
from rpoc.circuit import (EPS_ANGLE, TWO_PI, angles_equal, canonical_angle,
                          count_1q)
from rpoc.oracle import equivalent_up_to_global_phase
from rpoc.synth import (DEFAULT_BASIS, U3Params, as_u3params, ccx_to_cx,
                        compose_u3, cu3_to_cx, mcx_gray_code, mcx_vchain,
                        pure_state_vector, pure_to_pure_gate,
                        pure_to_zero_gate, swap_to_cx, swapz_to_cx,
                        u3params_instruction)

from helpers import (haar_unitary, random_full_circuit, random_statevector,
                     ref_matrix_1q, ref_merge_1q_runs, ref_simulate,
                     ref_u3params_instruction, spy_calls)

PI = math.pi


def mats_close(a, b, tol=1e-9):
    return np.max(np.abs(a - b)) <= tol


def rays_close(a, b, tol=1e-9):
    return abs(abs(np.vdot(a, b)) - 1.0) <= tol


class TestZYZ:
    def test_identity(self):
        p = zyz_decompose(np.eye(2))
        assert angles_equal(p.theta, 0) and angles_equal(p.phi, 0)
        assert angles_equal(p.lam, 0) and angles_equal(p.global_phase, 0)

    def test_hadamard(self):
        p = zyz_decompose(ref_matrix_1q(GateKind.H))
        # Reconstruction oracle: compare entrywise against u3(pi/2, 0, pi).
        assert angles_equal(p.theta, PI / 2)
        assert angles_equal(p.phi, 0)
        assert angles_equal(p.lam, PI)
        assert mats_close(p.matrix(), u3_matrix(PI / 2, 0, PI))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            u = haar_unitary(rng)
            p = zyz_decompose(u)
            assert 0.0 <= p.theta <= PI
            assert mats_close(p.matrix(), u)

    def test_degenerate_poles(self):
        for u in (np.diag([1, np.exp(0.37j)]),
                  np.array([[0, -np.exp(0.2j)], [np.exp(1.1j), 0]]),
                  -np.eye(2)):
            p = zyz_decompose(u)
            assert mats_close(p.matrix(), u)
            assert angles_equal(p.phi, 0)

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p1 = zyz_decompose(haar_unitary(rng))
            p2 = zyz_decompose(p1.matrix())
            for a, b in ((p1.theta, p2.theta), (p1.phi, p2.phi),
                         (p1.lam, p2.lam), (p1.global_phase, p2.global_phase)):
                assert angles_equal(a, b, 1e-7)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            zyz_decompose(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_inverse_params_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = zyz_decompose(haar_unitary(rng))
            assert mats_close(p.inverse().matrix(), p.matrix().conj().T)


class TestCompose:
    def test_identity_neutral(self):
        p = U3Params(1.1, 0.4, 2.2, 0.0)
        q = compose_u3(p, U3Params(0, 0, 0))
        assert mats_close(q.matrix(), p.matrix())

    def test_h_h_is_identity(self):
        h = zyz_decompose(ref_matrix_1q(GateKind.H))
        assert compose_u3(h, h).is_identity()

    def test_random_against_matrix_product(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a = zyz_decompose(haar_unitary(rng))
            b = zyz_decompose(haar_unitary(rng))
            assert mats_close(compose_u3(a, b).matrix(), b.matrix() @ a.matrix())


class TestDecompositions:
    def check_equivalence(self, gate_circ, decomposed, n, rng):
        """Brute force: all basis inputs and 20 random statevectors."""
        for i in range(2 ** n):
            init = np.zeros(2 ** n, dtype=complex)
            init[i] = 1.0
            va = simulate(gate_circ, initial_state=init)
            vb = simulate(decomposed, initial_state=init)
            assert rays_close(va, vb), f"basis input {i}"
        for _ in range(20):
            init = random_statevector(rng, n)
            va = simulate(gate_circ, initial_state=init)
            vb = simulate(decomposed, initial_state=init)
            assert rays_close(va, vb)

    def test_swap(self):
        rng = np.random.default_rng(1)
        c = Circuit(2).swap(0, 1)
        d = Circuit(2).extend(swap_to_cx(0, 1))
        assert cx_count(d) == 3
        kinds = [i.qubits for i in d.instructions]
        assert kinds == [(0, 1), (1, 0), (0, 1)]  # alternating orientation
        self.check_equivalence(c, d, 2, rng)

    def test_swapz(self):
        rng = np.random.default_rng(2)
        # swapz is *defined* by its 2-CX expansion; check the expansion
        # against an independent full swap with the zero input.
        d = Circuit(2).extend(swapz_to_cx(0, 1))
        assert cx_count(d) == 2
        assert [i.qubits for i in d.instructions] == [(0, 1), (1, 0)]
        ref = Circuit(2).swap(0, 1)
        for _ in range(20):
            single = rng.normal(size=2) + 1j * rng.normal(size=2)
            single /= np.linalg.norm(single)
            init = np.kron(single, np.array([1.0, 0.0]))  # qubit 1 in |0>
            va = simulate(ref, initial_state=init)
            vb = simulate(d, initial_state=init)
            assert rays_close(va, vb)

    def test_ccx(self):
        rng = np.random.default_rng(3)
        c = Circuit(3).ccx(0, 1, 2)
        d = Circuit(3).extend(ccx_to_cx(0, 1, 2))
        assert cx_count(d) == 6
        self.check_equivalence(c, d, 3, rng)

    def test_cswap(self):
        rng = np.random.default_rng(4)
        c = Circuit(3).cswap(0, 1, 2)
        d = unroll(c)
        assert cx_count(d) == 8
        self.check_equivalence(c, d, 3, rng)

    def test_cu3(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            th, ph, lm = rng.uniform(0, 2 * PI, 3)
            c = Circuit(2).cu3(th, ph, lm, 0, 1)
            d = Circuit(2).extend(cu3_to_cx(th, ph, lm, 0, 1))
            assert cx_count(d) <= 2
            self.check_equivalence(c, d, 2, rng)

    def test_cz(self):
        rng = np.random.default_rng(6)
        c = Circuit(2).cz(0, 1)
        self.check_equivalence(c, unroll(c), 2, rng)

    def test_open_controls(self):
        rng = np.random.default_rng(7)
        c = Circuit(3)
        c.append(Instruction(GateKind.CCX, (0, 1, 2), open_mask=(True, False)))
        d = unroll(c)
        assert not any(i.open_mask for i in d.instructions)
        self.check_equivalence(c, d, 3, rng)

    @pytest.mark.parametrize("k", [3, 4])
    def test_mcx_recursive(self, k):
        rng = np.random.default_rng(8 + k)
        n = k + 1
        c = Circuit(n).mcx(*range(n))
        d = unroll(Circuit(n).extend(mcx_gray_code(tuple(range(k)), k)))
        self.check_equivalence(c, d, n, rng)

    def test_mcx_recursive_k5_random_states(self):
        rng = np.random.default_rng(55)
        c = Circuit(6).mcx(*range(6))
        d = unroll(c)
        for _ in range(10):
            init = random_statevector(rng, 6)
            assert rays_close(simulate(c, initial_state=init),
                              simulate(d, initial_state=init))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_mcx_vchain(self, k):
        rng = np.random.default_rng(20 + k)
        n = k + 1 + (k - 2)
        ancs = tuple(range(k + 1, n))
        chain = mcx_vchain(tuple(range(k)), k, ancs)
        assert sum(1 for i in chain if i.kind is GateKind.CCX) == 2 * k - 3
        c = Circuit(n).mcx(*range(k + 1))
        d = Circuit(n).extend(chain)
        # Clean-ancilla contract: ancillas start and end in |0>.
        for i in range(2 ** (k + 1)):
            init = np.zeros(2 ** n, dtype=complex)
            init[i << (k - 2)] = 1.0
            va = simulate(c, initial_state=init)
            vb = simulate(d, initial_state=init)
            assert rays_close(va, vb)

    def test_mcx_ancilla_mode_requires_ancillas(self):
        with pytest.raises(ValueError):
            mcx_vchain((0, 1, 2, 3), 4, (5,))
        for k in (1, 2):  # a CX or a CCX: no chain to build
            with pytest.raises(ValueError):
                mcx_vchain(tuple(range(k)), k, (k + 1,))

    def test_unroll_output_in_basis(self):
        c = Circuit(4)
        c.ccx(0, 1, 2)
        c.cswap(1, 2, 3)
        c.swap(0, 3)
        c.cz(1, 2)
        c.s(0)
        d = unroll(c)
        allowed = DEFAULT_BASIS | {GateKind.RESET, GateKind.ANNOT,
                                   GateKind.MEASURE, GateKind.BARRIER}
        assert all(i.kind in allowed for i in d.instructions)

    def test_unroll_keeps_swap_when_in_basis(self):
        c = Circuit(2).swap(0, 1)
        d = unroll(c, DEFAULT_BASIS | {GateKind.SWAP})
        assert d.instructions == c.instructions

    def test_unroll_requires_cx_basis(self):
        with pytest.raises(ValueError):
            unroll(Circuit(1).h(0), frozenset({GateKind.U3}))


SWAP_BASIS = DEFAULT_BASIS | {GateKind.SWAP, GateKind.SWAPZ}


class TestUnrollMemo:
    """unroll expands each distinct instruction once per call, so its output
    must not depend on what else that call, or an earlier one, expanded."""

    @pytest.mark.parametrize("basis", [DEFAULT_BASIS, SWAP_BASIS],
                             ids=["default", "swap"])
    @pytest.mark.parametrize("seed", range(4))
    def test_composes_per_instruction(self, basis, seed):
        c = random_full_circuit(random.Random(seed), 6, 50)
        c = c.replace(c.instructions + c.instructions[::-1])  # with repeats
        want = [i for inst in c.instructions
                for i in unroll(c.replace([inst]), basis).instructions]
        assert unroll(c, basis).instructions == want

    def test_no_state_between_calls(self):
        a = random_full_circuit(random.Random(11), 5, 40)
        b = random_full_circuit(random.Random(12), 5, 40)
        before = dict(vars(synth))
        sizes = {k: len(v) for k, v in before.items()
                 if isinstance(v, (dict, list, set))}
        first = unroll(a).instructions
        unroll(b, SWAP_BASIS)
        assert unroll(a).instructions == first
        assert vars(synth) == before
        assert sizes == {k: len(before[k]) for k in sizes}

    def test_repeats_expand_to_equal_copies(self):
        c = Circuit(6)
        for _ in range(50):
            c.mcx(0, 1, 2, 3, 5)
            c.swap(1, 4)
        one = unroll(Circuit(6).mcx(0, 1, 2, 3, 5).swap(1, 4)).instructions
        assert len(one) > 60
        out = unroll(c)
        assert out.instructions == one * 50
        out.instructions[0] = Instruction(GateKind.X, (5,))
        del out.instructions[len(one):]
        assert unroll(c).instructions == one * 50


def _mcx(k, mask=()):
    return Circuit(k + 1).append(Instruction(
        GateKind.MCX, tuple(range(k + 1)), open_mask=tuple(mask)))


class TestMcxGrayCode:
    """The ancilla-free MCX template: its exact CX count, and its unitary
    equal to the gate's, global phase included."""

    @pytest.mark.parametrize("k", range(3, 9))
    def test_cx_count(self, k):
        assert cx_count(unroll(_mcx(k))) == 2 ** (k + 1) - 2

    # Microbenchmark: runs once as a test; time it with --benchmark-enable.
    @pytest.mark.parametrize("k", [5, 8])
    def test_unroll_time(self, benchmark, k):
        out = benchmark(unroll, _mcx(k))
        assert cx_count(out) == 2 ** (k + 1) - 2
        assert all(i.kind in DEFAULT_BASIS for i in out.instructions)

    # A generic input state tells two unitaries apart, phase included.
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(k=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_mask_matches_reference(self, k, seed):
        state = random_statevector(np.random.default_rng(seed), k + 1)
        for mask in itertools.product((False, True), repeat=k):
            c = _mcx(k, mask)
            assert np.allclose(simulate(unroll(c), initial_state=state),
                               ref_simulate(c, state), atol=1e-9)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_columns_on_basis_states(self, data):
        k = data.draw(st.integers(6, 8), label="k")
        n = k + 1
        mask = data.draw(st.lists(st.booleans(), min_size=k, max_size=k),
                         label="mask")
        col = data.draw(st.integers(0, 2 ** n - 1), label="column")
        if data.draw(st.booleans(), label="fires"):
            for q, o in enumerate(mask):  # qubit 0 is the high bit
                bit = 1 << (n - 1 - q)
                col = col & ~bit if o else col | bit
        fires = all((col >> (n - 1 - q)) & 1 != o for q, o in enumerate(mask))
        init = np.zeros(2 ** n, dtype=complex)
        init[col] = 1.0
        want = np.zeros(2 ** n, dtype=complex)
        want[col ^ 1 if fires else col] = 1.0
        got = simulate(unroll(_mcx(k, mask)), initial_state=init)
        assert np.allclose(got, want, atol=1e-9)


# Angles at, within 1e-9 of, and either side of EPS_ANGLE from the values
# where u3params_instruction changes its choice of gate (two draws in three),
# or generic ones.
_near_special = st.builds(
    lambda a, d: a + d, st.sampled_from([0.0, PI / 2, PI, 2 * PI]),
    st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9),
              st.sampled_from([-2e-8, -1e-8, 1e-8, 2e-8])))
_angle = st.one_of(_near_special, _near_special, st.floats(0.0, 2 * PI))
_U_PARAMS = {GateKind.U1: 1, GateKind.U2: 2, GateKind.U3: 3}
_NAMED = [GateKind.ID, GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
          GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG]


@st.composite
def _runs_circuit(draw) -> Circuit:
    """Runs of 1-3 single-qubit gates (half of them one gate long) on 1-3
    wires, each closed by a CX, a barrier or an annotation."""
    n = draw(st.integers(1, 3), label="wires")
    c = Circuit(n)
    for _ in range(draw(st.integers(1, 6), label="runs")):
        q = draw(st.integers(0, n - 1))
        for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
            kind = draw(st.sampled_from([*_U_PARAMS, None]))
            kind = kind or draw(st.sampled_from(_NAMED))
            params = tuple(draw(_angle) for _ in range(_U_PARAMS.get(kind, 0)))
            c.append(Instruction(kind, (q,), params))
        sep = draw(st.sampled_from(["cx", "barrier", "annot"]))
        if sep == "cx" and n > 1:
            c.cx(q, draw(st.sampled_from([w for w in range(n) if w != q])))
        elif sep == "annot":
            c.annot(draw(_angle), draw(_angle), q)
        else:
            c.barrier(q)
    return c


def _canonical_u(inst: Instruction) -> bool:
    """A u2, a u1 off the identity, or a u3 with theta off 0 and pi/2."""
    if inst.kind is GateKind.U2:
        return True
    if inst.kind is GateKind.U1:
        return not angles_equal(inst.params[0], 0.0)
    return inst.kind is GateKind.U3 and not (
        angles_equal(inst.params[0], 0.0) or angles_equal(inst.params[0], PI / 2))


def _assert_matches_reference_merge(c: Circuit) -> None:
    """merge_1q_runs(c) against helpers.ref_merge_1q_runs: the same kinds
    and qubits in the same order; a canonical one-gate run and every
    instruction that is not a single-qubit gate kept as the same object;
    every other fused gate equal to the reference's up to global phase,
    within 1e-12."""
    got = merge_1q_runs(c).instructions
    ref, runs = ref_merge_1q_runs(c)
    assert ([(i.kind, i.qubits) for i in got]
            == [(i.kind, i.qubits) for i in ref.instructions])
    for g, r, run in zip(got, ref.instructions, runs):
        if not run:
            assert g is r
            continue
        if len(run) == 1 and _canonical_u(run[0]):
            assert g is run[0]
        a, b = ref_matrix_1q(g.kind, g.params), ref_matrix_1q(r.kind, r.params)
        overlap = np.vdot(b, a)
        assert np.max(np.abs(a - overlap / abs(overlap) * b)) <= 1e-12


class TestMerge1q:
    def test_xx_cancels(self):
        c = Circuit(1)
        c.u3(PI, 0, PI, 0)
        c.u3(PI, 0, PI, 0)
        assert merge_1q_runs(c).instructions == []

    def test_u1_addition(self):
        c = Circuit(1)
        c.u1(PI / 4, 0)
        c.u1(PI / 4, 0)
        out = merge_1q_runs(c).instructions
        assert len(out) == 1
        assert out[0].kind is GateKind.U1
        assert angles_equal(out[0].params[0], PI / 2)

    def test_random_run_merges_to_single_gate(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            c = Circuit(1)
            for _ in range(5):
                th, ph, lm = rng.uniform(0, 2 * PI, 3)
                c.u3(th, ph, lm, 0)
            out = merge_1q_runs(c)
            assert len(out.instructions) <= 1
            rep = equivalent_up_to_global_phase(c, out)
            assert rep.equivalent and rep.fidelity >= 1 - 1e-9

    def test_no_adjacent_1q_remain(self):
        rng = np.random.default_rng(32)
        c = Circuit(3)
        seq = [GateKind.H, GateKind.T, GateKind.S, GateKind.X]
        for _ in range(40):
            q = int(rng.integers(3))
            c.append(Instruction(seq[int(rng.integers(len(seq)))], (q,)))
            if rng.random() < 0.3:
                a, b = rng.choice(3, 2, replace=False)
                c.cx(int(a), int(b))
        out = merge_1q_runs(c)
        last_1q: dict[int, bool] = {}
        for inst in out.instructions:
            if inst.is_1q:
                assert not last_1q.get(inst.qubits[0], False)
                last_1q[inst.qubits[0]] = True
            else:
                for q in inst.qubits:
                    last_1q[q] = False
        assert equivalent_up_to_global_phase(c, out).equivalent

    def test_barrier_and_annot_break_runs(self):
        c = Circuit(1)
        c.t(0)
        c.barrier(0)
        c.tdg(0)
        out = merge_1q_runs(c)
        assert [i.kind for i in out.instructions] == [
            GateKind.U1, GateKind.BARRIER, GateKind.U1]
        c2 = Circuit(1)
        c2.t(0)
        c2.annot(0, 0, 0)
        c2.tdg(0)
        assert len(merge_1q_runs(c2).instructions) == 3

    def test_monotone_and_idempotent(self):
        rng = np.random.default_rng(33)
        from helpers import random_circuit
        import random as pyrandom
        prng = pyrandom.Random(33)
        for _ in range(20):
            c = random_circuit(prng, 4, 30)
            once = merge_1q_runs(c)
            assert len(once.instructions) <= len(c.instructions)
            assert merge_1q_runs(once) == once

    # A canonical one-gate run is passed through as it is; every other run
    # must match the numpy product of its gates, decomposed once.
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(c=_runs_circuit())
    def test_pass_through_equals_reference_merge(self, c):
        _assert_matches_reference_merge(c)

    @pytest.mark.parametrize("kind,params,kept", [
        (GateKind.U2, (0.0, 0.0), True),
        (GateKind.U1, (PI / 4,), True),
        (GateKind.U1, (1e-9,), False),
        (GateKind.U1, (2 * PI - 1e-9,), False),
        (GateKind.U3, (PI, 0.1, 0.2), True),
        (GateKind.U3, (PI / 2 + 1e-9, 0.1, 0.2), False),
        (GateKind.U3, (1e-9, 0.1, 0.2), False),
        (GateKind.H, (), False),
    ])
    def test_one_gate_run_kept_as_is(self, kind, params, kept):
        c = Circuit(1)
        c.append(Instruction(kind, (0,), params))
        out = merge_1q_runs(c).instructions
        assert (bool(out) and out[0] is c.instructions[0]) is kept
        _assert_matches_reference_merge(c)

    @pytest.mark.parametrize("body,dropped,kinds", [
        ("x q[0]; x q[0];", True, []),
        ("id q[0];", True, []),
        ("cx q[0],q[1]; h q[1]; h q[1]; cx q[0],q[1];", True, ["cx", "cx"]),
        ("u2(0.1,0.2) q[0];", False, ["u2"]),
        ("x q[0];", False, ["u3"]),
        ("h q[0]; t q[0];", False, ["u2"]),
        ("x q[0]; x q[0]; h q[1];", True, ["u2"]),
    ], ids=["xx", "id", "hh_between_cx", "pass_through", "x", "fused",
            "xx_and_h"])
    def test_drop_flag(self, body, dropped, kinds):
        c = parse_program("qreg q[2]; " + body)
        out, got = synth._merge_runs(c)
        assert got is dropped
        assert [i.kind.value for i in out] == kinds
        assert out == merge_1q_runs(c)

    def test_each_distinct_run_fused_once_per_call(self, monkeypatch):
        # The run h-t on four wires, three times over, and x-x twice: two
        # distinct runs, so two fusions per call, rebuilt on each wire.
        c = Circuit(4)
        for _ in range(3):
            for q in range(4):
                c.h(q).t(q)
            c.barrier(0, 1, 2, 3)
        c.x(1).x(1).barrier(1).x(1).x(1)
        one = merge_1q_runs(Circuit(1).h(0).t(0)).instructions
        calls = spy_calls(monkeypatch, synth, ("_fuse",))
        for _ in range(2):
            calls.clear()
            out = merge_1q_runs(c).instructions
            assert calls == ["_fuse", "_fuse"]
            fused = [i for i in out if i.kind is not GateKind.BARRIER]
            assert fused == [i._replace(qubits=(q,)) for _ in range(3)
                             for q in range(4) for i in one]

    def test_no_state_between_calls(self):
        a = random_full_circuit(random.Random(13), 5, 40)
        b = random_full_circuit(random.Random(14), 5, 40)
        before = dict(vars(synth))
        first = merge_1q_runs(a).instructions
        merge_1q_runs(b)
        assert merge_1q_runs(a).instructions == first
        assert vars(synth) == before


class TestCancelCX:
    def test_adjacent_pair(self):
        c = Circuit(2)
        c.cx(0, 1)
        c.cx(0, 1)
        assert cancel_adjacent_cx(c).instructions == []

    def test_different_orientation_kept(self):
        c = Circuit(2)
        c.cx(0, 1)
        c.cx(1, 0)
        assert cancel_adjacent_cx(c) == c

    def test_blocked_wire_kept(self):
        c = Circuit(2)
        c.cx(0, 1)
        c.h(0)
        c.cx(0, 1)
        assert cancel_adjacent_cx(c) == c

    def test_chain_collapses(self):
        c = Circuit(2)
        for _ in range(4):
            c.cx(0, 1)
        assert cancel_adjacent_cx(c).instructions == []

    def test_nested_pairs_collapse_in_one_call(self):
        # Each cancelled pair uncovers the gates below it on both wires.
        c = Circuit(3)
        c.cx(0, 2)
        c.cx(0, 1)
        c.cx(1, 2)
        c.cx(1, 2)
        c.cx(0, 1)
        c.cx(0, 2)
        assert cancel_adjacent_cx(c).instructions == []
        c.h(1)
        c.cx(0, 1)
        c.cx(0, 1)
        assert [i.kind for i in cancel_adjacent_cx(c)] == [GateKind.H]

    def test_idempotent(self):
        import random as pyrandom
        prng = pyrandom.Random(44)
        from helpers import random_circuit
        for _ in range(20):
            c = random_circuit(prng, 4, 30)
            once = cancel_adjacent_cx(c)
            assert cancel_adjacent_cx(once) == once
            assert equivalent_up_to_global_phase(c, once).equivalent


def _cx_dense(rng: random.Random, swaps: bool = False) -> Circuit:
    """CX among 2-4 wires (with `swaps`, also SWAP and SWAPZ), and x, h, t
    and tdg gates whose runs often fuse to the identity, so a merge can
    uncover CX pairs to cancel."""
    n = rng.randrange(2, 5)
    c = Circuit(n)
    for _ in range(rng.randrange(4, 40)):
        if rng.random() < 0.5:
            kind = (rng.choice([GateKind.CX, GateKind.SWAP, GateKind.SWAPZ])
                    if swaps else GateKind.CX)
            c.append(Instruction(kind, tuple(rng.sample(range(n), 2))))
        else:
            c.append(Instruction(rng.choice(
                [GateKind.X, GateKind.H, GateKind.T, GateKind.TDG]),
                (rng.randrange(n),)))
    return c


CX_DENSE = [_cx_dense(random.Random(seed)) for seed in range(300)]


class TestCleanupRound:
    """pipeline()'s cleanup cancels again after a merge only when that merge
    dropped a run.  These are the facts that skip rests on."""

    def test_cancel_idempotent(self):
        for c in CX_DENSE:
            once = cancel_adjacent_cx(c)
            assert cancel_adjacent_cx(once).instructions == once.instructions

    def test_nothing_to_cancel_after_merge_without_drop(self):
        seen = {(False, False): 0, (True, False): 0, (True, True): 0}
        for c in CX_DENSE:
            merged, dropped = synth._merge_runs(cancel_adjacent_cx(c))
            cancels = len(cancel_adjacent_cx(merged)) < len(merged)
            assert dropped or not cancels, c.instructions
            seen[dropped, cancels] += 1
        # Both branches occur, and a drop does at times uncover a pair.
        assert min(seen.values()) >= 5, seen


def _full(seed: int) -> list[Circuit]:
    """A random circuit over every kind (open controls, resets, annotations,
    barriers, measurement), and its unrolled form, where CX pairs cancel."""
    rng = random.Random(seed)
    c = random_full_circuit(rng, rng.randrange(2, 6), 40, measure=bool(seed % 2))
    return [c, unroll(c)]


SWAP_DENSE = [_cx_dense(random.Random(seed), swaps=True) for seed in range(300)]
# A cancelled pair joins runs that fuse to the identity, so the pass needs
# another one; SWAP, SWAPZ or a run re-opened twice supply the pairs in turn.
# The last one's joined run fuses to the identity only until a t joins it.
FALLBACK = [parse_program("qreg q[3]; " + body) for body in (
    "cx q[0],q[1]; h q[1]; cx q[0],q[1]; cx q[0],q[1]; h q[1]; cx q[0],q[1];",
    "swap q[0],q[1]; h q[1]; cx q[2],q[1]; cx q[2],q[1]; h q[1];"
    " cx q[0],q[1];",
    "cx q[0],q[1]; t q[1]; swap q[0],q[1]; swap q[0],q[1]; tdg q[1];"
    " cx q[0],q[1];",
    "cx q[2],q[0]; x q[0]; swapz q[1],q[0]; cx q[0],q[1]; cx q[1],q[0];"
    " x q[0]; cx q[2],q[0];",
    "cx q[0],q[1]; h q[1]; cx q[2],q[1]; cx q[2],q[1]; h q[1];"
    " cx q[2],q[1]; cx q[2],q[1]; cx q[0],q[1];",
    "cx q[0],q[1]; h q[1]; cx q[2],q[1]; cx q[2],q[1]; h q[1];"
    " cx q[2],q[1]; cx q[2],q[1]; t q[1]; cx q[0],q[1];",
)]


def _corpus(name: str) -> list[Circuit]:
    return (CX_DENSE + SWAP_DENSE if name == "cx_dense"
            else [c for seed in range(150) for c in _full(seed)]) + FALLBACK


def _expand_swaps(c: Circuit) -> Circuit:
    out = []
    for inst in c.instructions:
        out += (swap_to_cx(*inst.qubits) if inst.kind is GateKind.SWAP
                else swapz_to_cx(*inst.qubits) if inst.kind is GateKind.SWAPZ
                else [inst])
    return c.replace(out)


def _check_cleanup_pass(c: Circuit, seen: dict) -> None:
    """Check `_merge_runs(c, cancel=True)` against its definition: with x,
    c with SWAP/SWAPZ expanded, R = merge(cancel(merge(x))); the flag is
    whether that second merge dropped a run; the output is R without the
    flag and merges to R with it."""
    x = _expand_swaps(c)
    ref, dropped = synth._merge_runs(cancel_adjacent_cx(merge_1q_runs(x)))
    out, more = synth._merge_runs(c, cancel=True)
    assert (out.n_qubits, out.n_clbits) == (c.n_qubits, c.n_clbits)
    assert more is dropped, c.instructions
    assert (merge_1q_runs(out) if more else out).instructions == \
        ref.instructions, c.instructions
    seen[more] += 1


class TestFusedRound:
    """_merge_runs(c, cancel=True), each pass of pipeline()'s cleanup, is
    merge_1q_runs(cancel_adjacent_cx(merge_1q_runs(x))) in one pass, x
    being c with its SWAP/SWAPZ expanded, or merges to it when it asks for
    another pass."""

    @pytest.mark.parametrize("corpus", ["cx_dense", "full"])
    def test_equals_merge_then_cancel(self, corpus):
        seen = {False: 0, True: 0}
        for c in _corpus(corpus):
            _check_cleanup_pass(c, seen)
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("corpus", ["cx_dense", "full"])
    def test_on_merged_input_equals_cancel(self, corpus):
        # On merged input the first merge changes nothing, so the pass is
        # the cancellation and the merge of the runs it joins.  A second
        # pass runs on a first one's output, merged but for the runs left
        # in place.
        seen = {False: 0, True: 0}
        for c in _corpus(corpus):
            m = merge_1q_runs(c)
            x = _expand_swaps(m)
            assert merge_1q_runs(x).instructions == x.instructions
            _check_cleanup_pass(m, seen)
            out, more = synth._merge_runs(c, cancel=True)
            if more:
                _check_cleanup_pass(out, seen)
        assert min(seen.values()) >= 5, seen


# Offsets, in units of EPS_ANGLE, around each angle where the cheapest
# u-gate changes.
_OFFSETS = [s * d for d in (0.0, 0.5, 0.999, 1.001, 2.0) for s in (1, -1)]


def _ref_fuse(p: U3Params) -> tuple | None:
    inst = ref_u3params_instruction(p, 0)
    return None if inst is None else (inst.kind, inst.params)


def _boundary_params():
    """Canonical u3 angles around the rule's boundaries: theta near 0,
    pi/2, pi and 2*pi, and phi + lam near 0, 2*pi or off them."""
    for theta in (0.0, PI / 2, PI, TWO_PI):
        for dt in _OFFSETS:
            for phi in (0.0, 0.3):
                for s in (0.0, TWO_PI, 1.0):
                    for ds in _OFFSETS:
                        lam = canonical_angle(s - phi + ds * EPS_ANGLE)
                        yield canonical_angle(theta + dt * EPS_ANGLE), phi, lam


def _boundary_gates() -> list[Instruction]:
    """Lone gates whose angles sit at the rule's boundaries, and every
    named gate."""
    lone = [Instruction(k, (0,), ()) for k in synth._NAMED_U3]
    for d in _OFFSETS:
        x = d * EPS_ANGLE
        lone += [Instruction(GateKind.U1, (0,), (x,)),
                 Instruction(GateKind.U1, (0,), (TWO_PI + x,)),
                 Instruction(GateKind.U2, (0,), (x, TWO_PI - x))]
        for theta in (0.0, PI / 2, PI, TWO_PI):
            for phi, lam in ((0.0, x), (0.3, TWO_PI - 0.3 + x), (0.1, 0.2)):
                lone.append(Instruction(GateKind.U3, (0,),
                                        (theta + x, phi, lam)))
    return lone


class TestInlinedFuse:
    """Every caller of the u-gate rule, synth._u_gate, returns at the
    boundary angles what the circular-test reference does."""

    def test_fused_run_at_boundaries(self):
        kinds = set()
        for theta, phi, lam in _boundary_params():
            # u3(t, phi, 0) then u1(lam) is u3(t, phi, lam).
            run = [Instruction(GateKind.U3, (0,), (theta, phi, 0.0)),
                   Instruction(GateKind.U1, (0,), (lam,))]
            m = synth._u3_entries(*synth._u3_angles(run[0]))
            m = synth._mul2(synth._u3_entries(*synth._u3_angles(run[1])), m)
            got = synth._fuse(run)
            assert got == _ref_fuse(synth._zyz(*m)), run
            kinds.add(got and got[0])
        assert kinds == {None, GateKind.U1, GateKind.U2, GateKind.U3}

    def test_lone_gate_at_boundaries(self):
        kinds = set()
        for inst in _boundary_gates():
            got = synth._fuse(inst)
            assert got == _ref_fuse(as_u3params(inst)), inst
            kinds.add(got and got[0])
        assert kinds == {None, GateKind.U1, GateKind.U2, GateKind.U3}

    def test_u3params_instruction_and_is_identity_at_boundaries(self):
        kinds = set()
        for angles in _boundary_params():
            p = U3Params(*angles)
            ref = ref_u3params_instruction(p, 2)
            assert u3params_instruction(p, 2) == ref, angles
            assert p.is_identity() is (ref is None), angles
            kinds.add(ref and ref.kind)
        assert kinds == {None, GateKind.U1, GateKind.U2, GateKind.U3}

    def test_u3params_instruction_emits_canonical_angles(self):
        # Each angle shifted below 0 or to 2*pi and above: the gate is its
        # own checked rebuild, and the reference's on the shifted angles.
        p = U3Params(-1.001e-8, 0.0, 0.0)
        assert (u3params_instruction(p, 0)
                == Instruction(GateKind.U3, (0,), (-1.001e-8, 0.0, 0.0)))
        for angles in _boundary_params():
            for shifts in itertools.product((-TWO_PI, TWO_PI), repeat=3):
                p = U3Params(*(x + d for x, d in zip(angles, shifts)))
                got = u3params_instruction(p, 2)
                assert got == ref_u3params_instruction(p, 2), p
                assert got is None or got == Instruction(*got), p

    def test_is_canonical_u_iff_rule_rebuilds_the_gate(self):
        seen = {False: 0, True: 0}
        for inst in _boundary_gates():
            rebuilt = u3params_instruction(as_u3params(inst), 0) == inst
            assert synth._is_canonical_u(inst) is rebuilt, inst
            seen[rebuilt] += 1
        assert min(seen.values()) >= 10, seen


class TestPureStateGates:
    def test_zero_to_zero_is_identity(self):
        assert pure_to_zero_gate(0.0, 0.0).is_identity()

    def test_plus_maps_to_zero(self):
        p = pure_to_zero_gate(PI / 2, 0.0)
        v = p.matrix() @ np.array([1, 1]) / math.sqrt(2)
        assert abs(abs(v[0]) - 1.0) < 1e-9  # lands on |0> ray

    def test_random_pure_to_zero(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            th = rng.uniform(0, PI)
            ph = rng.uniform(0, 2 * PI)
            g = pure_to_zero_gate(th, ph)
            v = g.matrix() @ pure_state_vector(th, ph)
            assert abs(abs(v[0]) - 1.0) < 1e-9

    def test_pure_to_pure_identity(self):
        assert pure_to_pure_gate((1.0, 2.0), (1.0, 2.0)).is_identity()

    def test_zero_to_state_is_u3(self):
        th, ph = 1.234, 4.321
        p = pure_to_pure_gate((0.0, 0.0), (th, ph))
        v = p.matrix() @ np.array([1.0, 0.0])
        assert rays_close(v, pure_state_vector(th, ph))
        assert angles_equal(p.theta, th)
        assert angles_equal(p.phi, ph)

    def test_random_pure_to_pure(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            src = (rng.uniform(0, PI), rng.uniform(0, 2 * PI))
            dst = (rng.uniform(0, PI), rng.uniform(0, 2 * PI))
            v = pure_to_pure_gate(src, dst).matrix() @ pure_state_vector(*src)
            assert rays_close(v, pure_state_vector(*dst))


class TestPrepareTwoQubit:
    def test_zero_target_from_zero_inputs(self):
        c = prepare_two_qubit_state(np.array([1, 0, 0, 0]), (0, 0), (0, 0))
        assert c.instructions == []

    def test_bell_matches_h_cx(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        c = prepare_two_qubit_state(bell, (0, 0), (0, 0))
        ref = Circuit(2)
        ref.h(0)
        ref.cx(0, 1)
        assert rays_close(simulate(c), simulate(ref))
        assert cx_count(c) == 1

    def test_random_targets(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            target = random_statevector(rng, 2)
            i0 = (rng.uniform(0, PI), rng.uniform(0, 2 * PI))
            i1 = (rng.uniform(0, PI), rng.uniform(0, 2 * PI))
            c = prepare_two_qubit_state(target, i0, i1)
            assert cx_count(c) <= 1
            assert count_1q(c) <= 4
            init = np.kron(pure_state_vector(*i0), pure_state_vector(*i1))
            out = simulate(c, initial_state=init)
            assert rays_close(out, target)

    def test_product_target_needs_no_cx(self):
        rng = np.random.default_rng(62)
        a = random_statevector(rng, 1)
        b = random_statevector(rng, 1)
        c = prepare_two_qubit_state(np.kron(a, b), (0, 0), (0, 0))
        assert cx_count(c) == 0
        assert rays_close(simulate(c), np.kron(a, b))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            prepare_two_qubit_state(np.array([1, 0, 0, 1.0]), (0, 0), (0, 0))

    def test_unknown_inputs_rejected(self):
        with pytest.raises(ValueError):
            prepare_two_qubit_state(np.array([1, 0, 0, 0.0]), None, (0, 0))


class TestEmissionPicker:
    def test_identity_returns_none(self):
        assert u3params_instruction(U3Params(0, 0, 0), 0) is None

    def test_phase_only_becomes_u1(self):
        inst = u3params_instruction(U3Params(0, 1.0, 0.5), 0)
        assert inst.kind is GateKind.U1
        assert angles_equal(inst.params[0], 1.5)

    def test_half_turn_becomes_u2(self):
        inst = u3params_instruction(U3Params(PI / 2, 1.0, 0.5), 0)
        assert inst.kind is GateKind.U2

    def test_general_becomes_u3(self):
        inst = u3params_instruction(U3Params(1.0, 1.0, 0.5), 0)
        assert inst.kind is GateKind.U3

    def test_named_gate_params_match_matrices(self):
        for kind, mat in ((GateKind.X, ref_matrix_1q(GateKind.X)),
                          (GateKind.H, ref_matrix_1q(GateKind.H)),
                          (GateKind.S, ref_matrix_1q(GateKind.S)),
                          (GateKind.TDG, ref_matrix_1q(GateKind.TDG))):
            p = as_u3params(Instruction(kind, (0,)))
            assert mats_close(p.matrix(), mat)
