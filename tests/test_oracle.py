import math
import random
from pathlib import Path

import numpy as np
import pytest

from rpoc import (AnnotationError, Circuit, GateKind, Instruction,
                  equivalent_up_to_global_phase, reduced_qubit_state, simulate)
from rpoc import oracle
from rpoc.bench import gen_grover, gen_qv_like
from rpoc.oracle import (MAX_QUBITS, ResetError, WidthError,
                         expand_statevector, total_variation_distance,
                         touched_wires, trace_distance_to_pure)
from rpoc.passes import PipelineOptions, line_coupling, pipeline
from rpoc.synth import pure_state_vector

from helpers import (REF_MAX_QUBITS, TWO_PI, partial_trace_oracle,
                     random_circuit, random_full_circuit, random_statevector,
                     ref_apply, ref_embed, ref_pure_params, ref_simulate,
                     spy_calls)

SQ2 = 1 / math.sqrt(2)


class TestSimulate:
    def test_hadamard(self):
        c = Circuit(1)
        c.h(0)
        assert np.allclose(simulate(c), [SQ2, SQ2])

    def test_bell(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        assert np.allclose(simulate(c), [SQ2, 0, 0, SQ2])

    def test_qubit_order_is_big_endian(self):
        c = Circuit(2)
        c.x(0)
        sv = simulate(c)
        assert abs(sv[2]) == pytest.approx(1.0)  # |10>, qubit 0 is the high bit

    def test_norm_preserved_long_circuit(self):
        rng = random.Random(17)
        c = random_circuit(rng, 5, 400)
        sv = simulate(c)
        assert abs(np.linalg.norm(sv) - 1.0) < 1e-10

    def test_norm_preserved_ten_thousand_gates(self):
        rng = random.Random(18)
        c = random_circuit(rng, 3, 10_000)
        sv = simulate(c)
        assert abs(np.linalg.norm(sv) - 1.0) < 1e-10

    def test_width_limit(self):
        with pytest.raises(WidthError, match="limited to 16 qubits, got 17"):
            simulate(Circuit(17))

    def test_swapz_definition(self):
        # swapz must act exactly like its defining 2-CX circuit.
        rng = np.random.default_rng(5)
        a = Circuit(2).swapz(0, 1)
        b = Circuit(2)
        b.cx(0, 1)
        b.cx(1, 0)
        init = random_statevector(rng, 2)
        assert np.allclose(simulate(a, initial_state=init),
                           simulate(b, initial_state=init))

    def test_open_control_cx(self):
        c = Circuit(2)
        c.append(Instruction(GateKind.CX, (0, 1), open_mask=(True,)))
        sv = simulate(c)  # control |0> fires the open control
        assert abs(sv[1]) == pytest.approx(1.0)

    def test_mcx_open_mask(self):
        c = Circuit(3)
        c.x(1)
        c.append(Instruction(GateKind.MCX, (0, 1, 2), open_mask=(True, False)))
        sv = simulate(c)
        assert abs(sv[0b011]) == pytest.approx(1.0)

    def test_cswap(self):
        c = Circuit(3)
        c.x(0)
        c.x(1)
        c.cswap(0, 1, 2)
        sv = simulate(c)
        assert abs(sv[0b101]) == pytest.approx(1.0)


class TestMeasurement:
    def test_distribution(self):
        c = Circuit(2, 2)
        c.h(0)
        c.measure(0, 0)
        c.measure(1, 1)
        d = simulate(c)
        assert d["00"] == pytest.approx(0.5)
        assert d["10"] == pytest.approx(0.5)

    def test_unmeasured_qubits_marginalized(self):
        c = Circuit(2, 1)
        c.h(1)
        c.x(0)
        c.measure(0, 0)
        d = simulate(c)
        assert d == {"1": pytest.approx(1.0)}

    def test_mid_circuit_measure_rejected(self):
        c = Circuit(1, 1)
        c.measure(0, 0)
        c.x(0)
        with pytest.raises(ValueError, match="mid-circuit"):
            simulate(c)

    def test_duplicate_clbit_rejected(self):
        c = Circuit(2, 1)
        c.measure(0, 0)
        c.measure(1, 0)
        with pytest.raises(ValueError):
            simulate(c)

    def test_distribution_matches_per_bit_keys(self):
        # Reference: each key built one clbit character at a time.
        def ref(state, measured, n_clbits, n):
            probs = np.abs(state.reshape([2] * n)) ** 2
            keep = sorted(measured)
            drop = tuple(q for q in range(n) if q not in measured)
            if drop:
                probs = probs.sum(axis=drop)
            probs = probs.reshape(-1)
            dist = {}
            for flat in np.flatnonzero(probs > 1e-15):
                key = ["0"] * n_clbits
                for j, q in enumerate(keep):
                    key[measured[q]] = str((flat >> (len(keep) - 1 - j)) & 1)
                dist["".join(key)] = float(probs[flat])
            return dist

        rng = np.random.default_rng(7)
        pyrng = random.Random(7)
        for _ in range(200):
            n = pyrng.randint(1, 7)
            state = random_statevector(rng, n)
            if pyrng.random() < 0.5:  # a few amplitudes only
                state[rng.random(state.size) < 0.7] = 0.0
                state /= np.linalg.norm(state) or 1.0
            axes = pyrng.sample(range(n), pyrng.randint(1, n))
            n_clbits = len(axes) + pyrng.randint(0, 2)
            measured = dict(zip(axes, pyrng.sample(range(n_clbits), len(axes))))
            got = oracle._distribution(state, measured, n_clbits, n)
            want = ref(state, measured, n_clbits, n)
            assert list(got.items()) == list(want.items())


class TestResetAnnot:
    def test_reset_pure_qubit(self):
        c = Circuit(2)
        c.h(0)
        c.reset(0)
        sv = simulate(c)
        assert abs(sv[0]) == pytest.approx(1.0)

    def test_reset_entangled_rejected(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        c.reset(0)
        with pytest.raises(ResetError):
            simulate(c)

    def test_annot_holds(self):
        c = Circuit(1)
        c.h(0)
        c.annot(math.pi / 2, 0.0, 0)
        simulate(c)  # no exception

    def test_annot_failure_reports_location(self):
        c = Circuit(1)
        c.x(0)
        c.annot(0.0, 0.0, 0)
        with pytest.raises(AnnotationError) as e:
            simulate(c)
        assert e.value.qubit == 0
        assert e.value.position == 1
        assert e.value.trace_distance > 0.9

    def test_grover_style_clean_ancilla_annot(self):
        # An uncomputed helper wire returns to |0>, so its annotation holds
        # even though the data wires stay entangled around it.
        c = Circuit(4)
        for q in range(3):
            c.h(q)
        c.ccx(0, 1, 3)
        c.cz(3, 2)
        c.ccx(0, 1, 3)
        c.annot(0.0, 0.0, 3)
        simulate(c)


class TestEquivalence:
    def test_reflexive(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        rep = equivalent_up_to_global_phase(c, c)
        assert rep.equivalent and rep.fidelity == pytest.approx(1.0)

    def test_global_phase_detected(self):
        a = Circuit(1)
        a.x(0)
        b = Circuit(1)
        b.z(0)
        b.x(0)
        b.z(0)
        rep = equivalent_up_to_global_phase(a, b)
        assert rep.equivalent
        assert abs(abs(rep.phase) - math.pi) < 1e-9  # Z X Z = -X

    def test_cx_with_one_control_equals_x(self):
        a = Circuit(2)
        a.x(0)
        a.cx(0, 1)
        b = Circuit(2)
        b.x(0)
        b.x(1)
        assert equivalent_up_to_global_phase(a, b).equivalent

    def test_inequivalent(self):
        a = Circuit(1)
        a.x(0)
        b = Circuit(1)
        b.h(0)
        rep = equivalent_up_to_global_phase(a, b)
        assert not rep.equivalent and rep.fidelity < 0.9

    def test_tol_outside_unit_interval_rejected(self):
        a = Circuit(1)
        a.h(0)
        m = Circuit(1, 1)
        m.h(0)
        m.measure(0, 0)
        for c in (a, m):  # the fidelity and the distribution check
            for tol in (-1e-9, 1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match=r"tol must be in \[0, 1\)"):
                    equivalent_up_to_global_phase(c, c, tol=tol)

    def test_width_mismatch_without_perm(self):
        with pytest.raises(ValueError):
            equivalent_up_to_global_phase(Circuit(1), Circuit(2))

    def test_measured_distribution_compare(self):
        a = Circuit(2, 1)
        a.h(0)
        a.measure(0, 0)
        b = Circuit(2, 1)
        b.h(1)
        b.measure(1, 0)
        assert equivalent_up_to_global_phase(a, b).equivalent

    def test_structure_mismatch(self):
        a = Circuit(1, 1)
        a.measure(0, 0)
        with pytest.raises(ValueError):
            equivalent_up_to_global_phase(a, Circuit(1, 1))

    def test_symmetric(self):
        rng = random.Random(3)
        a = random_circuit(rng, 3, 20)
        b = random_circuit(rng, 3, 20)
        rab = equivalent_up_to_global_phase(a, b)
        rba = equivalent_up_to_global_phase(b, a)
        assert rab.equivalent == rba.equivalent
        assert rab.fidelity == pytest.approx(rba.fidelity)

    def test_transitive_within_combined_tolerance(self):
        # Three presentations of the same computation.
        a = Circuit(2)
        a.h(0)
        a.cx(0, 1)
        b = Circuit(2)
        b.h(0)
        b.cx(0, 1)
        b.z(0)
        b.z(0)
        c = Circuit(2)
        c.h(0)
        c.x(1)
        c.cx(0, 1)
        c.x(1)
        c.cx(0, 1)
        c.cx(0, 1)
        rab = equivalent_up_to_global_phase(a, b, tol=1e-9)
        rbc = equivalent_up_to_global_phase(b, c, tol=1e-9)
        rac = equivalent_up_to_global_phase(a, c, tol=4e-9)
        assert rab.equivalent and rbc.equivalent and rac.equivalent

    def test_perm_expansion(self):
        sv = np.array([0.0, 1.0])  # |1> on one wire
        out = expand_statevector(sv, 3, [2])
        assert abs(out[0b001]) == pytest.approx(1.0)

    def test_total_variation(self):
        assert total_variation_distance({"0": 1.0}, {"1": 1.0}) == pytest.approx(1.0)
        assert total_variation_distance({"0": 0.5, "1": 0.5},
                                        {"0": 0.5, "1": 0.5}) == 0.0


class TestReducedState:
    def test_bell_is_maximally_mixed(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        rho = reduced_qubit_state(simulate(c), 0)
        assert np.allclose(rho, np.eye(2) / 2)

    def test_product_factor(self):
        c = Circuit(2)
        c.h(1)
        rho = reduced_qubit_state(simulate(c), 1)
        plus = pure_state_vector(math.pi / 2, 0.0)
        assert np.max(np.abs(rho - np.outer(plus, plus.conj()))) < 1e-12

    def test_against_index_summation_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            sv = random_statevector(rng, n)
            q = int(rng.integers(n))
            assert np.allclose(reduced_qubit_state(sv, q),
                               partial_trace_oracle(sv, q))

    def test_purity_range(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            sv = random_statevector(rng, 3)
            rho = reduced_qubit_state(sv, 0)
            purity = float(np.real(np.trace(rho @ rho)))
            assert 0.5 - 1e-9 <= purity <= 1.0 + 1e-9
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.allclose(rho, rho.conj().T)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            reduced_qubit_state(np.array([1.0, 0, 0, 0]), 2)

    def test_trace_distance(self):
        v0 = np.array([1.0, 0.0])
        v1 = np.array([0.0, 1.0])
        assert trace_distance_to_pure(np.outer(v0, v0), v1) == pytest.approx(1.0)
        assert trace_distance_to_pure(np.outer(v0, v0), v0) == pytest.approx(0.0)

    def test_trace_distance_matches_eigenvalues(self):
        # The closed form against half the absolute eigenvalue sum of
        # rho - |v><v|, for mixed and pure rho.
        rng = np.random.default_rng(52)
        for i in range(200):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if i % 2:
                a[:, 1] = 0.0  # rank one: a pure state
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - np.outer(v, v.conj()))))
            assert abs(trace_distance_to_pure(rho, v) - want) <= 1e-12


def _relabel(c: Circuit, perm: list[int], n_out: int) -> Circuit:
    """c with wire q moved to perm[q] on an n_out-wire register."""
    out = Circuit(n_out, c.n_clbits)
    for inst in c.instructions:
        out.append(Instruction(inst.kind, tuple(perm[q] for q in inst.qubits),
                               inst.params, inst.clbits, inst.open_mask))
    return out


def _has_reset(c: Circuit) -> bool:
    return any(i.kind is GateKind.RESET for i in c.instructions)


def _assert_same(got, want, up_to_phase: bool):
    """Statevectors agree to 1e-12 (after aligning one global phase when a
    reset left the phase to convention); distributions to 1e-12 in TV."""
    if isinstance(want, dict):
        assert isinstance(got, dict)
        assert total_variation_distance(got, want) <= 1e-12
        return
    if up_to_phase:
        ip = np.vdot(got, want)
        got = got * (ip / abs(ip))
    assert np.max(np.abs(got - want)) <= 1e-12


class TestAgainstReference:
    """Differential checks against the dense-matrix reference simulator in
    helpers.py, on a fixed corpus of random circuits over every gate kind,
    padded with idle wires."""

    CASES = 60

    @staticmethod
    def _corpus(seed: int):
        rng = random.Random(seed)
        for i in range(TestAgainstReference.CASES):
            n = rng.randint(1, REF_MAX_QUBITS)
            active = sorted(rng.sample(range(n), rng.randint(1, n)))
            if i % 4 == 1:  # every wire busy: the widest simulated states
                n, active = REF_MAX_QUBITS, list(range(REF_MAX_QUBITS))
            yield rng, random_full_circuit(rng, n, rng.randint(1, 30), active,
                                           measure=i % 3 == 0)

    def test_simulate_matches_reference(self):
        kinds = set()
        for _, c in self._corpus(41):
            kinds.update(i.kind for i in c.instructions)
            _assert_same(simulate(c), ref_simulate(c), _has_reset(c))
        assert kinds == set(GateKind)  # the corpus covers every kind

    def test_touched_wires_state_matches_reference(self):
        for _, c in self._corpus(42):
            want = ref_simulate(c)
            if isinstance(want, dict):
                continue
            wires = touched_wires(c)
            n = c.n_qubits
            idle_zero = [i for i in range(2 ** n)
                         if all(not (i >> (n - 1 - q)) & 1
                                for q in range(n) if q not in wires)]
            _assert_same(simulate(c, wires=wires), want[idle_zero],
                         _has_reset(c))

    def test_equivalence_matches_reference_under_random_perm(self):
        for rng, a in self._corpus(43):
            n_b = rng.randint(a.n_qubits, REF_MAX_QUBITS)
            perm = rng.sample(range(n_b), a.n_qubits)
            same = _relabel(a, perm, n_b)
            other = random_full_circuit(
                rng, n_b, rng.randint(1, 10),
                measure=any(i.kind is GateKind.MEASURE for i in a.instructions))
            ra = ref_simulate(a)
            for b in (same, other):
                rb = ref_simulate(b)
                rep = equivalent_up_to_global_phase(a, b, perm=perm)
                if isinstance(ra, dict):
                    want = 1.0 - total_variation_distance(ra, rb)
                else:
                    want = abs(np.vdot(ref_embed(ra, n_b, perm), rb)) ** 2
                assert abs(rep.fidelity - want) <= 1e-12
            assert equivalent_up_to_global_phase(a, same, perm=perm).equivalent

    def test_reused_gate_views_alias_the_state(self):
        # simulate() caches the views each CX/CCX/SWAP key acts through and
        # reuses them; a RESET between uses renormalizes the state in place,
        # and 1q gates update it through the matmul (wire 1) and elementwise
        # (wires 0, 2, 5) kernels.  Closed and open controls on the same
        # wires are distinct keys; CZ shares the closed CX's views.
        c = Circuit(6)
        for q, (t, p, l) in enumerate([(0.4, 0.1, 0.7), (1.1, 0.5, 0.2),
                                       (2.0, 1.3, 0.4), (0.9, 2.2, 1.5),
                                       (1.7, 0.3, 2.9), (0.6, 1.9, 0.8)]):
            c.u3(t, p, l, q)
        ccx_open = Instruction(GateKind.CCX, (0, 1, 3), open_mask=(True, False))
        cx_open = Instruction(GateKind.CX, (2, 0), open_mask=(True,))
        for _ in range(3):
            c.cx(4, 5)
            c.append(ccx_open)
            c.ccx(0, 1, 3)
            c.swap(1, 2)
            c.append(cx_open)
            c.cx(2, 0)
            c.cz(4, 5)
            c.cz(4, 5)
            c.cx(4, 5)
            c.swap(4, 5)
            c.h(5)
            c.reset(4)
            c.u3(0.3, 1.2, 2.1, 1)
            c.u3(1.4, 0.2, 0.5, 0)
            c.t(2)
            c.u1(0.7, 5)
            c.cx(5, 4)
            c.append(ccx_open)
            c.swap(1, 2)
            c.cx(5, 4)
            c.swap(4, 5)
        _assert_same(simulate(c), ref_simulate(c), True)

    def test_initial_state_is_not_mutated(self):
        # From a random start, annotations and resets placed for |0...0>
        # need not hold, so they are left out.
        rng = np.random.default_rng(44)
        for _, src in self._corpus(44):
            c = Circuit(src.n_qubits)
            for inst in src.instructions:
                if inst.kind not in (GateKind.ANNOT, GateKind.RESET,
                                     GateKind.MEASURE):
                    c.append(inst)
            init = random_statevector(rng, c.n_qubits)
            keep = init.copy()
            _assert_same(simulate(c, initial_state=init),
                         ref_simulate(c, initial_state=init), False)
            assert np.array_equal(init, keep)

    # simulate() keeps a wire as its own 2-vector until a multi-qubit gate,
    # ANNOT or RESET first touches it, and applies a two-wire run of CX with
    # its 1q gates as one 4x4 kernel: the corpus below stresses both.

    @staticmethod
    def _run_corpus(seed: int, cases: int = 40):
        rng = random.Random(seed)
        for i in range(cases):
            n = 3 + i % 6
            yield rng, _two_wire_run_circuit(rng, n, rng.randint(0, n - 2),
                                             rng.randint(20, 80), i % 3 == 0)

    def test_two_wire_runs_match_reference(self, monkeypatch):
        calls = spy_calls(monkeypatch, oracle, ("_apply_2q",))
        kinds = set()
        for _, c in self._run_corpus(48):
            kinds.update(i.kind for i in c.instructions)
            _assert_same(simulate(c), ref_simulate(c), _has_reset(c))
        assert kinds >= {GateKind.CX, GateKind.SWAP, GateKind.SWAPZ,
                         GateKind.ANNOT, GateKind.RESET, GateKind.MEASURE,
                         GateKind.U1, GateKind.U2, GateKind.U3, GateKind.H}
        assert len(calls) > 40  # the corpus fuses many runs

    def test_runs_on_wires_in_any_order_with_idle_ones(self):
        # `wires` lists every wire, idle ones included, in a random order;
        # axis i of the result is wire wires[i].
        for rng, c in self._run_corpus(49, 20):
            want = ref_simulate(c)
            if isinstance(want, dict):
                continue
            n = c.n_qubits + 2
            padded = Circuit(n, c.n_clbits)
            padded.extend(c.instructions)
            wires = rng.sample(range(n), n)
            got = simulate(padded, wires=wires)
            want = ref_embed(want, n, list(range(c.n_qubits)))
            want = want.reshape([2] * n).transpose(wires).reshape(-1)
            _assert_same(got, want, _has_reset(c))

    def test_runs_from_initial_state(self):
        # Every wire joins up front; annotations, resets and measurements
        # placed for |0...0> are left out.
        np_rng = np.random.default_rng(50)
        for _, src in self._run_corpus(50, 20):
            c = src.replace([i for i in src.instructions if i.kind not in (
                GateKind.ANNOT, GateKind.RESET, GateKind.MEASURE)])
            init = random_statevector(np_rng, c.n_qubits)
            _assert_same(simulate(c, initial_state=init),
                         ref_simulate(c, initial_state=init), False)

    @pytest.mark.parametrize("n_cx,want", [(1, 1), (2, 1), (3, 1)])
    def test_one_kernel_per_block(self, monkeypatch, n_cx, want):
        # u3 u3 cx (u3 u3 cx)... u3 u3 on wires 1 and 2 of a joined state:
        # every block is one 4x4 call, a block with one CX too.
        rng = np.random.default_rng(51)
        c = Circuit(3)
        for i in range(n_cx):
            c.u3(0.3 + i, 1.1, 0.4, 1)
            c.u3(2.0, 0.2 + i, 1.3, 2)
            c.cx(*((1, 2) if i % 2 == 0 else (2, 1)))
        c.u3(0.9, 0.5, 2.2, 1)
        c.u3(1.4, 1.7, 0.6, 2)
        init = random_statevector(rng, 3)
        calls = spy_calls(monkeypatch, oracle, ("_apply_2q",))
        got = simulate(c, initial_state=init)
        assert len(calls) == want
        _assert_same(got, ref_simulate(c, initial_state=init), False)

    def test_lone_wires_never_join(self, monkeypatch):
        # Wires with only 1q gates and MEASURE stay 2-vectors: the stored
        # state never holds more than the two interacting wires until the
        # end.
        sizes = []
        apply_1q = oracle._apply_1q
        monkeypatch.setattr(oracle, "_apply_1q", lambda state, e, q: (
            sizes.append(state.size), apply_1q(state, e, q))[1])
        for measure in (False, True):
            c = Circuit(5, 5)
            for q in range(5):
                c.u3(0.3 * q + 0.1, 0.2, 0.5, q)
            c.cx(0, 1)
            c.h(2)
            c.u1(0.7, 3)
            c.h(0)
            if measure:
                for q in (4, 2, 1):
                    c.measure(q, q)
            sizes.clear()
            _assert_same(simulate(c), ref_simulate(c), False)
            assert sizes == [4]

    def test_lone_reset_then_annotation(self):
        # A wire that no multi-qubit gate touches, beside an entangled
        # pair: its RESET and ANNOT are checked on the joined state.
        c = Circuit(3)
        c.h(0)
        c.cx(0, 1)
        c.u3(1.1, 0.4, 0.9, 2)
        c.reset(2)
        c.u3(0.7, 1.3, 0.2, 2)
        c.annot(0.7, 1.3, 2)
        c.u1(0.5, 1)
        _assert_same(simulate(c), ref_simulate(c), True)
        c.annot(0.0, 0.0, 2)
        with pytest.raises(AnnotationError,
                           match="qubit 2 at instruction 7") as e:
            simulate(c)
        assert (e.value.qubit, e.value.position) == (2, 7)
        assert e.value.trace_distance == pytest.approx(math.sin(0.35))

    def test_lone_annotation_failure(self):
        c = Circuit(3)
        c.h(2)
        c.append(Instruction(GateKind.ANNOT, (2,), (0.0, 0.0)))
        with pytest.raises(AnnotationError, match="qubit 2 at instruction 1"):
            simulate(c)


def _two_wire_run_circuit(rng: random.Random, n: int, n_lone: int,
                          length: int, measure: bool) -> Circuit:
    """Random circuit for the growth and fusion paths of simulate().  Wires
    0..n_lone-1 never meet a multi-qubit gate: they get 1q gates, ANNOT
    (params from the reference state), RESET and, with `measure`, a final
    MEASURE.  The other wires get two-wire runs of 1-3 CX, each CX after
    non-diagonal gates on both of its wires; CX/u1 phase networks; SWAP; and
    SWAPZ onto a |0> wire; after a run, ANNOT or RESET where a wire is pure."""
    c = Circuit(n, n)
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    lone, active = list(range(n_lone)), list(range(n_lone, n))
    zero = set(active)       # active wires known to hold |0>
    named = [GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S,
             GateKind.T, GateKind.SDG]

    def add(inst: Instruction) -> None:
        nonlocal state
        step = Circuit(n)
        step.append(inst)
        state = ref_simulate(step, initial_state=state)
        c.append(inst)

    def angles(k: int) -> list[float]:
        return [rng.uniform(0, TWO_PI) for _ in range(k)]

    def pure_check(q: int) -> None:
        pure = ref_pure_params(partial_trace_oracle(state, q))
        if pure is None:
            return
        if rng.random() < 0.6:
            add(Instruction(GateKind.ANNOT, (q,), pure))
        else:
            add(Instruction(GateKind.RESET, (q,)))
            zero.add(q)

    while len(c.instructions) < length:
        r = rng.random()
        if r < 0.3 and lone:
            q, s = rng.choice(lone), rng.random()
            if s < 0.3:
                add(Instruction(rng.choice(named), (q,)))
            elif s < 0.6:
                k = rng.randint(1, 3)
                add(Instruction((GateKind.U1, GateKind.U2, GateKind.U3)[k - 1],
                                (q,), angles(k)))
            else:
                pure_check(q)
            continue
        a, b = rng.sample(active, 2)
        zero.difference_update((a, b))
        if r < 0.65:
            for _ in range(rng.randint(1, 3)):
                add(Instruction(GateKind.U3, (a,), angles(3)))
                add(Instruction(GateKind.U3, (b,), angles(3)))
                add(Instruction(GateKind.CX, rng.choice([(a, b), (b, a)])))
            for q in (a, b):
                if rng.random() < 0.5:
                    add(Instruction(GateKind.U3, (q,), angles(3)))
            if rng.random() < 0.3:
                pure_check(rng.choice((a, b)))
        elif r < 0.85:
            for _ in range(rng.randint(1, 6)):
                a, b = rng.sample(active, 2)
                zero.difference_update((a, b))
                add(Instruction(GateKind.CX, (a, b)))
                add(Instruction(GateKind.U1, (b,), angles(1)))
        elif r < 0.93 or not zero - {a}:
            add(Instruction(GateKind.SWAP, (a, b)))
        else:
            z = rng.choice(sorted(zero - {a}))
            add(Instruction(GateKind.SWAPZ, (a, z)))
            zero.discard(z)
            zero.add(a)
    if measure:
        for q in lone:
            if rng.random() < 0.7:
                c.append(Instruction(GateKind.MEASURE, (q,), clbits=(q,)))
    return c


def _cx_run_circuit(rng: random.Random, n: int, length: int) -> Circuit:
    """Random circuit of CX runs with phases between them: closed and
    open-control cx, swap, swapz onto a |0> wire, u1/z/s/t/sdg/tdg, and
    u2/u3/h/x.  Right after a CX run, a wire of its last gate may get a
    MEASURE (then no later gate touches it), or an ANNOT or RESET where the
    wire is pure (by reference simulation)."""
    c = Circuit(n, n)
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    live = list(range(n))        # wires not measured
    zero = set(range(n))         # wires known to hold |0>
    phases = [GateKind.U1, GateKind.Z, GateKind.S, GateKind.T, GateKind.SDG,
              GateKind.TDG]
    mixers = [GateKind.U2, GateKind.U3, GateKind.H, GateKind.X]
    n_params = {GateKind.U1: 1, GateKind.U2: 2, GateKind.U3: 3}

    def add(inst: Instruction) -> None:
        nonlocal state
        if inst.kind is not GateKind.MEASURE:
            step = Circuit(n)
            step.append(inst)
            state = ref_simulate(step, initial_state=state)
        c.append(inst)

    def add_1q(kinds: list[GateKind]) -> None:
        q, k = rng.choice(live), rng.choice(kinds)
        add(Instruction(k, (q,), [rng.uniform(0, TWO_PI)
                                  for _ in range(n_params.get(k, 0))]))
        zero.discard(q)

    while len(c.instructions) < length:
        last = None
        for _ in range(rng.choice([1, 1, 2, 3, 2 * n + 1, 3 * n])):
            r = rng.random()
            if r < 0.2:
                add_1q(phases)
                continue
            a, b = rng.sample(live, 2)
            if r < 0.75:
                last = Instruction(GateKind.CX, (a, b))
            elif r < 0.82:
                last = Instruction(GateKind.CX, (a, b), open_mask=(True,))
            elif r < 0.92:
                last = Instruction(GateKind.SWAP, (a, b))
            else:
                z = [q for q in live if q in zero and q != a]
                if not z:
                    continue
                b = rng.choice(z)
                last = Instruction(GateKind.SWAPZ, (a, b))
            add(last)
            zero.difference_update(last.qubits)
            if last.kind is GateKind.SWAPZ:
                zero.add(a)
        if last is not None and rng.random() < 0.4:
            q = rng.choice(last.qubits)
            r = rng.random()
            if r < 0.2 and len(live) > 2:
                add(Instruction(GateKind.MEASURE, (q,), clbits=(q,)))
                live.remove(q)
                zero.discard(q)
                continue
            pure = ref_pure_params(partial_trace_oracle(state, q))
            if pure is not None:
                if r < 0.6:
                    add(Instruction(GateKind.ANNOT, (q,), pure))
                else:
                    add(Instruction(GateKind.RESET, (q,)))
                    zero.add(q)
                continue
        add_1q(mixers)
    return c.replace(c.instructions[:length])


class TestCXFrame:
    """The CX frame of simulate(): CX, SWAP and SWAPZ edit a GF(2) matrix
    and the state is brought up to date only when a gate needs it."""

    def test_cx_run_corpus_matches_reference(self):
        rng = random.Random(45)
        kinds = set()
        for i in range(60):
            n = 2 + i % 9
            c = _cx_run_circuit(rng, n, rng.randint(50, 300))
            kinds.update((inst.kind, bool(inst.open_mask))
                         for inst in c.instructions)
            _assert_same(simulate(c), ref_simulate(c), _has_reset(c))
        assert kinds >= {(k, False) for k in (
            GateKind.CX, GateKind.SWAP, GateKind.SWAPZ, GateKind.MEASURE,
            GateKind.ANNOT, GateKind.RESET, GateKind.U1, GateKind.U3)}
        assert (GateKind.CX, True) in kinds

    def test_parity_cache_bound(self, monkeypatch):
        # With no room for cached odd-parity indices, every diagonal gate on
        # a parity rebuilds them.
        monkeypatch.setattr(oracle, "_ODD_CACHE_AMPS", 0)
        rng = random.Random(47)
        for n in (3, 7):
            c = _cx_run_circuit(rng, n, 200)
            _assert_same(simulate(c), ref_simulate(c), _has_reset(c))

    @pytest.mark.parametrize("n", [4, 6, 15])
    def test_gather_at_short_queues(self, monkeypatch, n):
        # Queues of 1-5 CX, SWAP and SWAPZ, each ended by a u3 on a wire of
        # its last gate: the state is brought up to date by one gather, or
        # by none when the queue multiplies out to the identity.  The
        # reference applies each gate's matrix (ref_simulate's gate step,
        # which also runs past its width limit).
        rng = random.Random(n)
        np_rng = np.random.default_rng(n)
        calls = spy_calls(monkeypatch, oracle, ("_gather_index", "_exchange"))
        gathers = 0
        for length in range(1, 6):
            for kind in (GateKind.CX, GateKind.SWAP, GateKind.SWAPZ, None):
                c = Circuit(n)
                for _ in range(length):
                    k = kind or rng.choice([GateKind.CX, GateKind.SWAP,
                                            GateKind.SWAPZ])
                    c.append(Instruction(k, tuple(rng.sample(range(n), 2))))
                c.u3(*[rng.uniform(0, TWO_PI) for _ in range(3)],
                     rng.choice(c.instructions[-1].qubits))
                init = random_statevector(np_rng, n)
                want = init
                for inst in c.instructions:
                    want = ref_apply(inst, want, n)
                calls.clear()
                _assert_same(simulate(c, initial_state=init), want, False)
                assert calls in ([], ["_gather_index"])
                gathers += len(calls)
        assert gathers >= 18

    @pytest.mark.parametrize("case,want", [
        ("ladder-h", ["_gather_index", "_apply_1q"]),
        ("cx-h", ["_gather_index", "_apply_1q"]),
        ("cx-u1", ["_gather_index"]),
        ("cx-h-idle", ["_apply_1q", "_gather_index"]),
    ])
    def test_paths(self, monkeypatch, case, want):
        # ladder-h: a CX ladder longer than 2 * width, then h on a wire that
        # other rows share: one gather.  cx-h: one CX then h on its target:
        # one gather too.  cx-u1: u1 on the target's parity, no update until
        # the end.  cx-h-idle: h on a wire that is its own stored axis acts
        # there, before the end brings the state up to date.
        n = 4
        c = Circuit(n)
        if case == "ladder-h":
            for i in range(2 * n + 1):
                c.cx(i % (n - 1), i % (n - 1) + 1)
            c.h(0)
        else:
            c.cx(0, 1)
            {"cx-h": lambda: c.h(1), "cx-u1": lambda: c.u1(0.4, 1),
             "cx-h-idle": lambda: c.h(2)}[case]()
        init = random_statevector(np.random.default_rng(46), n)
        calls = spy_calls(monkeypatch, oracle,
                          ("_apply_1q", "_exchange", "_gather_index"))
        got = simulate(c, initial_state=init)
        assert calls == want
        _assert_same(got, ref_simulate(c, initial_state=init), False)

    def test_routed_grover_mutants_are_told_apart(self):
        # A frame fault would act on the source and the output alike, so
        # every one-gate mutant of a routed output must still be caught:
        # each deleted CX and each u1 angle moved by 1e-3 gets the
        # reference's fidelity, and is reported inequivalent wherever the
        # reference tells it apart.  Some mutants are equivalent from
        # |0...0> (a u1 on a wire still at |0> is a global phase).
        src = gen_grover(4, 6, 1)
        out = pipeline(src, PipelineOptions(coupling=line_coupling(6)))
        layout = out.layout
        src = src.replace([i for i in src.instructions
                           if i.kind is not GateKind.MEASURE])
        insts = [i for i in out.instructions if i.kind is not GateKind.MEASURE]
        want = ref_embed(ref_simulate(src), out.n_qubits, layout)
        told_apart = mutants = 0
        for j, inst in enumerate(insts):
            if inst.kind is GateKind.CX:
                mutated = []
            elif inst.kind is GateKind.U1:
                mutated = [Instruction(GateKind.U1, inst.qubits,
                                       (inst.params[0] + 1e-3,))]
            else:
                continue
            m = out.replace(insts[:j] + mutated + insts[j + 1:])
            ref_fid = abs(np.vdot(want, ref_simulate(m))) ** 2
            rep = equivalent_up_to_global_phase(src, m, perm=layout)
            assert abs(rep.fidelity - ref_fid) <= 1e-12
            if ref_fid < 1.0 - 1e-9:
                assert not rep.equivalent
                told_apart += 1
            mutants += 1
        assert equivalent_up_to_global_phase(src, out.replace(insts),
                                             perm=layout).equivalent
        assert mutants > 100 and told_apart >= 0.9 * mutants


class TestTouchedWires:
    def test_idle_wires_do_not_count_toward_the_limit(self):
        # 20 wires, 3 touched: a measured circuit simulates, and equivalence
        # checks it against its relabelling onto other wires.
        a = Circuit(20, 2)
        a.h(3)
        a.cx(3, 17)
        a.measure(3, 0)
        a.measure(17, 1)
        assert simulate(a) == {"00": pytest.approx(0.5), "11": pytest.approx(0.5)}
        perm = list(range(20))
        perm[3], perm[0] = 0, 3
        b = _relabel(a, perm, 20)
        assert equivalent_up_to_global_phase(a, b, perm=perm).equivalent

    def test_unmeasured_wide_circuit_compares_on_touched_wires(self):
        a = Circuit(20)
        a.h(0)
        for q in range(12):
            a.cx(q, q + 1)
        b = Circuit(20)
        b.h(19)
        for q in range(19, 7, -1):
            b.cx(q, q - 1)
        perm = [19 - q for q in range(20)]
        rep = equivalent_up_to_global_phase(a, b, perm=perm)
        assert rep.equivalent and rep.fidelity == pytest.approx(1.0)
        # Without the perm, a's wires 0-12 and b's 7-19 are all compared.
        with pytest.raises(WidthError, match="limited to 16 qubits, got 20"):
            equivalent_up_to_global_phase(a, b)

    def test_too_many_touched_wires_rejected(self):
        c = Circuit(20)
        for q in range(MAX_QUBITS + 1):
            c.h(q)
        with pytest.raises(WidthError, match="limited to 16 qubits, got 17"):
            equivalent_up_to_global_phase(c, c)

    def test_full_vector_keeps_the_width_limit(self):
        # Returning a 2^17 vector is refused even though no wire is touched.
        with pytest.raises(WidthError, match="limited to 16 qubits, got 17"):
            simulate(Circuit(17))
        assert simulate(Circuit(17), wires=[]).tolist() == [1.0]

    def test_wires_must_cover_touched(self):
        c = Circuit(3)
        c.cx(0, 2)
        with pytest.raises(ValueError, match="not simulated"):
            simulate(c, wires=[0, 1])
        with pytest.raises(ValueError, match="distinct"):
            simulate(c, wires=[0, 0, 2])

    def test_bad_perm_rejected(self):
        with pytest.raises(ValueError, match="perm"):
            equivalent_up_to_global_phase(Circuit(2), Circuit(2), perm=[0, 0])
        with pytest.raises(ValueError, match="perm"):
            equivalent_up_to_global_phase(Circuit(2), Circuit(2), perm=[0, 2])

    def test_distribution_lists_only_outcomes_that_occur(self):
        c = Circuit(4, 3)
        c.x(1)
        c.h(2)
        c.measure(1, 2)
        c.measure(2, 0)
        c.measure(3, 1)
        assert list(simulate(c)) == ["001", "101"]


def _plain(a: Circuit, b: Circuit, perm=None) -> tuple[bool, float]:
    """The verdict and fidelity of checking b against a, from two plain
    simulate calls on all wires."""
    ra, rb = simulate(a), simulate(b)
    if isinstance(ra, dict):
        tv = total_variation_distance(ra, rb)
        return tv <= oracle.DEFAULT_TOL, 1.0 - tv
    va = expand_statevector(ra, b.n_qubits, list(perm or range(a.n_qubits)))
    fid = abs(np.vdot(va, rb)) ** 2
    return fid >= 1.0 - oracle.DEFAULT_TOL, fid


class TestSourceSlot:
    """equivalent_up_to_global_phase keeps the source side of its last check
    and reuses it when the next source has the same widths and
    instructions."""

    @staticmethod
    def _spy(monkeypatch) -> list[Circuit]:
        """Empty the slot; return the list of circuits oracle.simulate is
        called on from now on."""
        monkeypatch.setattr(oracle, "_last_source", (None,) * 5,
                            raising=False)
        calls: list[Circuit] = []
        real = oracle.simulate
        monkeypatch.setattr(oracle, "simulate", lambda c, *a, **k: (
            calls.append(c), real(c, *a, **k))[1])
        return calls

    @staticmethod
    def _check(calls, a, b, perm=None):
        """The report on b against a, whether a was simulated for it, and
        the plain verdict and fidelity, which it must match."""
        before = len(calls)
        rep = equivalent_up_to_global_phase(a, b, perm=perm)
        simulated = len(calls) - before == 2  # the source, then b
        want, fid = _plain(a, b, perm)
        assert rep.equivalent == want and abs(rep.fidelity - fid) <= 1e-12
        return rep, simulated

    def test_source_simulated_once_for_three_outputs(self, monkeypatch):
        src = gen_qv_like(5, 3, 1)
        outs = [pipeline(src, PipelineOptions(enable_qbo=False,
                                              enable_qpo=False)),
                pipeline(src, PipelineOptions()),
                pipeline(src, PipelineOptions(coupling=line_coupling(6),
                                              seed=2))]
        assert outs[2].n_qubits == 6 and outs[2].layout is not None
        calls = self._spy(monkeypatch)
        for out in outs:
            assert equivalent_up_to_global_phase(
                src, out, perm=out.layout).equivalent
        assert [id(c) for c in calls] == [id(src)] + [id(o) for o in outs]
        # The kept state is the source's, untouched by the three checks.
        _, _, _, ta, ra = oracle._last_source
        assert np.array_equal(ra, oracle.simulate(src, wires=ta))

    def test_changed_source_misses(self, monkeypatch):
        calls = self._spy(monkeypatch)
        a = Circuit(3)
        a.h(0)
        a.cx(0, 1)
        a.cx(1, 2)
        b = a.replace(a.instructions)
        assert self._check(calls, a, b)[0].equivalent
        a.h(2)  # the source gains an instruction
        rep, simulated = self._check(calls, a, b)
        assert simulated and not rep.equivalent
        a.instructions[0] = Instruction(GateKind.X, (0,))  # replaced in place
        rep, simulated = self._check(calls, a, a.replace(a.instructions))
        assert simulated and rep.equivalent
        # Only n_clbits differs: the outcome keys are one character longer.
        m2 = Circuit(2, 2)
        m2.h(0)
        m2.cx(0, 1)
        m2.measure(0, 0)
        m2.measure(1, 1)
        m3 = Circuit(2, 3).extend(m2.instructions)
        assert self._check(calls, m2, m2)[0].equivalent
        rep, simulated = self._check(calls, m3, m3)
        assert simulated and rep.equivalent
        assert not self._check(calls, m3, m3)[1]  # m3 again: a hit

    def test_alternating_sources_keep_their_own_states(self, monkeypatch):
        calls = self._spy(monkeypatch)
        rng = random.Random(5)
        a1, a2 = random_circuit(rng, 3, 20), random_circuit(rng, 3, 20)
        b1, b2 = a1.replace(a1.instructions), a2.replace(a2.instructions)
        for a, b, eq in ((a1, b1, True), (a2, b2, True), (a1, b2, False),
                         (a2, b1, False), (a1, b1, True), (a2, b2, True)):
            rep, simulated = self._check(calls, a, b)
            assert simulated and rep.equivalent == eq

    def test_inequivalent_output_after_equivalent_one(self, monkeypatch):
        src = gen_grover(3, 5, 1)
        src = src.replace([i for i in src.instructions
                           if i.kind is not GateKind.MEASURE])
        out = pipeline(src, PipelineOptions(coupling=line_coupling(4)))
        insts = out.instructions
        j = next(j for j, i in enumerate(insts) if i.kind is GateKind.CX)
        bad = out.replace(insts[:j] + insts[j + 1:])
        want = abs(np.vdot(ref_embed(ref_simulate(src), 4, out.layout),
                           ref_simulate(bad))) ** 2
        assert want < 1.0 - 1e-9
        calls = self._spy(monkeypatch)
        assert self._check(calls, src, out, out.layout)[0].equivalent
        rep, simulated = self._check(calls, src, bad, out.layout)
        assert not simulated and not rep.equivalent
        assert abs(rep.fidelity - want) <= 1e-12

    def test_failed_annotation_raises_on_every_check(self, monkeypatch):
        calls = self._spy(monkeypatch)
        a = Circuit(2)
        a.h(0)
        a.annot(0.0, 0.0, 0)  # claims |0>, holds |+>
        b = Circuit(2)
        b.h(0)
        for _ in range(3):
            with pytest.raises(AnnotationError):
                equivalent_up_to_global_phase(a, b)
            assert equivalent_up_to_global_phase(b, b).equivalent
        assert sum(c is a for c in calls) == 3

    def test_errors_keep_their_types(self, monkeypatch):
        calls = self._spy(monkeypatch)
        a = Circuit(20)
        a.h(0)
        a.cx(0, 1)
        with pytest.raises(ValueError, match="perm") as e:
            equivalent_up_to_global_phase(a, a, perm=[0] * 20)
        assert type(e.value) is ValueError and calls == []
        measured = Circuit(20, 1).extend(a.instructions)
        measured.measure(0, 0)
        narrow = Circuit(2).extend(a.instructions)
        wide = a.replace(a.instructions)
        for q in range(MAX_QUBITS + 1):
            wide.h(q)
        for b, match, error in (
                (measured, "measurement structure", ValueError),
                (narrow, "width mismatch", ValueError),
                (wide, "limited to 16", WidthError)):
            assert equivalent_up_to_global_phase(a, a).equivalent  # a kept
            with pytest.raises(ValueError, match=match) as e:
                equivalent_up_to_global_phase(a, b)
            assert type(e.value) is error

    def test_corpus_verdicts_match_plain_simulation(self, monkeypatch):
        # Perms, idle wires and measurement; each source is checked against
        # its relabelling, another circuit, the relabelling again (a hit)
        # and itself without a perm.
        calls = self._spy(monkeypatch)
        hits = 0
        for seed in (43, 44):
            for rng, a in TestAgainstReference._corpus(seed):
                n_b = rng.randint(a.n_qubits, REF_MAX_QUBITS)
                perm = rng.sample(range(n_b), a.n_qubits)
                same = _relabel(a, perm, n_b)
                other = random_full_circuit(
                    rng, n_b, rng.randint(1, 10),
                    measure=any(i.kind is GateKind.MEASURE
                                for i in a.instructions))
                for b, p in ((same, perm), (other, perm), (same, perm),
                             (a.replace(a.instructions), None)):
                    hits += not self._check(calls, a, b, p)[1]
        assert hits == 3 * 2 * TestAgainstReference.CASES

    def test_benchmark_sweeps_simulate_each_source_once(self, monkeypatch):
        # Two sweeps of the benchmark's routed and unrouted workloads at
        # seed 1, in its order (jobs outer, configs inner), with the jobs
        # built by perfbench/workloads.py as the benchmark builds them.
        # Each source is simulated once per sweep, and the slot carries
        # nothing into the next sweep but the one source object that routed
        # bv12 and bv12_grid4x5 share: bv12's first check in the second
        # sweep reuses bv12_grid4x5's last.
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads
        for workload, want in (("unrouted", [6, 6]), ("routed", [7, 6])):
            jobs = workloads.build(workload, 1)
            ops = [(job.source, pipeline(job.source, cfg.opts))
                   for job in jobs for cfg in job.configs]
            sources = {id(job.source) for job in jobs}
            calls = self._spy(monkeypatch)
            got = []
            for _ in want:
                del calls[:]
                for src, out in ops:
                    assert equivalent_up_to_global_phase(
                        src, out, perm=out.layout).equivalent
                got.append(sum(id(c) in sources for c in calls))
            assert got == want, workload
