import math
import random

import numpy as np
import pytest

from rpoc import (AnnotationError, Circuit, GateKind, Instruction, ResetError,
                  equivalent_up_to_global_phase, reduced_qubit_state, simulate)
from rpoc.oracle import (MAX_QUBITS, expand_statevector, simulated_width,
                         total_variation_distance, touched_wires,
                         trace_distance_to_pure)
from rpoc.synth import pure_state_vector

from helpers import (REF_MAX_QUBITS, partial_trace_oracle, random_circuit,
                     random_full_circuit, random_statevector, ref_embed,
                     ref_simulate)

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
        with pytest.raises(ValueError):
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
        assert simulated_width(a, b, perm) == 2
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
        assert simulated_width(a, b, perm) == 13
        # Without the perm, a's wires 0-12 and b's 7-19 are all compared.
        assert simulated_width(a, b) == 20
        with pytest.raises(ValueError, match="limited to 16"):
            equivalent_up_to_global_phase(a, b)

    def test_too_many_touched_wires_rejected(self):
        c = Circuit(20)
        for q in range(MAX_QUBITS + 1):
            c.h(q)
        with pytest.raises(ValueError, match="limited to 16"):
            equivalent_up_to_global_phase(c, c)

    def test_full_vector_keeps_the_width_limit(self):
        # Returning a 2^17 vector is refused even though no wire is touched.
        with pytest.raises(ValueError):
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
