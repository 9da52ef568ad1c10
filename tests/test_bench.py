import math
import random

import pytest

from rpoc import (BenchSpec, Circuit, GateKind, cx_count,
                  emit_program, equivalent_up_to_global_phase, gen_bv,
                  gen_grover, gen_qpe, gen_qv_like, gen_vqe_ry,
                  grover_success_probability, line_coupling, median_summary,
                  pipeline, PipelineOptions, rows_to_csv, run_bench, simulate)
from rpoc.bench import ALGORITHMS, CSV_HEADER, build_circuit

PI = math.pi


class TestBV:
    def test_boolean_cx_count_matches_set_bits(self):
        c = gen_bv(4, "1011", "boolean")
        assert cx_count(c) == 3
        assert c.n_qubits == 5

    def test_all_zero_string(self):
        assert cx_count(gen_bv(4, "0000", "boolean")) == 0

    def test_both_variants_agree(self):
        for s in ("1011", "0110", "1111"):
            db = simulate(gen_bv(4, s, "boolean"))
            dp = simulate(gen_bv(4, s, "phase"))
            assert db.keys() == dp.keys() == {s}
            assert db[s] == pytest.approx(1.0)
            assert dp[s] == pytest.approx(1.0)

    def test_phase_variant_has_no_cx(self):
        assert cx_count(gen_bv(4, "1011", "phase")) == 0

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError):
            gen_bv(0, "", "boolean")


class TestQPE:
    def test_dyadic_phase_exact(self):
        d = simulate(gen_qpe(3, 7 / 8))
        assert d["111"] == pytest.approx(1.0)

    def test_zero_phase(self):
        d = simulate(gen_qpe(3, 0.0))
        assert d["000"] == pytest.approx(1.0)

    def test_every_dyadic_value(self):
        n = 3
        for m in range(2 ** n):
            d = simulate(gen_qpe(n, m / 2 ** n))
            assert d[format(m, f"0{n}b")] == pytest.approx(1.0), m

    def test_generic_phase_matches_closed_form(self):
        # Independent oracle: |<m|QPE>|^2 = |sin(2^n pi d)/(2^n sin(pi d))|^2
        # with d = theta - m/2^n.
        n, theta = 4, 0.3
        d = simulate(gen_qpe(n, theta))
        for m in range(2 ** n):
            delta = theta - m / 2 ** n
            if abs(math.sin(PI * delta)) < 1e-12:
                expect = 1.0
            else:
                expect = (math.sin(2 ** n * PI * delta)
                          / (2 ** n * math.sin(PI * delta))) ** 2
            assert d.get(format(m, f"0{n}b"), 0.0) == pytest.approx(
                expect, abs=1e-9)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_qpe(1, 0.5)


class TestGrover:
    def test_two_qubits_exact(self):
        for marked in range(4):
            d = simulate(gen_grover(2, marked, 1))
            assert d[format(marked, "02b")] == pytest.approx(1.0)

    def test_closed_form(self):
        d = simulate(gen_grover(4, 11, 3))
        assert d["1011"] == pytest.approx(grover_success_probability(4, 3),
                                          abs=1e-9)

    def test_ancilla_variant_matches_plain(self):
        da = simulate(gen_grover(4, 5, 2, use_ancilla=True))
        dp = simulate(gen_grover(4, 5, 2, use_ancilla=False))
        for k in set(da) | set(dp):
            assert da.get(k, 0.0) == pytest.approx(dp.get(k, 0.0), abs=1e-9)

    def test_annotations_pass_simulation(self):
        c = gen_grover(5, 19, 2, use_ancilla=True, annotate=True)
        assert any(i.kind is GateKind.ANNOT for i in c.instructions)
        d = simulate(c)  # would raise on a bad annotation
        assert d[format(19, "05b")] == pytest.approx(
            grover_success_probability(5, 2), abs=1e-9)

    @pytest.mark.parametrize("marked", [0, 22, 63])
    def test_grover6_cx_is_twelve_mcz_templates(self, marked):
        # Six iterations of two 5-control MCZ at 2^6 - 2 = 62 CX each; no
        # pass finds anything to remove or add.
        c = gen_grover(6, marked, 6)
        for on in (False, True):
            opts = PipelineOptions(enable_qbo=on, enable_qpo=on)
            assert cx_count(pipeline(c, opts)) == 12 * 62

    @pytest.mark.parametrize("marked", [5, 42])
    def test_grover6_on_line15(self, marked):
        c = gen_grover(6, marked, 6)
        outs = [pipeline(c, PipelineOptions(coupling=line_coupling(15),
                                            enable_qbo=on, enable_qpo=on))
                for on in (False, True)]
        for out in outs:
            assert equivalent_up_to_global_phase(c, out,
                                                 perm=out.layout).equivalent
        assert cx_count(outs[1]) <= cx_count(outs[0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_grover(2, 4, 1)
        with pytest.raises(ValueError):
            gen_grover(2, 0, 0)


class TestVQE:
    def test_depth_zero(self):
        c = gen_vqe_ry(3, 0, [0.1, 0.2, 0.3])
        assert cx_count(c) == 0
        assert len(c.instructions) == 3

    def test_chain_count(self):
        c = gen_vqe_ry(4, 2, [0.0] * 12)
        assert cx_count(c) == 6

    def test_zero_params_is_ground_state(self):
        c = gen_vqe_ry(3, 2, [0.0] * 9)
        sv = simulate(c)
        assert abs(sv[0] - 1.0) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gen_vqe_ry(3, 1, [0.0] * 5)


class TestQV:
    def test_deterministic(self):
        a = gen_qv_like(4, 4, seed=5)
        b = gen_qv_like(4, 4, seed=5)
        assert emit_program(a) == emit_program(b)

    def test_seed_changes_circuit(self):
        assert emit_program(gen_qv_like(4, 4, 5)) != emit_program(
            gen_qv_like(4, 4, 6))

    def test_cx_count(self):
        c = gen_qv_like(4, 4, seed=0)
        assert cx_count(c) == 2 * 4 * 2

    def test_optimized_equivalent(self):
        c = gen_qv_like(4, 3, seed=2)
        out = pipeline(c)
        rep = equivalent_up_to_global_phase(c, out)
        assert rep.equivalent and rep.fidelity >= 1 - 1e-9


class TestHarness:
    def test_bv_rpo_row_zero_cx(self):
        spec = BenchSpec("bv", 4, reps=3)  # seed 0 draws the string 1101
        assert cx_count(build_circuit(spec)) == 3
        rows = run_bench(spec)
        assert len(rows) == 6
        for r in rows:
            if r.pipeline == "rpo":
                assert r.cx == 0
            else:
                assert r.cx > 0

    def test_qpe_directional_on_line(self):
        spec = BenchSpec("qpe", 4, reps=5, coupling="line5")
        rows = run_bench(spec)
        base = {r.seed: r.cx for r in rows if r.pipeline == "baseline"}
        rpo = {r.seed: r.cx for r in rows if r.pipeline == "rpo"}
        assert all(rpo[s] < base[s] for s in base)

    def test_rows_have_requested_reps(self):
        spec = BenchSpec("vqe_ry", 3, reps=4, seed=7)
        rows = run_bench(spec)
        assert sorted({r.seed for r in rows}) == [7, 8, 9, 10]

    def test_csv_format(self):
        spec = BenchSpec("bv", 3, reps=2)
        text = rows_to_csv(run_bench(spec))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4
        assert lines[1].startswith("bv,3,")

    def test_median_summary(self):
        spec = BenchSpec("qpe", 3, reps=3, coupling="line5")
        summary = median_summary(run_bench(spec))
        by = {(s["pipeline"]): s for s in summary}
        assert by["rpo"]["cx"] <= by["baseline"]["cx"]
        assert "cx_reduction_pct" in by["rpo"]

    def test_build_circuit_defaults(self):
        assert BenchSpec._fields == ("algorithm", "n", "reps", "coupling",
                                     "seed")
        rng = random.Random(1)
        s = "".join(rng.choice("01") for _ in range(3))
        rng = random.Random(1)
        angles = [rng.uniform(0, 2 * PI) for _ in range(9)]
        want = {"bv": gen_bv(3, s, "boolean"), "qpe": gen_qpe(3, 7 / 8),
                "grover": gen_grover(3, 7, 2, False, False),
                "vqe_ry": gen_vqe_ry(3, 2, angles),
                "qv_like": gen_qv_like(3, 3, 1)}
        assert list(ALGORITHMS) == list(want)
        for alg, c in want.items():
            got = build_circuit(BenchSpec(alg, 3, reps=1, seed=1))
            assert isinstance(got, Circuit)
            assert emit_program(got) == emit_program(c), alg

    def test_unknown_algorithm(self):
        spec = BenchSpec("quux", 3)
        for call in (build_circuit, run_bench):
            with pytest.raises(ValueError, match="unknown algorithm 'quux'"):
                call(spec)

    def test_reps_below_one(self):
        for reps in (0, -1):
            with pytest.raises(ValueError, match="repetitions must be >= 1"):
                run_bench(BenchSpec("bv", 3, reps=reps))

    def test_rows_are_verified_or_flagged(self, monkeypatch):
        import rpoc.oracle
        calls = []  # the outcome of each check: its report or its error type
        check = rpoc.oracle.equivalent_up_to_global_phase

        def spy(*a, **k):
            try:
                calls.append(check(*a, **k))
            except ValueError as e:
                calls.append(type(e))
                raise
            return calls[-1]

        monkeypatch.setattr(rpoc.oracle, "equivalent_up_to_global_phase", spy)
        # bv14 touches 15 wires: each output is checked once, and verified.
        rows = run_bench(BenchSpec("bv", 14, reps=1))
        assert [r.verified for r in rows] == [True, True]
        assert [rep.equivalent for rep in calls] == [True, True]
        # bv16 touches 17: each check raises WidthError; the rows are flagged.
        calls.clear()
        rows = run_bench(BenchSpec("bv", 16, reps=1))
        assert [r.verified for r in rows] == [False, False]
        assert calls == [rpoc.oracle.WidthError] * 2
        rows = run_bench(BenchSpec("bv", 3, reps=1), verify=False)
        assert not any(r.verified for r in rows)

    def test_csv_verified_column(self):
        col = CSV_HEADER.split(",").index("verified")
        rows = (run_bench(BenchSpec("bv", 16, reps=1))
                + run_bench(BenchSpec("bv", 3, reps=1)))
        lines = rows_to_csv(rows).strip().split("\n")[1:]
        assert [line.split(",")[col] for line in lines] == ["0", "0", "1", "1"]

    def test_verification_gate(self):
        # Verification is on by default at these sizes and must not trip.
        rows = run_bench(BenchSpec("grover", 3, reps=2))
        assert rows and all(r.verified for r in rows)
