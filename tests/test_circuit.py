import copy
import math
import pickle
import random

import pytest

from rpoc import (Circuit, GateKind, Instruction, ParseError, cx_count,
                  depth, emit_program, parse_program)
from rpoc.circuit import EPS_ANGLE, angles_equal, canonical_angle, count_gates
from rpoc.synth import _i, swap_to_cx, swapz_to_cx

from helpers import depth_oracle, random_circuit

TWO_PI = 2 * math.pi


class TestAngles:
    def test_canonical_range(self):
        rng = random.Random(0)
        for _ in range(500):
            v = canonical_angle(rng.uniform(-50, 50))
            assert 0.0 <= v < TWO_PI

    def test_canonical_idempotent(self):
        rng = random.Random(1)
        for _ in range(500):
            v = canonical_angle(rng.uniform(-50, 50))
            assert canonical_angle(v) == v

    def test_negative_tiny_wraps_to_zero(self):
        assert canonical_angle(-1e-20) == 0.0

    def test_wraparound_equality(self):
        assert angles_equal(0.0, TWO_PI - 1e-9)
        assert angles_equal(1e-9, -1e-9)
        assert not angles_equal(0.0, 1e-7)
        assert angles_equal(math.pi, math.pi + 0.5 * EPS_ANGLE)


class TestParse:
    def test_cx(self):
        c = parse_program("qreg q[2]; cx q[0],q[1];")
        assert c.n_qubits == 2
        assert c.instructions == [Instruction(GateKind.CX, (0, 1))]

    def test_annot(self):
        c = parse_program("qreg q[1]; annot(0,0) q[0];")
        assert c.instructions == [Instruction(GateKind.ANNOT, (0,), (0.0, 0.0))]

    def test_swapz_zero_designation(self):
        c = parse_program("qreg q[2]; swapz q[0],q[1];")
        inst = c.instructions[0]
        assert inst.kind is GateKind.SWAPZ
        assert inst.qubits == (0, 1)  # second operand is the zero qubit

    def test_pi_expressions(self):
        c = parse_program("qreg q[1]; u1(pi) q[0]; u1(pi/2) q[0]; "
                          "u1(-pi/4) q[0]; u1(3*pi/2) q[0]; u1(0.25) q[0];")
        lams = [i.params[0] for i in c.instructions]
        assert angles_equal(lams[0], math.pi)
        assert angles_equal(lams[1], math.pi / 2)
        assert angles_equal(lams[2], -math.pi / 4)
        assert angles_equal(lams[3], 3 * math.pi / 2)
        assert angles_equal(lams[4], 0.25)

    def test_measure(self):
        c = parse_program("qreg q[2]; creg c[2]; h q[0]; measure q[0] -> c[1];")
        assert c.instructions[-1] == Instruction(GateKind.MEASURE, (0,),
                                                 clbits=(1,))

    def test_open_controls(self):
        c = parse_program("qreg q[3]; ocx q[0],q[1]; occx q[0],q[1],q[2]; "
                          "mcx[oc] q[0],q[1],q[2];")
        assert c.instructions[0].open_mask == (True,)
        assert c.instructions[1].open_mask == (True, False)
        assert c.instructions[2].open_mask == (True, False)

    def test_comments_and_headers_tolerated(self):
        c = parse_program("OPENQASM 2.0;\n// a comment\nqreg q[1];\nx q[0]; // tail\n")
        assert len(c.instructions) == 1

    def test_syntax_error_has_location(self):
        with pytest.raises(ParseError) as e:
            parse_program("qreg q[2];\nfrobnicate q[0];")
        assert e.value.line == 2

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("qreg q[1]\n")

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_program("qreg q[2]; x q[5];")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_program("qreg q[3]; cx q[0],q[1],q[2];")

    def test_duplicate_operand(self):
        with pytest.raises(ParseError):
            parse_program("qreg q[2]; cx q[0],q[0];")

    def test_bad_angle(self):
        with pytest.raises(ParseError):
            parse_program("qreg q[1]; u1(zork) q[0];")

    @pytest.mark.parametrize("stmt", ["u1(nan) q[0];", "u3(inf,0,0) q[0];",
                                      "annot(nan,0) q[0];", "u2(0,-inf) q[0];"])
    def test_non_finite_angle(self, stmt):
        with pytest.raises(ParseError) as e:
            parse_program(f"qreg q[1];\n{stmt}\n")
        assert (e.value.line, e.value.col) == (2, 1)
        assert "finite" in e.value.msg

    def test_open_prefix_on_uncontrolled_kind(self):
        for stmt in ("ocu3(1,0,0) q[0],q[1];", "ocswap q[0],q[1],q[2];",
                     "oswap q[0],q[1];"):
            with pytest.raises(ParseError):
                parse_program(f"qreg q[3]; {stmt}")

    # (text, msg, line, col): one bad statement or line per text.  Columns
    # are 1-based: a statement's first character, the last character before
    # a missing ';', column 1 for a layout line, and (1, 0) for no qreg.
    ERRORS = [
        ("qreg q[1];\nu1(pi/0) q[0];", "division by zero in angle", 2, 1),
        ("qreg q[1];\nu1(zork) q[0];", "bad angle expression 'zork'", 2, 1),
        ("qreg q[1];\nu2(0,) q[0];", "bad angle expression ''", 2, 1),
        ("qreg q[1];\nx q0;", "bad operand 'q0'", 2, 1),
        ("qreg q[2];\ncx q[0],,q[1];", "bad operand ''", 2, 1),
        ("qreg q[1];\n  x q[0]; 1x q[0];",
         "cannot parse statement '1x q[0]'", 2, 11),
        ("qreg q;", "bad register declaration 'qreg q'", 1, 1),
        ("qreg q[1];\ncreg;", "bad register declaration 'creg'", 2, 1),
        ("qreg q[0];", "register size must be >= 1", 1, 1),
        ("qreg q[1];\nqreg r[1];", "duplicate qreg declaration", 2, 1),
        ("creg c[1];\nqreg q[1];\ncreg d[1];", "duplicate creg declaration", 3, 1),
        ("x q[0];\nqreg q[1];", "statement before qreg declaration", 1, 1),
        ("qreg q[1];\ncreg c[1];\nmeasure q[0];",
         "measure syntax is 'measure q[i] -> c[j];'", 3, 1),
        ("qreg q[1];\ncreg c[1];\nmeasure(0) q[0] -> c[0];",
         "measure syntax is 'measure q[i] -> c[j];'", 3, 1),
        ("qreg q[2];\ncreg c[1];\nmeasure q[0],q[1] -> c[0];",
         "measure takes one qubit and one clbit", 3, 1),
        ("qreg q[1];\nmeasure q[0] -> c[0];", "measure before creg declaration", 2, 1),
        ("qreg q[1];\ncreg c[1];\nmeasure q[0] -> d[0];", "unknown register name", 3, 1),
        ("qreg q[1];\nx r[0];", "unknown register 'r'", 2, 1),
        ("qreg q[2];\nfrob q[0];", "unknown statement 'frob'", 2, 1),
        ("qreg q[2];\ncx[o] q[0],q[1];", "polarity brackets are only valid on mcx", 2, 1),
        ("qreg q[3];\nmcx[oco] q[0],q[1],q[2];",
         "mcx polarity list must be one o/c per control", 2, 1),
        ("qreg q[3];\nmcx[ox] q[0],q[1],q[2];",
         "mcx polarity list must be one o/c per control", 2, 1),
        ("qreg q[2];\noocx q[0],q[1];", "more open-control prefixes than controls", 2, 1),
        ("qreg q[1];\nox q[0];", "more open-control prefixes than controls", 2, 1),
        ("qreg q[1];\nomcx;", "more open-control prefixes than controls", 2, 1),
        ("", "no qreg declaration", 1, 0),
        ("OPENQASM 2.0;\ncreg c[1];\n", "no qreg declaration", 1, 0),
        ("qreg q[1]\n", "missing ';'", 1, 9),
        ("qreg q[1];\nx q[0];  x q[0]  // note\n", "missing ';'", 2, 15),
        ("qreg q[1];\n// layout 0\n// layout 0\n", "duplicate layout line", 3, 1),
        ("qreg q[2];\n// layout 0,0\n", "layout must name distinct wires of the qreg", 2, 1),
        ("// layout 0,2\nqreg q[2];\n", "layout must name distinct wires of the qreg", 1, 1),
        # Instruction checks, reported at the statement.
        ("qreg q[3];\ncx q[0],q[1],q[2];", "cx takes 2 qubit(s), got 3", 2, 1),
        ("qreg q[2];\ncx q[0],q[0];", "duplicate qubit operand in cx", 2, 1),
        ("qreg q[1];\nu1(0,0) q[0];", "u1 takes 1 parameter(s), got 2", 2, 1),
        ("qreg q[1];\nu1(nan) q[0];", "u1 parameters must be finite", 2, 1),
        ("qreg q[2];\nocu3(1,0,0) q[0],q[1];", "cu3 does not support open controls", 2, 1),
        ("qreg q[1];\nmcx;", "mcx needs >= 2 operands", 2, 1),
        ("qreg q[1];\nmcx q[0];", "mcx needs >= 2 operands", 2, 1),
        ("qreg q[1];\nbarrier;", "barrier needs >= 1 operands", 2, 1),
        # Width checks, reported at the statement.
        ("qreg q[2];\nx q[5];", "qubit index 5 out of range for width 2", 2, 1),
        ("qreg q[2]; h q[0];  x q[5]; // note",
         "qubit index 5 out of range for width 2", 1, 21),
        ("qreg q[1];\ncreg c[2];\nmeasure q[0] -> c[2];",
         "clbit index 2 out of range for width 2", 3, 1),
        ("creg c[1];\nqreg q[1];\nmeasure q[0] -> c[1];",
         "clbit index 1 out of range for width 1", 3, 1),
    ]

    @pytest.mark.parametrize("text, msg, line, col", ERRORS,
                             ids=[msg for _, msg, _, _ in ERRORS])
    def test_error_table(self, text, msg, line, col):
        with pytest.raises(ParseError) as e:
            parse_program(text)
        assert (e.value.msg, e.value.line, e.value.col) == (msg, line, col)
        assert str(e.value) == f"line {line}, col {col}: {msg}"

    @pytest.mark.parametrize("text, msg, line, col", [
        ("qreg q[2];\nfrob q[0];\nh q[0]\n", "unknown statement 'frob'", 2, 1),
        ("qreg q[2];\nx q[5];\nfrob q[0];\n",
         "qubit index 5 out of range for width 2", 2, 1),
        ("qreg q[2]; x q[5]; frob q[0];",
         "qubit index 5 out of range for width 2", 1, 12),
    ], ids=["before-missing-semicolon", "range-before-later-line",
            "range-before-later-statement"])
    def test_first_bad_statement_is_reported(self, text, msg, line, col):
        # Statements are read in order and each one is checked in full, so
        # the earliest bad statement wins over later line or range errors.
        with pytest.raises(ParseError) as e:
            parse_program(text)
        assert (e.value.msg, e.value.line, e.value.col) == (msg, line, col)

    def test_repeated_statement_parsed_once(self):
        # A repeat appends the instruction its first occurrence parsed to;
        # a bad statement after repeats is reported where it stands.
        text = ("qreg q[2];\nh q[0];\ncx q[0],q[1];\nh q[0]; cx q[0],q[1];\n"
                "  h q[0] ;\n")
        c = parse_program(text)
        assert [i.kind.value for i in c] == ["h", "cx", "h", "cx", "h"]
        assert c.instructions[0] is c.instructions[2] is c.instructions[4]
        assert c.instructions[1] is c.instructions[3]
        assert c == parse_program(emit_program(c))
        with pytest.raises(ParseError) as e:
            parse_program(text + "h q[0]; h q[2];\n")
        assert (e.value.msg, e.value.line, e.value.col) == (
            "qubit index 2 out of range for width 2", 6, 9)


class TestEmit:
    def test_empty(self):
        assert emit_program(Circuit(1)) == "qreg q[1];\n"

    def test_single_x(self):
        c = Circuit(1)
        c.x(0)
        assert emit_program(c) == "qreg q[1];\nx q[0];\n"

    def test_roundtrip_random(self):
        rng = random.Random(42)
        for _ in range(20):
            c = random_circuit(rng, rng.randrange(2, 6), 50)
            assert parse_program(emit_program(c)) == c

    def test_roundtrip_exotic(self):
        c = Circuit(5, 2)
        c.annot(0.1, 5.9, 0)
        c.cu3(1.0, 2.0, 3.0, 0, 1)
        c.mcx(0, 1, 2, 3)
        c.append(Instruction(GateKind.MCX, (0, 1, 2, 4), open_mask=(True, False, True)))
        c.append(Instruction(GateKind.CCX, (0, 1, 2), open_mask=(False, True)))
        c.cswap(0, 1, 2)
        c.barrier(0, 3)
        c.reset(2)
        c.measure(0, 0)
        assert parse_program(emit_program(c)) == c

    def test_emit_is_fixpoint(self):
        rng = random.Random(7)
        c = random_circuit(rng, 4, 30)
        text = emit_program(c)
        assert emit_program(parse_program(text)) == text

    def test_roundtrip_keeps_layout(self):
        from rpoc import PipelineOptions, line_coupling, pipeline
        src = parse_program("qreg q[3]; h q[0]; cx q[0],q[2];")
        assert "layout" not in emit_program(pipeline(src))
        out = pipeline(src, PipelineOptions(coupling=line_coupling(5)))
        text = emit_program(out)
        assert text.splitlines()[1] == "// layout " + ",".join(
            map(str, out.layout))
        back = parse_program(text)
        assert back == out and back.layout == out.layout
        assert emit_program(back) == text

    @pytest.mark.parametrize("line", ["// layout 0,0", "// layout 0,3",
                                      "// layout 0\n// layout 1"])
    def test_bad_layout_line(self, line):
        with pytest.raises(ParseError):
            parse_program("qreg q[3];\n" + line + "\n")


class TestCounts:
    def test_swap_decomposition_is_3_cx(self):
        c = Circuit(2).extend(swap_to_cx(0, 1))
        assert cx_count(c) == 3

    def test_swapz_decomposition_is_2_cx(self):
        c = Circuit(2).extend(swapz_to_cx(0, 1))
        assert cx_count(c) == 2

    def test_empty(self):
        assert cx_count(Circuit(3)) == 0

    def test_filter(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        c.h(1)
        assert count_gates(c, GateKind.H) == 2
        assert count_gates(c, {GateKind.H, GateKind.CX}) == 3
        assert count_gates(c) == 3

    def test_count_invariant_under_roundtrip(self):
        rng = random.Random(9)
        c = random_circuit(rng, 4, 40)
        assert cx_count(parse_program(emit_program(c))) == cx_count(c)


class TestDepth:
    def test_parallel(self):
        c = Circuit(2)
        c.h(0)
        c.h(1)
        assert depth(c) == 1

    def test_chain(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        c.x(1)
        assert depth(c) == 3

    def test_measure_clbit_conflicts(self):
        c = Circuit(2, 1)
        c.measure(0, 0)
        c.measure(1, 0)
        assert depth(c) == 2

    def test_against_longest_path_oracle(self):
        rng = random.Random(3)
        for _ in range(30):
            c = random_circuit(rng, rng.randrange(2, 6), rng.randrange(1, 40))
            assert depth(c) == depth_oracle(c)

    def test_bounded_by_length(self):
        rng = random.Random(4)
        c = random_circuit(rng, 4, 25)
        assert depth(c) <= len(c.instructions)

    def test_invariant_under_commuting_swap(self):
        rng = random.Random(5)
        for _ in range(20):
            c = random_circuit(rng, 5, 30)
            insts = list(c.instructions)
            for i in range(len(insts) - 1):
                a, b = insts[i], insts[i + 1]
                if not (set(a.qubits) & set(b.qubits)):
                    swapped = insts[:i] + [b, a] + insts[i + 2:]
                    assert depth(c.replace(swapped)) == depth(c)
                    break


class TestInstructionValidation:
    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Instruction(GateKind.CX, (1, 1))

    def test_param_count(self):
        with pytest.raises(ValueError):
            Instruction(GateKind.U3, (0,), (1.0,))

    def test_width_check_on_append(self):
        with pytest.raises(ValueError):
            Circuit(2).x(5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, bad):
        with pytest.raises(ValueError):
            Instruction(GateKind.U3, (0,), (0.0, bad, 0.0))
        with pytest.raises(ValueError):
            Circuit(1).u1(bad, 0)

    def test_params_canonicalized(self):
        inst = Instruction(GateKind.U1, (0,), (-math.pi / 2,))
        assert inst.params[0] == canonical_angle(-math.pi / 2)

    def test_open_mask_only_on_control_gates(self):
        with pytest.raises(ValueError):
            Instruction(GateKind.SWAP, (0, 1), open_mask=(True, False))


class TestInstructionTuple:
    # (constructor arguments, the canonical fields the constructor stores)
    CASES = [
        ((GateKind.CX, (0, 1)), (GateKind.CX, (0, 1), (), (), ())),
        ((GateKind.U3, [2], (0.5, -0.25, 7.0)),
         (GateKind.U3, (2,), (0.5, canonical_angle(-0.25), canonical_angle(7.0)),
          (), ())),
        ((GateKind.MEASURE, (1,), (), (0,)), (GateKind.MEASURE, (1,), (), (0,), ())),
        ((GateKind.CX, (0, 1), (), (), (False,)), (GateKind.CX, (0, 1), (), (), ())),
        ((GateKind.CCX, (0, 1, 2), (), (), (False, True)),
         (GateKind.CCX, (1, 0, 2), (), (), (True, False))),
        ((GateKind.MCX, (0, 1, 2, 3), (), (), (0, 1, 0)),
         (GateKind.MCX, (0, 1, 2, 3), (), (), (False, True, False))),
    ]

    @pytest.mark.parametrize("args,fields", CASES)
    def test_unchecked_equals_checked(self, args, fields):
        inst, raw = Instruction(*args), _i(*fields)
        assert type(raw) is Instruction
        assert raw == inst and hash(raw) == hash(inst)
        assert (inst.kind, inst.qubits, inst.params, inst.clbits,
                inst.open_mask) == fields

    @pytest.mark.parametrize("args,fields", CASES)
    def test_pickle_and_copy_round_trip(self, args, fields):
        inst = Instruction(*args)
        for back in (pickle.loads(pickle.dumps(inst)), copy.copy(inst),
                     copy.deepcopy(inst)):
            assert type(back) is Instruction and back == inst
            assert back.controls == inst.controls and back.is_1q == inst.is_1q

    def test_attributes_cannot_be_assigned(self):
        inst = Instruction(GateKind.CX, (0, 1))
        with pytest.raises(AttributeError):
            inst.kind = GateKind.CZ
        with pytest.raises(AttributeError):
            inst.note = "x"

    @pytest.mark.parametrize("args,message", [
        ((GateKind.CX, (0,)), "cx takes 2 qubit(s), got 1"),
        ((GateKind.MCX, (0,)), "mcx needs >= 2 operands"),
        ((GateKind.BARRIER, ()), "barrier needs >= 1 operands"),
        ((GateKind.CX, (1, 1)), "duplicate qubit operand in cx"),
        ((GateKind.U3, (0,), (1.0,)), "u3 takes 3 parameter(s), got 1"),
        ((GateKind.U1, (0,), (math.nan,)), "u1 parameters must be finite"),
        ((GateKind.MEASURE, (0,)), "measure takes exactly one classical bit"),
        ((GateKind.X, (0,), (), (0,)), "x takes no classical bits"),
        ((GateKind.SWAP, (0, 1), (), (), (True,)), "swap does not support open controls"),
        ((GateKind.CCX, (0, 1, 2), (), (), (True,)), "open-control mask length must be 2"),
    ])
    def test_invalid_fields_rejected(self, args, message):
        with pytest.raises(ValueError) as e:
            Instruction(*args)
        assert str(e.value) == message
