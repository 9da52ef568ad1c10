"""Quantum-circuit optimizing compiler built on static per-qubit state
tracking, with a brute-force statevector oracle certifying every rewrite."""

from .circuit import (Circuit, EPS_ANGLE, GateKind, Instruction, ParseError,
                      angles_equal, canonical_angle, count_1q, count_gates,
                      cx_count, depth, emit_program, parse_program)
from .synth import (DEFAULT_BASIS, U3Params, cancel_adjacent_cx, compose_u3,
                    merge_1q_runs, prepare_two_qubit_state, pure_to_pure_gate,
                    pure_to_zero_gate, u3_matrix, unroll, zyz_decompose)
from .analysis import (BasisState, Tracker, basis_of, classify_pure_as_basis,
                       pure_transition)
from .oracle import (AnnotationError, EquivalenceReport, ResetError,
                     equivalent_up_to_global_phase, reduced_qubit_state,
                     simulate)
from .passes import (CouplingMap, PipelineOptions, line_coupling, grid_coupling,
                     pipeline, qbo, qpo, resolve_coupling, route)
from .bench import (BenchSpec, ReportRow, VerificationError, gen_bv, gen_grover,
                    gen_qpe, gen_qv_like, gen_vqe_ry, grover_success_probability,
                    median_summary, rows_to_csv, run_bench)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
