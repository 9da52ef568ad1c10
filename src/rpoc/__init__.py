"""Quantum-circuit optimizing compiler built on static per-qubit state
tracking, with a brute-force statevector oracle certifying every rewrite.

Importing rpoc loads no numpy: the oracle and bench names resolve on first
use (PEP 562).  The oracle imports numpy; bench loads it only to verify and
in gen_qv_like.
"""

from .circuit import (Circuit, GateKind, Instruction, ParseError,
                      VerificationError, count_1q, cx_count, depth,
                      emit_program, parse_program)
from .synth import (cancel_adjacent_cx, merge_1q_runs, prepare_two_qubit_state,
                    u3_matrix, unroll, zyz_decompose)
from .passes import (CouplingMap, PipelineOptions, line_coupling, grid_coupling,
                     pipeline, qbo, qpo, resolve_coupling, route)

# Lazy name -> the module that defines it (each module maps to itself).
_LAZY = {name: module for module, names in (
    ("oracle", ("oracle", "AnnotationError", "equivalent_up_to_global_phase",
                "reduced_qubit_state", "simulate")),
    ("bench", ("bench", "BenchSpec", "gen_bv", "gen_grover", "gen_qpe",
               "gen_qv_like", "gen_vqe_ry", "grover_success_probability",
               "median_summary", "rows_to_csv", "run_bench"))) for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)
    return value if name == module else getattr(value, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = sorted([
    "Circuit", "GateKind", "Instruction", "ParseError", "VerificationError",
    "count_1q", "cx_count", "depth", "emit_program", "parse_program",
    "cancel_adjacent_cx", "merge_1q_runs", "prepare_two_qubit_state",
    "u3_matrix", "unroll", "zyz_decompose", "CouplingMap", "PipelineOptions",
    "line_coupling", "grid_coupling", "pipeline", "qbo", "qpo",
    "resolve_coupling", "route", "analysis", "circuit", "passes", "synth",
    *_LAZY])
__version__ = "0.1.0"
