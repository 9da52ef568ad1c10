"""Benchmark circuit generators, the A/B measurement harness and CSV output.

Each generator produces a circuit with an analytically known output, so the
harness can verify every transpilation against the simulator before it
reports a row.  A `BenchSpec` names the algorithm, size, repetitions,
coupling map and seed; `build_circuit` draws the circuit from it with fixed
generator settings.  Rows (`ReportRow`) are raw per-repetition
measurements; the CLI reduces them to medians.

Importing this module loads neither numpy nor dataclasses.  numpy is loaded
by gen_qv_like's RNG and by the oracle, which run_bench imports to verify.
"""
from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

from .circuit import (TWO_PI, Circuit, GateKind, Instruction,
                      VerificationError, canonical_angle, count_1q, cx_count,
                      depth, emit_program)
from .passes import PipelineOptions, pipeline, resolve_coupling
from .synth import mcx_vchain


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_bv(n: int, s: str, oracle_kind: str = "boolean") -> Circuit:
    """Hidden-bit-string circuit: measuring returns s with probability 1.

    The boolean variant uses an extra ancilla prepared in the minus state and
    one CX per set bit; the phase variant encodes the same function with Z
    gates only.  Bit i of s belongs to qubit i and classical bit i.
    """
    if not s or len(s) != n or set(s) - {"0", "1"}:
        raise ValueError("s must be a non-empty bit string of length n")
    if oracle_kind == "boolean":
        c = Circuit(n + 1, n)
        for q in range(n):
            c.h(q)
        c.x(n)
        c.h(n)
        for q in range(n):
            if s[q] == "1":
                c.cx(q, n)
        for q in range(n):
            c.h(q)
    elif oracle_kind == "phase":
        c = Circuit(n, n)
        for q in range(n):
            c.h(q)
        for q in range(n):
            if s[q] == "1":
                c.z(q)
        for q in range(n):
            c.h(q)
    else:
        raise ValueError("oracle_kind must be 'boolean' or 'phase'")
    for q in range(n):
        c.measure(q, q)
    return c


def gen_qpe(n: int, theta: float) -> Circuit:
    """Phase estimation of u1(2*pi*theta) with the eigenvector qubit in |1>.

    n counting qubits; for theta = m/2^n the measured key is m in binary,
    most significant bit on classical bit 0.
    """
    if n < 2:
        raise ValueError("need at least two counting qubits")
    c = Circuit(n + 1, n)
    c.x(n)
    for q in range(n):
        c.h(q)
    for j in range(n):
        c.cu3(0.0, 0.0, canonical_angle(TWO_PI * theta * (2 ** j)), j, n)
    for j in reversed(range(n)):
        for k in range(n - 1, j, -1):
            c.cu3(0.0, 0.0, canonical_angle(-math.pi / (2 ** (k - j))), k, j)
        c.h(j)
    for j in range(n):
        c.measure(j, j)
    return c


def _apply_mcz(c: Circuit, data: list[int], pattern: list[int],
               ancs: tuple[int, ...], annotate: bool) -> None:
    """Phase flip on the computational state `pattern` over the data qubits,
    built as an open/closed multi-controlled X conjugated by H on the last
    qubit.  Uses a clean-ancilla chain when ancillas are available."""
    t = data[-1]
    controls = tuple(data[:-1])
    mask = tuple(pattern[i] == 0 for i in range(len(controls)))
    tflip = pattern[len(data) - 1] == 0
    if tflip:
        c.x(t)
    c.h(t)
    k = len(controls)
    need = max(0, k - 2)
    if k <= 2 or not ancs or len(ancs) < need:
        kind = (GateKind.CX if k == 1 else
                GateKind.CCX if k == 2 else GateKind.MCX)
        c.append(Instruction(kind, controls + (t,),
                             open_mask=mask if any(mask) else ()))
    else:
        used = ancs[:need]
        for inst in mcx_vchain(controls, t, used, mask):
            c.append(inst)
        if annotate:
            for a in used:
                c.annot(0.0, 0.0, a)
    c.h(t)
    if tflip:
        c.x(t)


def gen_grover(n: int, marked: int, iterations: int,
               use_ancilla: bool = False, annotate: bool = False) -> Circuit:
    """Amplitude-amplification search for `marked`; the success probability
    follows sin^2((2k+1) asin(2^{-n/2})).  With `use_ancilla`, multi-controlled
    gates run through n-3 clean helper qubits; `annotate` marks each helper as
    returned to the zero state after use."""
    if n < 2:
        raise ValueError("need at least two search qubits")
    if not 0 <= marked < 2 ** n:
        raise ValueError("marked element out of range")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    n_anc = max(0, n - 3) if use_ancilla else 0
    c = Circuit(n + n_anc, n)
    data = list(range(n))
    ancs = tuple(range(n, n + n_anc))
    bits = [(marked >> (n - 1 - i)) & 1 for i in range(n)]
    for q in data:
        c.h(q)
    for _ in range(iterations):
        _apply_mcz(c, data, bits, ancs, annotate)
        for q in data:
            c.h(q)
        for q in data:
            c.x(q)
        _apply_mcz(c, data, [1] * n, ancs, annotate)
        for q in data:
            c.x(q)
        for q in data:
            c.h(q)
    for q in data:
        c.measure(q, q)
    return c


def grover_success_probability(n: int, iterations: int) -> float:
    return math.sin((2 * iterations + 1) * math.asin(2 ** (-n / 2))) ** 2


def gen_vqe_ry(n: int, depth: int, params) -> Circuit:
    """Hardware-efficient ansatz: RY rotation layers (as u3(theta,0,0))
    alternating with linear-chain CX entanglers."""
    params = list(params)
    if len(params) != n * (depth + 1):
        raise ValueError(f"need n*(depth+1) = {n * (depth + 1)} parameters")
    c = Circuit(n)
    it = iter(params)
    for q in range(n):
        c.u3(next(it), 0.0, 0.0, q)
    for _ in range(depth):
        for q in range(n - 1):
            c.cx(q, q + 1)
        for q in range(n):
            c.u3(next(it), 0.0, 0.0, q)
    return c


def gen_qv_like(n: int, depth: int, seed: int) -> Circuit:
    """Random entangling stress circuit: per layer, random qubit pairing with
    u3 dressing around a two-CX sandwich.  Deterministic in the seed."""
    if n < 2:
        raise ValueError("need at least two qubits")
    import numpy as np
    rng = np.random.default_rng(seed)
    c = Circuit(n)

    def r(q):
        a, b_, g = rng.uniform(0.0, TWO_PI, 3)
        c.u3(float(a), float(b_), float(g), q)

    for _ in range(depth):
        perm = rng.permutation(n)
        for i in range(n // 2):
            a, b = int(perm[2 * i]), int(perm[2 * i + 1])
            r(a); r(b)
            c.cx(a, b)
            r(a); r(b)
            c.cx(a, b)
            r(a); r(b)
    return c


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

class BenchSpec(NamedTuple):
    algorithm: str  # a name in ALGORITHMS
    n: int
    reps: int = 25
    coupling: object = None  # name, path or CouplingMap
    seed: int = 0


class ReportRow(NamedTuple):
    benchmark: str
    n: int
    pipeline: str
    cx: int
    u1q: int
    depth: int
    ms: float
    seed: int
    verified: bool


CSV_HEADER = "benchmark,n,pipeline,cx,u1q,depth,ms,seed,verified"


# The algorithms `rpoc bench --alg` names: each maps (n, a Random drawn
# from the seed, the seed) to its circuit.
ALGORITHMS = {
    "bv": lambda n, rng, seed: gen_bv(
        n, "".join(rng.choice("01") for _ in range(n))),
    "qpe": lambda n, rng, seed: gen_qpe(n, (2 ** n - 1) / 2 ** n),
    "grover": lambda n, rng, seed: gen_grover(
        n, 2 ** n - 1, max(1, round(math.pi / 4 * math.sqrt(2 ** n)))),
    "vqe_ry": lambda n, rng, seed: gen_vqe_ry(
        n, 2, [rng.uniform(0, TWO_PI) for _ in range(n * 3)]),
    "qv_like": lambda n, rng, seed: gen_qv_like(n, n, seed),
}


def build_circuit(spec: BenchSpec) -> Circuit:
    """The spec's circuit; bv's hidden string and vqe_ry's angles are drawn
    from the seed, the other settings are fixed."""
    make = ALGORITHMS.get(spec.algorithm)
    if make is None:
        raise ValueError(f"unknown algorithm {spec.algorithm!r}")
    return make(spec.n, random.Random(spec.seed), spec.seed)


def run_bench(spec: BenchSpec, verify: bool = True) -> list[ReportRow]:
    """Transpile the benchmark reps times under both pipelines and report raw
    rows.  Each output is checked by the oracle once before its row is
    emitted: the row is flagged `verified=False` exactly when that check
    raises WidthError, and any other failure raises VerificationError.
    verify=False skips the oracle and flags every row."""
    from .oracle import WidthError, equivalent_up_to_global_phase
    if spec.reps < 1:
        raise ValueError("repetitions must be >= 1")
    cmap = resolve_coupling(spec.coupling)
    circ = build_circuit(spec)
    rows: list[ReportRow] = []
    for r in range(spec.reps):
        seed = spec.seed + r
        for name, on in (("baseline", False), ("rpo", True)):
            opts = PipelineOptions(coupling=cmap, seed=seed,
                                   enable_qbo=on, enable_qpo=on)
            t0 = time.perf_counter()
            out = pipeline(circ, opts)
            ms = 1000.0 * (time.perf_counter() - t0)
            checked = verify
            try:
                rep = verify and equivalent_up_to_global_phase(
                    circ, out, perm=out.layout)
                detail = verify and not rep.equivalent and rep.detail
            except WidthError:
                checked = detail = False
            except ValueError as e:  # a generated source always simulates
                detail = f"{type(e).__name__}: {e}"
            if detail:
                raise VerificationError(
                    f"{spec.algorithm} n={spec.n} seed={seed} "
                    f"pipeline={name}: {detail}",
                    emit_program(circ), emit_program(out))
            rows.append(ReportRow(spec.algorithm, spec.n, name, cx_count(out),
                                  count_1q(out), depth(out), ms, seed, checked))
    return rows


def rows_to_csv(rows: list[ReportRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.benchmark},{r.n},{r.pipeline},{r.cx},{r.u1q},"
                     f"{r.depth},{r.ms:.3f},{r.seed},{int(r.verified)}")
    return "\n".join(lines) + "\n"


def median_summary(rows: list[ReportRow]) -> list[dict]:
    """Median cx/u1q/depth/ms per (benchmark, n, pipeline), plus the CX
    reduction of the optimizing pipeline relative to the baseline."""
    import statistics  # here: the CLI imports this module for every command
    groups: dict[tuple, list[ReportRow]] = {}
    for r in rows:
        groups.setdefault((r.benchmark, r.n, r.pipeline), []).append(r)
    summary = []
    for (bench, n, pipe), rs in sorted(groups.items()):
        summary.append({
            "benchmark": bench, "n": n, "pipeline": pipe,
            "cx": statistics.median(r.cx for r in rs),
            "u1q": statistics.median(r.u1q for r in rs),
            "depth": statistics.median(r.depth for r in rs),
            "ms": statistics.median(r.ms for r in rs),
        })
    by_key = {(s["benchmark"], s["n"], s["pipeline"]): s for s in summary}
    for s in summary:
        base = by_key.get((s["benchmark"], s["n"], "baseline"))
        if s["pipeline"] != "baseline" and base and base["cx"]:
            s["cx_reduction_pct"] = 100.0 * (1.0 - s["cx"] / base["cx"])
    return summary
