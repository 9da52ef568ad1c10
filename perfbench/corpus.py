"""Seeded fuzz corpus of small circuits (at most 6 qubits).

The corpus covers every gate kind: named and parameterized 1q gates, cx with
open controls, cz, cu3, swap, swapz, ccx and mcx with open-control masks,
cswap, barriers, annotations placed only where they hold (taken from the
simulated reduced state when it is pure), resets only on unentangled wires,
and terminal measurement.  Half the circuits are compiled onto a seeded
random connected coupling map of at most 8 nodes with a random layout.

Circuit i has a fixed width and length (its shape); the seed draws the gates,
operands, angles, maps and pipeline seeds.  Entry 0 is the minimized
never-worse counterexample from ROADMAP item 4, verbatim.
"""
from __future__ import annotations

import math
import random

import numpy as np

from rpoc.analysis import vector_to_pure
from rpoc.circuit import Circuit, GateKind, Instruction, emit_program
from rpoc.oracle import reduced_qubit_state, simulate
from rpoc.passes import CouplingMap

K = GateKind

N_CIRCUITS = 300
MAX_MAP_NODES = 8

ITEM4_REPRO = """\
qreg q[2];
u3(4.814499294461411,4.938681377419053,0.08610039599769347) q[1];
swap q[1],q[0];
swapz q[1],q[0];
swap q[1],q[0];
"""

_NAMED_1Q = (K.ID, K.X, K.Y, K.Z, K.H, K.S, K.SDG, K.T, K.TDG)
# Angles that keep tracked states on the basis rays, mixed with uniform ones.
_NICE_ANGLES = (0.0, math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2)
# (choice, weight); choices that need more wires are skipped when too narrow.
_MIX = (("named", 30), ("u", 15), ("cx", 13), ("cz", 5), ("cu3", 5),
        ("swap", 7), ("swapz", 4), ("ccx", 4), ("cswap", 4), ("mcx", 3),
        ("barrier", 2), ("annot", 4), ("reset", 4))
_PURE_TOL = 1e-12


class _Draft:
    """A circuit under construction together with its simulated state."""

    def __init__(self, n: int, n_clbits: int):
        self.n = n
        self.circ = Circuit(n, n_clbits)
        self.state = np.zeros(2 ** n, dtype=complex)
        self.state[0] = 1.0

    def add(self, inst: Instruction) -> None:
        self.circ.append(inst)
        step = Circuit(self.n)
        step.append(inst)
        self.state = simulate(step, initial_state=self.state)

    def pure_state(self, q: int) -> tuple[float, float] | None:
        """(theta, phi) of wire q when it is unentangled, else None."""
        vals, vecs = np.linalg.eigh(reduced_qubit_state(self.state, q))
        if vals[-1] < 1.0 - _PURE_TOL:
            return None
        return vector_to_pure(vecs[:, -1])


def _angle(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return rng.choice(_NICE_ANGLES)
    return rng.uniform(0.0, 2 * math.pi)


def _mask(rng: random.Random, n_controls: int) -> tuple[bool, ...]:
    return tuple(rng.random() < 0.3 for _ in range(n_controls))


def _gate(rng: random.Random, b: _Draft) -> Instruction | None:
    n = b.n
    choices, weights = zip(*_MIX)
    kind = rng.choices(choices, weights)[0]
    if kind == "named":
        return Instruction(rng.choice(_NAMED_1Q), (rng.randrange(n),))
    if kind == "u":
        k = rng.choice((K.U1, K.U2, K.U3))
        n_params = {K.U1: 1, K.U2: 2, K.U3: 3}[k]
        return Instruction(k, (rng.randrange(n),),
                           tuple(_angle(rng) for _ in range(n_params)))
    if kind in ("cx", "cz", "cu3", "swap", "swapz"):
        a, t = rng.sample(range(n), 2)
        if kind == "cx":
            return Instruction(K.CX, (a, t), open_mask=_mask(rng, 1))
        if kind == "cu3":
            return Instruction(K.CU3, (a, t),
                               tuple(_angle(rng) for _ in range(3)))
        return Instruction({"cz": K.CZ, "swap": K.SWAP, "swapz": K.SWAPZ}[kind],
                           (a, t))
    if kind in ("ccx", "cswap") and n >= 3:
        qs = tuple(rng.sample(range(n), 3))
        if kind == "ccx":
            return Instruction(K.CCX, qs, open_mask=_mask(rng, 2))
        return Instruction(K.CSWAP, qs)
    if kind == "mcx" and n >= 4:
        qs = tuple(rng.sample(range(n), rng.randint(4, n)))
        return Instruction(K.MCX, qs, open_mask=_mask(rng, len(qs) - 1))
    if kind == "barrier":
        return Instruction(K.BARRIER, tuple(sorted(
            rng.sample(range(n), rng.randint(1, n)))))
    if kind in ("annot", "reset"):
        q = rng.randrange(n)
        pure = b.pure_state(q)
        if pure is None:
            return None
        if kind == "reset":
            return Instruction(K.RESET, (q,))
        return Instruction(K.ANNOT, (q,), pure)
    return None


def random_circuit(rng: random.Random, n: int, length: int) -> Circuit:
    """n-qubit circuit of `length` operations, optionally measured at the end."""
    measured = rng.random() < 0.5
    b = _Draft(n, n if measured else 0)
    added = 0
    while added < length:
        inst = _gate(rng, b)
        if inst is not None:
            b.add(inst)
            added += 1
    if measured:
        qubits = rng.sample(range(n), rng.randint(1, n))
        clbits = rng.sample(range(n), len(qubits))
        for q, cb in zip(qubits, clbits):
            b.circ.measure(q, cb)
    return b.circ


def random_coupling(rng: random.Random, n_min: int) -> CouplingMap:
    """Connected map on n_min..MAX_MAP_NODES nodes: a random tree plus a few
    extra edges."""
    m = rng.randint(n_min, min(MAX_MAP_NODES, n_min + 2))
    edges = {(rng.randrange(k), k) for k in range(1, m)}
    for _ in range(rng.randint(0, m // 2)):
        a, b = rng.sample(range(m), 2)
        edges.add((min(a, b), max(a, b)))
    return CouplingMap(m, sorted(edges))


def build_corpus(rng: random.Random
                 ) -> list[tuple[str, CouplingMap | None, int]]:
    """(program text, coupling map or None, pipeline seed) per circuit."""
    out = [(ITEM4_REPRO, None, 0)]
    for i in range(1, N_CIRCUITS):
        n = 2 + i % 5
        length = 8 + 4 * ((i // 10) % 7)
        circ = random_circuit(rng, n, length)
        cmap = random_coupling(rng, n) if i % 2 else None
        out.append((emit_program(circ), cmap, rng.randrange(2 ** 31)))
    return out
