"""Shared test utilities: random circuit generation, independent oracles."""
from __future__ import annotations

import cmath
import math
import random

import numpy as np

from rpoc import Circuit, GateKind, Instruction
from rpoc.analysis import BasisState

TWO_PI = 2.0 * math.pi


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_statevector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def random_circuit(rng: random.Random, n: int, length: int,
                   allow_reset: bool = False) -> Circuit:
    """Random circuit over the kinds the state trackers understand.

    RESET is placed only on wires that have never been entangled, so the
    simulator accepts every generated circuit.
    """
    c = Circuit(n)
    entangled = [False] * n
    named_1q = [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S,
                GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.ID]
    for _ in range(length):
        r = rng.random()
        if r < 0.40:
            c.append(Instruction(rng.choice(named_1q), (rng.randrange(n),)))
        elif r < 0.55:
            c.u3(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI),
                 rng.uniform(0, TWO_PI), rng.randrange(n))
        elif r < 0.62:
            c.u1(rng.choice([0.0, math.pi / 2, math.pi, 3 * math.pi / 2,
                             rng.uniform(0, TWO_PI)]), rng.randrange(n))
        elif r < 0.75:
            a, b = rng.sample(range(n), 2)
            c.cx(a, b)
            entangled[a] = entangled[b] = True
        elif r < 0.81:
            a, b = rng.sample(range(n), 2)
            c.cz(a, b)
            entangled[a] = entangled[b] = True
        elif r < 0.89:
            a, b = rng.sample(range(n), 2)
            c.swap(a, b)
            entangled[a], entangled[b] = entangled[b], entangled[a]
        elif r < 0.93 and n >= 3:
            a, b, t = rng.sample(range(n), 3)
            c.ccx(a, b, t)
            entangled[a] = entangled[b] = entangled[t] = True
        elif r < 0.97:
            a, b = rng.sample(range(n), 2)
            c.swapz(a, b)
            entangled[a] = entangled[b] = True  # conservative
        elif allow_reset:
            q = rng.randrange(n)
            if not entangled[q]:
                c.reset(q)
    return c


# Gates preparing each tracked basis state from |0>.
BASIS_PREP: dict[BasisState, list[GateKind]] = {
    BasisState.ZERO: [],
    BasisState.ONE: [GateKind.X],
    BasisState.PLUS: [GateKind.H],
    BasisState.MINUS: [GateKind.X, GateKind.H],
    BasisState.PLUS_I: [GateKind.H, GateKind.S],
    BasisState.MINUS_I: [GateKind.H, GateKind.SDG],
}

# Spanning inputs for an unconstrained table wire: the Z basis plus two
# coherence witnesses.  Fidelity 1 on all four pins the replacement to the
# original up to one global phase on the whole subspace.
TOP_SPAN: list[list[GateKind]] = [
    [],                        # |0>
    [GateKind.X],              # |1>
    [GateKind.H],              # |+>
    [GateKind.H, GateKind.S],  # |+i>
]


def depth_oracle(c: Circuit) -> int:
    """Independent longest-path depth over the pairwise conflict relation."""
    insts = c.instructions
    if not insts:
        return 0
    def wires(inst):
        return {("q", q) for q in inst.qubits} | {("c", b) for b in inst.clbits}
    dp = [1] * len(insts)
    for j in range(len(insts)):
        wj = wires(insts[j])
        for i in range(j):
            if wires(insts[i]) & wj:
                dp[j] = max(dp[j], dp[i] + 1)
    return max(dp)


def partial_trace_oracle(sv: np.ndarray, q: int) -> np.ndarray:
    """Independent reduced density matrix via explicit index summation."""
    n = int(round(np.log2(sv.size)))
    rho = np.zeros((2, 2), dtype=complex)
    for i in range(sv.size):
        bi = (i >> (n - 1 - q)) & 1
        for bj in range(2):
            j = (i & ~(1 << (n - 1 - q))) | (bj << (n - 1 - q))
            rho[bi, bj] += sv[i] * np.conj(sv[j])
    return rho


# ---------------------------------------------------------------------------
# Reference simulator: full 2^n gate matrices built by index arithmetic.
# Shares no code with rpoc.oracle (or rpoc.synth); for n <= REF_MAX_QUBITS.
# ---------------------------------------------------------------------------

REF_MAX_QUBITS = 6


def _ref_u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -cmath.exp(1j * lam) * s],
                     [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]])


_R2 = 1 / math.sqrt(2)
_REF_NAMED = {
    GateKind.ID: [[1, 0], [0, 1]],
    GateKind.X: [[0, 1], [1, 0]],
    GateKind.Y: [[0, -1j], [1j, 0]],
    GateKind.Z: [[1, 0], [0, -1]],
    GateKind.H: [[_R2, _R2], [_R2, -_R2]],
    GateKind.S: [[1, 0], [0, 1j]],
    GateKind.SDG: [[1, 0], [0, -1j]],
    GateKind.T: [[1, 0], [0, cmath.exp(1j * math.pi / 4)]],
    GateKind.TDG: [[1, 0], [0, cmath.exp(-1j * math.pi / 4)]],
}


def ref_matrix_1q(kind: GateKind, params: tuple[float, ...]) -> np.ndarray:
    if kind in _REF_NAMED:
        return np.array(_REF_NAMED[kind], dtype=complex)
    if kind is GateKind.U1:
        return _ref_u3(0.0, 0.0, params[0])
    if kind is GateKind.U2:
        return _ref_u3(math.pi / 2, params[0], params[1])
    return _ref_u3(*params)


def _bit(i: int, q: int, n: int) -> int:
    return (i >> (n - 1 - q)) & 1


def _set_bit(i: int, q: int, n: int, b: int) -> int:
    mask = 1 << (n - 1 - q)
    return (i | mask) if b else (i & ~mask)


def ref_gate_matrix(inst: Instruction, n: int) -> np.ndarray:
    """The full 2^n x 2^n unitary of one gate; qubit 0 is the high bit."""
    k, qs = inst.kind, inst.qubits
    if k is GateKind.SWAPZ:  # defined as cx(a, z); cx(z, a)
        a, z = qs
        return (ref_gate_matrix(Instruction(GateKind.CX, (z, a)), n)
                @ ref_gate_matrix(Instruction(GateKind.CX, (a, z)), n))
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    if inst.is_1q or k is GateKind.CU3:
        m = ref_matrix_1q(GateKind.U3 if k is GateKind.CU3 else k, inst.params)
    for col in range(dim):
        if inst.is_1q or k is GateKind.CU3:
            q = qs[-1]
            if k is GateKind.CU3 and not _bit(col, qs[0], n):
                u[col, col] = 1.0
                continue
            for b in (0, 1):
                u[_set_bit(col, q, n, b), col] += m[b, _bit(col, q, n)]
        elif k in (GateKind.CX, GateKind.CCX, GateKind.MCX):
            mask = inst.open_mask or (False,) * (len(qs) - 1)
            fires = all(_bit(col, c, n) == (0 if o else 1)
                        for c, o in zip(qs[:-1], mask))
            t = qs[-1]
            row = _set_bit(col, t, n, 1 - _bit(col, t, n)) if fires else col
            u[row, col] = 1.0
        elif k is GateKind.CZ:
            u[col, col] = -1.0 if _bit(col, qs[0], n) and _bit(col, qs[1], n) else 1.0
        elif k in (GateKind.SWAP, GateKind.CSWAP):
            a, b = qs[-2:]
            row = col
            if k is GateKind.SWAP or _bit(col, qs[0], n):
                row = _set_bit(_set_bit(col, a, n, _bit(col, b, n)), b, n,
                               _bit(col, a, n))
            u[row, col] = 1.0
        else:
            raise ValueError(f"no reference matrix for {k.value}")
    return u


def ref_pure_params(rho: np.ndarray) -> tuple[float, float] | None:
    """(theta, phi) of a 2x2 density matrix's state when it is pure."""
    vals, vecs = np.linalg.eigh(rho)
    if vals[-1] < 1.0 - 1e-12:
        return None
    v = vecs[:, -1]
    theta = 2.0 * math.atan2(abs(v[1]), abs(v[0]))
    phi = cmath.phase(v[1]) - cmath.phase(v[0]) if abs(v[0]) * abs(v[1]) > 1e-12 else 0.0
    return theta, phi


def ref_simulate(c: Circuit, initial_state: np.ndarray | None = None
                 ) -> np.ndarray | dict[str, float]:
    """Same contract as rpoc.oracle.simulate, by dense matrix products.

    Raises ValueError for a mid-circuit measurement, a reused clbit, a
    failed annotation or a reset on an entangled wire.  A reset maps the
    wire's pure state onto |0> by the projector |0><v|, so its global phase
    may differ from the oracle's.
    """
    n = c.n_qubits
    assert n <= REF_MAX_QUBITS
    dim = 1 << n
    if initial_state is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.array(initial_state, dtype=complex)
    measured: dict[int, int] = {}
    for inst in c.instructions:
        k = inst.kind
        if k is GateKind.BARRIER:
            continue
        if any(q in measured for q in inst.qubits):
            raise ValueError("mid-circuit measurement")
        q = inst.qubits[0]
        if k is GateKind.MEASURE:
            if inst.clbits[0] in measured.values():
                raise ValueError("clbit measured twice")
            measured[q] = inst.clbits[0]
        elif k is GateKind.ANNOT:
            theta, phi = inst.params
            v = np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])
            overlap = np.real(v.conj() @ partial_trace_oracle(state, q) @ v)
            if overlap < 1.0 - 1e-8:
                raise ValueError("annotation does not hold")
        elif k is GateKind.RESET:
            vals, vecs = np.linalg.eigh(partial_trace_oracle(state, q))
            if vals[-1] < 1.0 - 1e-8:
                raise ValueError("reset on an entangled wire")
            top = vecs[:, -1]
            out = np.zeros(dim, dtype=complex)
            for i in range(dim):
                if not _bit(i, q, n):
                    out[i] = (np.conj(top[0]) * state[i]
                              + np.conj(top[1]) * state[_set_bit(i, q, n, 1)])
            state = out / np.linalg.norm(out)
        else:
            state = ref_gate_matrix(inst, n) @ state
    if not measured:
        return state
    dist: dict[str, float] = {}
    for i in range(dim):
        key = ["0"] * c.n_clbits
        for q, b in measured.items():
            key[b] = str(_bit(i, q, n))
        key = "".join(key)
        dist[key] = dist.get(key, 0.0) + abs(state[i]) ** 2
    return {k: p for k, p in dist.items() if p > 1e-15}


def ref_embed(sv: np.ndarray, n_out: int, perm: list[int]) -> np.ndarray:
    """Input wire i of sv lands on wire perm[i] of n_out; the rest are |0>."""
    n_in = len(perm)
    out = np.zeros(1 << n_out, dtype=complex)
    for i in range(1 << n_in):
        j = 0
        for q in range(n_in):
            j = _set_bit(j, perm[q], n_out, _bit(i, q, n_in))
        out[j] = sv[i]
    return out


def random_full_circuit(rng: random.Random, n: int, length: int,
                        active: list[int] | None = None,
                        measure: bool = False) -> Circuit:
    """Random circuit over every gate kind, acting only on `active` wires
    (default all): open controls, mcx, cu3, cswap, swapz, barriers, resets
    and annotations (both placed only where they hold, by reference
    simulation) and, with `measure`, terminal measurement."""
    active = list(range(n)) if active is None else active
    c = Circuit(n, n if measure else 0)
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    kinds = ["1q", "u", "cx", "cz", "cu3", "swap", "swapz", "ccx", "mcx",
             "cswap", "barrier", "annot", "reset"]
    for _ in range(length):
        kind = rng.choice(kinds)
        need = {"cx": 2, "cz": 2, "cu3": 2, "swap": 2, "swapz": 2, "ccx": 3,
                "mcx": 3, "cswap": 3}.get(kind, 1)
        if need > len(active):
            continue
        if kind == "mcx":
            need = rng.randint(3, min(5, len(active)))
        qs = tuple(rng.sample(active, need))
        mask = tuple(rng.random() < 0.4 for _ in range(need - 1))
        if kind == "1q":
            inst = Instruction(rng.choice(list(_REF_NAMED)), qs)
        elif kind == "u":
            k = rng.choice([GateKind.U1, GateKind.U2, GateKind.U3])
            n_params = {GateKind.U1: 1, GateKind.U2: 2, GateKind.U3: 3}[k]
            inst = Instruction(k, qs, tuple(rng.uniform(0, TWO_PI)
                                            for _ in range(n_params)))
        elif kind in ("cx", "ccx", "mcx"):
            k = {"cx": GateKind.CX, "ccx": GateKind.CCX, "mcx": GateKind.MCX}[kind]
            inst = Instruction(k, qs, open_mask=mask if any(mask) else ())
        elif kind == "cu3":
            inst = Instruction(GateKind.CU3, qs, tuple(rng.uniform(0, TWO_PI)
                                                       for _ in range(3)))
        elif kind == "barrier":
            inst = Instruction(GateKind.BARRIER, qs)
        elif kind in ("annot", "reset"):
            pure = ref_pure_params(partial_trace_oracle(state, qs[0]))
            if pure is None:
                continue
            inst = (Instruction(GateKind.ANNOT, qs, pure) if kind == "annot"
                    else Instruction(GateKind.RESET, qs))
        else:
            inst = Instruction(GateKind(kind), qs)
        step = Circuit(n)
        step.append(inst)
        state = ref_simulate(step, initial_state=state)
        c.append(inst)
    if measure:
        wires = rng.sample(range(n), rng.randint(1, n))
        for q, b in zip(wires, rng.sample(range(n), len(wires))):
            c.measure(q, b)
    return c
