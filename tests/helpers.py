"""Shared test utilities: random circuit generation, independent oracles."""
from __future__ import annotations

import cmath
import math
import random

import numpy as np

from rpoc import Circuit, GateKind, Instruction
from rpoc.analysis import BasisState
from rpoc.circuit import angles_equal
from rpoc.synth import U3Params, as_u3params, zyz_decompose

TWO_PI = 2.0 * math.pi


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def spy_calls(monkeypatch, module, names) -> list[str]:
    """Wrap the functions `names` of `module` (for the monkeypatch's
    lifetime) so each call appends its name to the returned list."""
    calls: list[str] = []
    for name in names:
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=f, name=name, **kw: (
            calls.append(name), f(*a, **kw))[1])
    return calls


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


# TOP and the six rays: the input classes qbo's two-qubit rules tell apart.
SEVEN = [BasisState.TOP, *BASIS_PREP]


def two_wire_cases(kind: GateKind):
    """Circuits `prep(s_a) q[0]; prep(s_b) q[1]; kind q[0],q[1]` for every
    pair over SEVEN, as (s_a, s_b, [circuit, ...]).  A ray has one prep; TOP
    has one per TOP_SPAN entry, each followed by a u3 that leaves the state
    off all six rays, so qbo reads it as TOP and rewrites all of them alike:
    equivalence on every circuit then holds on the whole input subspace."""
    def preps(state, q):
        if state is BasisState.TOP:
            return [[Instruction(k, (q,)) for k in g]
                    + [Instruction(GateKind.U3, (q,), (1.1, 0.4, 0.0))]
                    for g in TOP_SPAN]
        return [[Instruction(k, (q,)) for k in BASIS_PREP[state]]]

    for sa in SEVEN:
        for sb in SEVEN:
            yield sa, sb, [Circuit(2).extend(pa + pb + [Instruction(kind, (0, 1))])
                           for pa in preps(sa, 0) for pb in preps(sb, 1)]


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
# Reference simulator: each gate's full 2^n x 2^n matrix, built by index
# arithmetic as its nonzero entries and applied as a sparse matrix-vector
# product.  Shares no code with rpoc.oracle (or rpoc.synth); for n <=
# REF_SIM_MAX_QUBITS.  REF_MAX_QUBITS is the width of the small corpora.
# ---------------------------------------------------------------------------

REF_MAX_QUBITS = 6
REF_SIM_MAX_QUBITS = 10


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


def ref_matrix_1q(kind: GateKind, params: tuple[float, ...] = ()
                  ) -> np.ndarray:
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


def ref_gate_entries(inst: Instruction, n: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries (rows, cols, values) of one gate's 2^n x 2^n
    unitary, every column at once; qubit 0 is the high bit.  SWAPZ has no
    entries of its own: ref_apply applies its two defining CX."""
    k, qs = inst.kind, inst.qubits
    col = np.arange(1 << n)

    def bit(q: int) -> np.ndarray:
        return (col >> (n - 1 - q)) & 1

    if inst.is_1q or k is GateKind.CU3:
        m = ref_matrix_1q(GateKind.U3 if k is GateKind.CU3 else k, inst.params)
        mask = 1 << (n - 1 - qs[-1])
        act = bit(qs[0]) == 1 if k is GateKind.CU3 else np.ones(col.size, bool)
        c, b = col[act], bit(qs[-1])[act]
        idle = col[~act]
        return (np.concatenate([c & ~mask, c | mask, idle]),
                np.concatenate([c, c, idle]),
                np.concatenate([m[0, b], m[1, b], np.ones(idle.size)]))
    if k in (GateKind.CX, GateKind.CCX, GateKind.MCX):
        mask = inst.open_mask or (False,) * (len(qs) - 1)
        fires = np.ones(col.size, bool)
        for c, o in zip(qs[:-1], mask):
            fires &= bit(c) == (0 if o else 1)
        row = np.where(fires, col ^ (1 << (n - 1 - qs[-1])), col)
        return row, col, np.ones(col.size)
    if k is GateKind.CZ:
        return col, col, np.where(bit(qs[0]) & bit(qs[1]), -1.0, 1.0)
    if k in (GateKind.SWAP, GateKind.CSWAP):
        a, b = qs[-2:]
        sa, sb = n - 1 - a, n - 1 - b
        row = ((col & ~((1 << sa) | (1 << sb)))
               | (bit(b) << sa) | (bit(a) << sb))
        if k is GateKind.CSWAP:
            row = np.where(bit(qs[0]) == 1, row, col)
        return row, col, np.ones(col.size)
    raise ValueError(f"no reference entries for {k.value}")


def ref_apply(inst: Instruction, state: np.ndarray, n: int) -> np.ndarray:
    """The unitary of one gate (ref_gate_entries) times state."""
    if inst.kind is GateKind.SWAPZ:  # defined as cx(a, z); cx(z, a)
        a, z = inst.qubits
        state = ref_apply(Instruction(GateKind.CX, (a, z)), state, n)
        return ref_apply(Instruction(GateKind.CX, (z, a)), state, n)
    rows, cols, vals = ref_gate_entries(inst, n)
    out = np.zeros(1 << n, dtype=complex)
    np.add.at(out, rows, vals * state[cols])
    return out


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
    """Same contract as rpoc.oracle.simulate, by gate matrix products.

    Raises ValueError for a mid-circuit measurement, a reused clbit, a
    failed annotation or a reset on an entangled wire.  A reset maps the
    wire's pure state onto |0> by the projector |0><v|, so its global phase
    may differ from the oracle's.
    """
    n = c.n_qubits
    assert n <= REF_SIM_MAX_QUBITS
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
            state = ref_apply(inst, state, n)
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


def ref_u3params_instruction(p: U3Params, q: int) -> Instruction | None:
    """rpoc.synth.u3params_instruction by `angles_equal`'s circular tests:
    the cheapest u-gate realizing p on qubit q; None if p is the identity.
    The checked constructor puts the angles in [0, 2*pi)."""
    if angles_equal(p.theta, 0.0):
        s = p.phi + p.lam
        return (None if angles_equal(s, 0.0)
                else Instruction(GateKind.U1, (q,), (s,)))
    if angles_equal(p.theta, math.pi / 2):
        return Instruction(GateKind.U2, (q,), (p.phi, p.lam))
    return Instruction(GateKind.U3, (q,), (p.theta, p.phi, p.lam))


def ref_merge_1q_runs(c: Circuit) -> tuple[Circuit, list[list[Instruction]]]:
    """rpoc.synth.merge_1q_runs by numpy and without its one-gate
    pass-through: the u3 matrices (`as_u3params`) of a run of two or more
    gates are multiplied with `@` and the product goes through
    zyz_decompose; a lone gate keeps its own u3 angles; either is re-emitted
    by ref_u3params_instruction.  Also returns, per output instruction, the
    run fused into it ([] for an instruction that is not a single-qubit
    gate)."""
    out: list[Instruction] = []
    runs: list[list[Instruction]] = []
    pending: dict[int, list[Instruction]] = {}

    def flush(q: int) -> None:
        run = pending.pop(q, None)
        if not run:
            return
        if len(run) == 1:
            p = as_u3params(run[0])
        else:
            m = as_u3params(run[0]).matrix()
            for g in run[1:]:
                m = as_u3params(g).matrix() @ m
            p = zyz_decompose(m)
        inst = ref_u3params_instruction(p, q)
        if inst is not None:
            out.append(inst)
            runs.append(run)

    for inst in c.instructions:
        if inst.is_1q:
            pending.setdefault(inst.qubits[0], []).append(inst)
        else:
            for q in inst.qubits:
                flush(q)
            out.append(inst)
            runs.append([])
    for q in sorted(pending):
        flush(q)
    return c.replace(out), runs
