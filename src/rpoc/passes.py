"""State-tracking rewrite passes, qubit routing, and the pass pipeline.

Both rewrite passes run one pure-state `Tracker` (analysis.py) and
interleave it with rewriting in a single in-order traversal, so a removed
gate never clobbers the states it would have destroyed:

- qbo: reads each wire's state as one of the six basis rays or TOP
  (`basis_of`) and applies the CX/SWAP rewrite tables through
  cx_cell_instructions/swap_cell_instructions plus multi-controlled-gate
  rules; it drops a single-qubit gate that fixes its wire's known state.
  Rewrites change the circuit's unitary but preserve its action on the
  tracked inputs, up to global phase; so a rewritten SWAP exchanges the
  states tracked before it, whatever it emits.
- qpo: uses the tracked pure states as they are: it strength-reduces SWAPs
  on known states, rewrites controlled-SWAPs with known targets, and
  optionally re-synthesizes two-qubit blocks with known inputs into a
  state-preparation circuit of at most one CX.

Every table cell and rule is covered by an exhaustive brute-force
equivalence test; nothing here is trusted without the oracle's sign-off.
"""
from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .analysis import (BasisState, Tracker, basis_of, is_zero, pure_transition,
                       vector_to_pure)
from .circuit import Circuit, GateKind, GATES_1Q, Instruction, angles_equal
from .oracle import simulate
from .synth import (DEFAULT_BASIS, U3Params, as_u3params, cancel_adjacent_cx,
                    cswap_to_ccx, merge_1q_runs, prepare_two_qubit_state,
                    pure_state_vector, pure_to_pure_gate, pure_to_zero_gate,
                    swapz_to_cx, u3params_instruction, unroll, _i, _make_mcx,
                    _open_control_wrap)

_B = BasisState
_K = GateKind

# ---------------------------------------------------------------------------
# Rewrite tables (stored as data; an exhaustive oracle test validates every
# cell, so a transcription slip is a build error, never a silent miscompile).
# ---------------------------------------------------------------------------

# CX cells keyed by (control state, target state); values are replacement
# single-qubit gates as (kind, wire-role) with role "c"/"t", or None to keep.
# Y-basis states are looked up as TOP.
KEEP = None

_CX_COLUMN = {
    # control ZERO: the gate never fires.
    _B.ZERO: {s: () for s in (_B.TOP, _B.ZERO, _B.ONE, _B.PLUS, _B.MINUS)},
    # control ONE: the gate always fires.
    _B.ONE: {
        _B.TOP: ((_K.X, "t"),),
        _B.ZERO: ((_K.X, "t"),),
        _B.ONE: ((_K.X, "t"),),
        _B.PLUS: (),
        _B.MINUS: (),
    },
}
for _ctrl in (_B.TOP, _B.PLUS, _B.MINUS):
    _CX_COLUMN[_ctrl] = {
        _B.TOP: KEEP,
        _B.ZERO: KEEP,
        _B.ONE: KEEP,
        _B.PLUS: (),                 # X-eigenstate target: no effect
        _B.MINUS: ((_K.Z, "c"),),    # phase kickback onto the control
    }
CX_CELLS = {(ctrl, tgt): ops
            for ctrl, col in _CX_COLUMN.items() for tgt, ops in col.items()}

# SWAP cells keyed by (top state, bottom state); ops are (kind, role) with
# role "a" (top) / "b" (bottom), or ("swapz", role) naming the operand that
# becomes the zero-designated qubit.  None keeps the SWAP.
_SWAPZ = "swapz"


def _both(k1, k2):
    """Fixup pair: k1 on the top wire, k2 on the bottom wire."""
    return ((k1, "a"), (k2, "b"))


SWAP_CELLS = {
    (_B.TOP, _B.TOP): KEEP,
    (_B.ZERO, _B.TOP): ((_SWAPZ, "a"),),
    (_B.ONE, _B.TOP): ((_K.X, "b"), (_SWAPZ, "a")),
    (_B.PLUS, _B.TOP): ((_SWAPZ, "b"),),
    (_B.MINUS, _B.TOP): ((_K.Z, "b"), (_SWAPZ, "b")),

    (_B.TOP, _B.ZERO): ((_SWAPZ, "b"),),
    (_B.ZERO, _B.ZERO): (),
    (_B.ONE, _B.ZERO): _both(_K.X, _K.X),
    (_B.PLUS, _B.ZERO): _both(_K.H, _K.H),
    (_B.MINUS, _B.ZERO): ((_K.H, "a"), (_K.X, "b"), (_K.X, "a"), (_K.H, "b")),

    (_B.TOP, _B.ONE): ((_K.X, "a"), (_SWAPZ, "b")),
    (_B.ZERO, _B.ONE): _both(_K.X, _K.X),
    (_B.ONE, _B.ONE): (),
    (_B.PLUS, _B.ONE): ((_K.H, "a"), (_K.X, "b"), (_K.X, "a"), (_K.H, "b")),
    (_B.MINUS, _B.ONE): _both(_K.H, _K.H),

    (_B.TOP, _B.PLUS): ((_SWAPZ, "a"),),
    (_B.ZERO, _B.PLUS): _both(_K.H, _K.H),
    (_B.ONE, _B.PLUS): ((_K.X, "a"), (_K.H, "b"), (_K.H, "a"), (_K.X, "b")),
    (_B.PLUS, _B.PLUS): (),
    (_B.MINUS, _B.PLUS): _both(_K.Z, _K.Z),

    (_B.TOP, _B.MINUS): ((_K.Z, "a"), (_SWAPZ, "a")),
    (_B.ZERO, _B.MINUS): ((_K.X, "a"), (_K.H, "b"), (_K.H, "a"), (_K.X, "b")),
    (_B.ONE, _B.MINUS): _both(_K.H, _K.H),
    (_B.PLUS, _B.MINUS): _both(_K.Z, _K.Z),
    (_B.MINUS, _B.MINUS): (),
}


def _table_state(s: BasisState) -> BasisState:
    """Y-basis states fall outside the X/Z tables; treat them as unknown."""
    if s in (_B.PLUS_I, _B.MINUS_I):
        return _B.TOP
    return s


def cx_cell_instructions(control_state: BasisState, target_state: BasisState,
                         c: int, t: int) -> list[Instruction] | None:
    """Replacement of CX(c, t) under the given tracked states (None = keep)."""
    cell = CX_CELLS[(_table_state(control_state), _table_state(target_state))]
    if cell is KEEP:
        return None
    return [_i(kind, (c if role == "c" else t,)) for kind, role in cell]


def swap_cell_instructions(top_state: BasisState, bottom_state: BasisState,
                           a: int, b: int) -> list[Instruction] | None:
    """Replacement of SWAP(a, b) under the given tracked states (None = keep)."""
    cell = SWAP_CELLS[(_table_state(top_state), _table_state(bottom_state))]
    if cell is KEEP:
        return None
    out = []
    for op in cell:
        if op[0] == _SWAPZ:
            z = a if op[1] == "a" else b
            other = b if z == a else a
            out.append(_i(_K.SWAPZ, (other, z)))
        else:
            kind, role = op
            out.append(_i(kind, (a if role == "a" else b,)))
    return out


# ---------------------------------------------------------------------------
# Basis-state pass
# ---------------------------------------------------------------------------

def qbo(c: Circuit) -> Circuit:
    """Basis-state rewrite pass: one in-order traversal that interleaves
    state tracking with strength reduction of CX/CZ/SWAP/SWAPZ, Toffoli-style
    multi-controlled gates and controlled swaps.  CX count never increases."""
    out: list[Instruction] = []
    tr = Tracker(c.n_qubits)
    _PASSTHROUGH = (_K.BARRIER, _K.MEASURE, _K.RESET, _K.ANNOT)

    def keep(inst: Instruction) -> None:
        out.append(inst)
        tr.step(inst)

    def ray(q: int) -> BasisState:
        return basis_of(tr.states[q])

    def visit_all(insts: list[Instruction]) -> None:
        for sub in insts:
            visit(sub)

    def visit(inst: Instruction) -> None:
        k = inst.kind
        if k in _PASSTHROUGH:
            keep(inst)
            return
        if inst.open_mask:
            visit_all(_open_control_wrap(inst))
            return
        if inst.is_1q:
            q = inst.qubits[0]
            s = tr.states[q]
            if s is not None:
                new = pure_transition(s, as_u3params(inst))
                if angles_equal(new[0], s[0]) and angles_equal(new[1], s[1]):
                    return  # the gate fixes the tracked state: drop it
                tr.states[q] = new
            out.append(inst)
            return
        if k is _K.CX:
            cq, tq = inst.qubits
            repl = cx_cell_instructions(ray(cq), ray(tq), cq, tq)
            if repl is None:
                keep(inst)
            else:
                visit_all(repl)
        elif k is _K.CZ:
            visit_cz(inst)
        elif k is _K.SWAP or (k is _K.SWAPZ
                              and is_zero(tr.states[inst.qubits[1]])):
            # A validated SWAPZ is semantically a SWAP.
            visit_swaplike(inst)
        elif k is _K.SWAPZ:
            # Unverifiable zero designation: fall back to the definition.
            visit_all(swapz_to_cx(*inst.qubits))
        elif k is _K.CCX or k is _K.MCX:
            visit_mcx(inst)
        elif k is _K.CSWAP:
            visit_cswap(inst)
        elif k is _K.CU3:
            visit_cu3(inst)
        else:
            keep(inst)

    def visit_cz(inst: Instruction) -> None:
        a, b = inst.qubits
        sa, sb = ray(a), ray(b)
        if sa is _B.ZERO or sb is _B.ZERO:
            return
        if sa is _B.ONE:
            visit(_i(_K.Z, (b,)))
            return
        if sb is _B.ONE:
            visit(_i(_K.Z, (a,)))
            return
        keep(inst)

    def visit_swaplike(swap: Instruction) -> None:
        # Every cell acts as the SWAP it replaces on its tracked inputs, so
        # the pre-rewrite states are exchanged whatever the cell emits.
        a, b = swap.qubits
        repl = swap_cell_instructions(ray(a), ray(b), a, b)
        out.extend([swap] if repl is None else repl)
        tr.swap(a, b)

    def visit_mcx(inst: Instruction) -> None:
        controls, target = inst.qubits[:-1], inst.qubits[-1]
        if any(ray(q) is _B.ZERO for q in controls):
            return
        if ray(target) is _B.PLUS:
            return
        keep_controls = tuple(q for q in controls if ray(q) is not _B.ONE)
        if len(keep_controls) < len(controls):
            visit(_make_mcx(keep_controls, target))
            return
        if ray(target) is _B.MINUS:
            # Phase kickback: a controlled-Z among the controls, target on
            # the last control (any choice is valid; fixed for determinism).
            if len(controls) == 1:
                visit(_i(_K.Z, (controls[0],)))
            elif len(controls) == 2:
                visit(_i(_K.CZ, controls))
            else:
                last = controls[-1]
                visit(_i(_K.H, (last,)))
                visit(_make_mcx(controls[:-1], last))
                visit(_i(_K.H, (last,)))
            return
        keep(inst)

    def visit_cswap(inst: Instruction) -> None:
        cq, t1, t2 = inst.qubits
        if ray(cq) is _B.ZERO:
            return
        if ray(cq) is _B.ONE:
            visit_swaplike(_i(_K.SWAP, (t1, t2)))
            return
        if ray(t1) is not _B.TOP or ray(t2) is not _B.TOP:
            # Known swap target: decompose so the first CX can be reduced.
            visit_all(cswap_to_ccx(cq, t1, t2))
            return
        keep(inst)

    def visit_cu3(inst: Instruction) -> None:
        cq, tq = inst.qubits
        if ray(cq) is _B.ZERO:
            return
        if ray(cq) is _B.ONE:
            visit(_i(_K.U3, (tq,), inst.params))
            return
        keep(inst)

    visit_all(c.instructions)
    return c.replace(out)


# ---------------------------------------------------------------------------
# Pure-state pass
# ---------------------------------------------------------------------------

_BLOCK_KINDS = GATES_1Q | {_K.CX, _K.CZ, _K.SWAP, _K.SWAPZ}
_BLOCK_CX_COST = {_K.CX: 1, _K.CZ: 1, _K.SWAP: 3, _K.SWAPZ: 2}


def _remap(inst: Instruction, wires) -> Instruction:
    return _i(inst.kind, tuple(wires[q] for q in inst.qubits),
              inst.params, inst.clbits, inst.open_mask)


def qpo(c: Circuit, *, resynth_blocks: bool = False) -> Circuit:
    """Pure-state rewrite pass.

    SWAPs with one known operand become a rotation to |0>, a SWAPZ designated
    on that wire and a re-preparation on the other (net one CX saved); SWAPs
    with two known operands become two local rotations (three CX saved).
    Controlled swaps with two known targets become two controlled-u3 gates.
    With `resynth_blocks`, maximal two-qubit runs whose inputs are both known
    and that contain two or more CX are replaced by a state-preparation
    circuit with at most one CX.
    """
    out: list[Instruction] = []
    tr = Tracker(c.n_qubits)
    insts = c.instructions
    consumed: set[int] = set()

    def keep(inst: Instruction) -> None:
        out.append(inst)
        tr.step(inst)

    def emit_params(p: U3Params, q: int) -> None:
        inst = u3params_instruction(p, q)
        if inst is not None:
            keep(inst)

    def collect_block(start: int, a: int, b: int) -> tuple[list[int], int]:
        pair = {a, b}
        members, cost = [], 0
        j = start
        while j < len(insts):
            ins = insts[j]
            wires = set(ins.qubits)
            if j > start and not (wires & pair):
                j += 1
                continue  # disjoint wires: commutes past the block
            if wires <= pair and ins.kind in _BLOCK_KINDS and not ins.open_mask:
                members.append(j)
                cost += _BLOCK_CX_COST.get(ins.kind, 0)
                j += 1
                continue
            break
        return members, cost

    for i, inst in enumerate(insts):
        if i in consumed:
            continue
        k = inst.kind

        if (resynth_blocks and k in (_K.CX, _K.CZ, _K.SWAP, _K.SWAPZ)
                and not inst.open_mask):
            a, b = inst.qubits
            sa, sb = tr.states[a], tr.states[b]
            if sa is not None and sb is not None:
                members, cost = collect_block(i, a, b)
                if cost >= 2:
                    sub = Circuit(2).replace(
                        _remap(insts[j], {a: 0, b: 1}) for j in members)
                    init = np.kron(pure_state_vector(*sa), pure_state_vector(*sb))
                    target = np.asarray(simulate(sub, initial_state=init))
                    prep = prepare_two_qubit_state(target, sa, sb)
                    for p in prep.instructions:
                        out.append(_remap(p, (a, b)))
                    u, s, vh = np.linalg.svd(target.reshape(2, 2))
                    if s[1] <= 1e-7:  # product output: states stay known
                        tr.states[a] = vector_to_pure(u[:, 0])
                        tr.states[b] = vector_to_pure(vh[0, :])
                    else:
                        tr.set_top((a, b))
                    consumed.update(members)
                    continue

        qs = inst.qubits
        known = [tr.states[q] is not None for q in qs]
        if k is _K.SWAP and any(known):
            a, b = qs
            sa, sb = tr.states[a], tr.states[b]
            if all(known):
                emit_params(pure_to_pure_gate(sa, sb), a)
                emit_params(pure_to_pure_gate(sb, sa), b)
            else:
                known_q, other = (a, b) if known[0] else (b, a)
                theta, phi = tr.states[known_q]
                emit_params(pure_to_zero_gate(theta, phi), known_q)
                keep(_i(_K.SWAPZ, (other, known_q)))
                emit_params(U3Params(theta, phi, 0.0), other)
        elif k is _K.SWAPZ and all(known) and is_zero(tr.states[qs[1]]):
            a, z = qs
            sa, sz = tr.states[a], tr.states[z]
            emit_params(pure_to_pure_gate(sa, sz), a)
            emit_params(pure_to_pure_gate(sz, sa), z)
        elif k is _K.CSWAP and known[1] and known[2]:
            cq, t1, t2 = qs
            p = pure_to_pure_gate(tr.states[t1], tr.states[t2])
            if not p.is_identity():
                pinv = p.inverse()
                out.append(_i(_K.CU3, (cq, t1), (p.theta, p.phi, p.lam)))
                out.append(_i(_K.CU3, (cq, t2), (pinv.theta, pinv.phi, pinv.lam)))
                tr.set_top(qs)
        else:
            keep(inst)

    return c.replace(out)


# ---------------------------------------------------------------------------
# Coupling maps and routing
# ---------------------------------------------------------------------------

class CouplingMap:
    """Undirected physical-qubit adjacency graph."""

    def __init__(self, n_physical: int, edges):
        if n_physical < 1:
            raise ValueError("coupling map needs at least one qubit")
        self.n_physical = n_physical
        norm = set()
        adj: dict[int, set[int]] = {i: set() for i in range(n_physical)}
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError("self-loop in coupling map")
            if not (0 <= a < n_physical and 0 <= b < n_physical):
                raise ValueError("coupling edge out of range")
            norm.add((min(a, b), max(a, b)))
            adj[a].add(b)
            adj[b].add(a)
        self.edges = frozenset(norm)
        self._adj = {k: tuple(sorted(v)) for k, v in adj.items()}
        if -1 in self.distances_from(0):
            raise ValueError("coupling map is not connected")

    def adjacent(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def distances_from(self, src: int) -> list[int]:
        dist = [-1] * self.n_physical
        dist[src] = 0
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y in self._adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def shortest_path(self, a: int, b: int, rng: random.Random) -> list[int]:
        """A shortest a->b path; rng breaks ties between equal-length paths."""
        dist = self.distances_from(b)
        path = [a]
        cur = a
        while cur != b:
            best = min(dist[y] for y in self._adj[cur])
            options = sorted(y for y in self._adj[cur] if dist[y] == best)
            cur = options[0] if len(options) == 1 else rng.choice(options)
            path.append(cur)
        return path

    @staticmethod
    def from_dict(d) -> "CouplingMap":
        try:
            return CouplingMap(int(d["n"]), d["edges"])
        except (KeyError, TypeError) as e:
            raise ValueError('coupling map must be {"n": N, "edges": '
                             f'[[a, b], ...]}} ({e!r})') from None

    @staticmethod
    def from_json_file(path: str) -> "CouplingMap":
        with open(path) as f:
            return CouplingMap.from_dict(json.load(f))


def line_coupling(n: int) -> CouplingMap:
    return CouplingMap(n, [(i, i + 1) for i in range(n - 1)])


def grid_coupling(rows: int, cols: int) -> CouplingMap:
    edges = []
    for r in range(rows):
        for col in range(cols):
            i = r * cols + col
            if col + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return CouplingMap(rows * cols, edges)


BUILTIN_COUPLINGS = {
    "line5": lambda: line_coupling(5),
    "line15": lambda: line_coupling(15),
    "grid4x5": lambda: grid_coupling(4, 5),
}


def resolve_coupling(spec: "str | CouplingMap | None") -> CouplingMap | None:
    if spec is None or isinstance(spec, CouplingMap):
        return spec
    if spec in BUILTIN_COUPLINGS:
        return BUILTIN_COUPLINGS[spec]()
    return CouplingMap.from_json_file(spec)


def route(c: Circuit, cmap: CouplingMap, seed: int = 0,
          random_layout: bool = False) -> tuple[Circuit, list[int]]:
    """Map a 1q/2q-gate circuit onto physical wires, inserting SWAPs along
    shortest paths (moving the first operand; seeded tie-breaking).  Returns
    the routed circuit and the final logical->physical assignment."""
    if c.n_qubits > cmap.n_physical:
        raise ValueError(
            f"circuit needs {c.n_qubits} qubits, map has {cmap.n_physical}")
    rng = random.Random(seed)
    if random_layout:
        l2p = rng.sample(range(cmap.n_physical), c.n_qubits)
    else:
        l2p = list(range(c.n_qubits))
    p2l: list[int] = [-1] * cmap.n_physical
    for lq, pq in enumerate(l2p):
        p2l[pq] = lq

    out: list[Instruction] = []

    def do_swap(x: int, y: int) -> None:
        out.append(_i(_K.SWAP, (x, y)))
        lx, ly = p2l[x], p2l[y]
        p2l[x], p2l[y] = ly, lx
        if lx >= 0:
            l2p[lx] = y
        if ly >= 0:
            l2p[ly] = x

    for inst in c.instructions:
        if inst.kind is not _K.BARRIER and len(inst.qubits) != 1:
            if len(inst.qubits) != 2:
                raise ValueError("route expects an unrolled circuit (1q/2q gates)")
            a, b = inst.qubits
            if not cmap.adjacent(l2p[a], l2p[b]):
                path = cmap.shortest_path(l2p[a], l2p[b], rng)
                for x, y in zip(path, path[1:-1]):
                    do_swap(x, y)
        out.append(_remap(inst, l2p))

    return Circuit(cmap.n_physical, c.n_clbits).replace(out), list(l2p)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineOptions:
    coupling: CouplingMap | None = None
    seed: int = 0
    enable_qbo: bool = True
    enable_qpo: bool = True
    enable_block_resynth: bool = False
    basis: frozenset = DEFAULT_BASIS
    random_layout: bool = False


def pipeline(c: Circuit, opts: PipelineOptions | None = None) -> Circuit:
    """Full optimization pipeline.

    Stage order: basis-state pass; unroll; layout+routing (when a coupling
    map is given); basis-state pass again (for the routed SWAPs) and unroll
    keeping SWAP/SWAPZ; 1q-run merging and the pure-state pass; then unroll
    and merge once, and CX-pair cancellation plus merging until a round
    cancels no pair.  merge_1q_runs is idempotent on its own output, so that
    is the fixpoint; each further round removes gates, so it is reached.
    Stages that cannot change the circuit are skipped: the second unroll
    without qbo, the pre-qpo merge without qpo.  The cleanup cannot change a
    tracked state, so qbo (at most twice) and qpo (once) are not re-run.
    Deterministic for fixed (circuit, options)."""
    opts = opts or PipelineOptions()
    basis = frozenset(opts.basis)
    # SWAP/SWAPZ stay compound until after the pure-state pass, which is the
    # only consumer that can strength-reduce them; the cleanup unrolls the
    # survivors.
    swap_basis = basis | {_K.SWAP, _K.SWAPZ}
    cur = c
    layout: list[int] | None = None

    if opts.enable_qbo:
        cur = qbo(cur)
    cur = unroll(cur, swap_basis)
    if opts.coupling is not None:
        cur, layout = route(cur, opts.coupling, opts.seed, opts.random_layout)
    if opts.enable_qbo:
        cur = unroll(qbo(cur), swap_basis)
    if opts.enable_qpo:
        cur = qpo(merge_1q_runs(cur), resynth_blocks=opts.enable_block_resynth)

    cur = merge_1q_runs(unroll(cur, basis))
    while True:
        before = len(cur.instructions)
        cur = cancel_adjacent_cx(cur)
        if len(cur.instructions) == before:
            break
        cur = merge_1q_runs(cur)

    cur.layout = layout
    return cur
