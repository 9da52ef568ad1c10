"""State-tracking rewrite passes, qubit routing, and the pass pipeline.

Both rewrite passes run one pure-state `Tracker` (analysis.py) and
interleave it with rewriting in a single in-order traversal, so a removed
gate never clobbers the states it would have destroyed:

- qbo: reads each wire's state as one of the six basis rays or TOP
  (`basis_of`) and applies `_qbo_rule`, one rule per gate kind, to CX
  (through the multi-controlled-X rule), CZ, CCX/MCX, SWAPZ, CSWAP and
  CU3; it drops a single-qubit gate that fixes its wire's known state.
  The CSWAP rule also takes known pure targets off the rays (Fredkin).
- qpo: strength-reduces SWAPs on known pure states, and optionally
  re-synthesizes two-qubit blocks with known inputs into a
  state-preparation circuit of at most one CX.

Both passes reduce SWAPs with the one `swap_rule`; qbo passes it only the
states that lie on a ray.  Rewrites change the circuit's unitary but
preserve its action on the tracked inputs, up to global phase, so after a
SWAP both passes exchange the two states tracked before it, whatever the
rule emits.  Every rule is covered by a brute-force equivalence test over
all input classes; nothing here is trusted without the oracle's sign-off.

numpy is imported lazily, by qpo's block resynthesis and `simulate` below.
"""
from __future__ import annotations

import random
from collections import deque
from typing import NamedTuple

from .analysis import (Tracker, basis_of, is_zero, pure_transition,
                       vector_to_pure, _ZERO, _ONE, _PLUS, _MINUS, _TOP)
from .circuit import (Circuit, GateKind, GATES_1Q, Instruction, angles_equal,
                      _CX, _CZ, _CU3, _SWAP, _SWAPZ, _CCX, _MCX, _CSWAP,
                      _RESET, _ANNOT, _BARRIER)
from .synth import (DEFAULT_BASIS, as_u3params, cswap_to_ccx, merge_1q_runs,
                    prepare_two_qubit_state, pure_state_vector,
                    pure_to_pure_gate, pure_to_zero_gate, swapz_to_cx, unroll,
                    _i, _make_mcx, _merge_runs, _open_control_wrap, _u_gate,
                    _KEEP_ALWAYS)

_K = GateKind


def simulate(*args, **kwargs):
    """`oracle.simulate`, imported on first call (the oracle loads numpy)."""
    from .oracle import simulate
    return simulate(*args, **kwargs)


# ---------------------------------------------------------------------------
# The SWAP rule, shared by both passes
# ---------------------------------------------------------------------------

class _Memo(dict):
    """m[k] is f(k), computed on the first lookup of k.  Each pass call makes
    its own, so each distinct input is computed once per call and nothing is
    cached across calls."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, k):
        v = self[k] = self.f(k)
        return v


def _swap_gates(pair) -> tuple:
    """`swap_rule`'s two `_u_gate` choices for the known operand states
    (sa, sb): each wire's rotation when both are known, else the known
    state's rotation to |0> and its re-preparation on the other wire."""
    sa, sb = pair
    if sa is not None and sb is not None:
        return (_u_gate(*pure_to_pure_gate(sa, sb)[:3]),
                _u_gate(*pure_to_pure_gate(sb, sa)[:3]))
    s = sa if sa is not None else sb
    return _u_gate(*pure_to_zero_gate(*s)[:3]), _u_gate(s[0], s[1], 0.0)


def swap_rule(sa: tuple[float, float] | None, sb: tuple[float, float] | None,
              a: int, b: int, gates: _Memo | None = None) -> list[Instruction]:
    """Replacement of SWAP(a, b) given the operands' tracked states (None =
    unknown).  It acts as the SWAP on those inputs, up to global phase.

    Both known: two local rotations, no CX.  One known: rotate it to |0>,
    a SWAPZ designated on it, and re-prepare its state on the other wire
    (two CX).  Neither: the SWAP itself (three CX).  `gates`, a pass call's
    memo of `_swap_gates`, picks the rotations once per distinct state
    pair; they are rebuilt on the wires of each SWAP."""
    if sa is None and sb is None:
        return [_i(_K.SWAP, (a, b))]
    ga, gb = _swap_gates((sa, sb)) if gates is None else gates[sa, sb]
    if sa is None:
        a, b = b, a  # a is the known wire
    new = [] if ga is None else [_i(ga[0], (a,), ga[1])]
    if sa is None or sb is None:
        new.append(_i(_K.SWAPZ, (b, a)))
    if gb is not None:
        new.append(_i(gb[0], (b,), gb[1]))
    return new


# ---------------------------------------------------------------------------
# Basis-state pass
# ---------------------------------------------------------------------------

def _qbo_rule(inst: Instruction, states: list,
              ray=basis_of) -> list[Instruction] | None:
    """qbo's rewrite of a multi-qubit gate given the tracked states: None
    keeps it, a list replaces it (and is rewritten in turn).  Each rule acts
    as the gate it replaces on the operands' tracked states, up to global
    phase.  A CX is the one-control case of the multi-controlled-X rule.
    `ray` is `basis_of`, or a pass call's memo of it."""
    k, qs = inst.kind, inst.qubits
    if inst.open_mask:
        return _open_control_wrap(inst)
    if k is _SWAPZ:
        # Unverifiable zero designation (qbo takes the validated one as a
        # SWAP): fall back to the definition.
        return swapz_to_cx(*qs)
    if k is _CZ:
        ra, rb = (ray(states[q]) for q in qs)
        return ([] if ra is _ZERO or rb is _ZERO
                else [_i(_K.Z, qs[1:])] if ra is _ONE
                else [_i(_K.Z, qs[:1])] if rb is _ONE else None)
    if k is _CX or k is _CCX or k is _MCX:
        controls, target = qs[:-1], qs[-1]
        rays = [ray(states[q]) for q in controls]
        rt = ray(states[target])
        kept = tuple(q for q, r in zip(controls, rays) if r is not _ONE)
        last = controls[-1:]
        # |-> target: phase kickback, a controlled-Z among the controls with
        # the target on the last one (any choice is valid; fixed for
        # determinism).
        return ([] if _ZERO in rays or rt is _PLUS
                else [_make_mcx(kept, target)] if len(kept) < len(controls)
                else None if rt is not _MINUS
                else [_i(_K.Z, controls)] if len(controls) == 1
                else [_i(_K.CZ, controls)] if len(controls) == 2
                else [_i(_K.H, last), _make_mcx(controls[:-1], last[0]),
                      _i(_K.H, last)])
    if k is _CSWAP:
        cq, t1, t2 = qs
        rc, r1, r2 = (ray(states[q]) for q in qs)
        if rc is _ZERO or rc is _ONE:
            return [] if rc is _ZERO else [_i(_K.SWAP, qs[1:])]
        if r1 is not _TOP or r2 is not _TOP:
            # A target on a ray: decompose so the first CX can be reduced.
            return cswap_to_ccx(*qs)
        s1, s2 = states[t1], states[t2]
        if s1 is None or s2 is None:
            return None
        # Fredkin with known pure targets: under the control, rotate each
        # target into the other's state (the phases cancel between the two).
        p = pure_to_pure_gate(s1, s2)
        return [] if p.is_identity() else [
            _i(_K.CU3, (cq, t1), p[:3]), _i(_K.CU3, (cq, t2), p.inverse()[:3])]
    if k is _CU3:
        rc = ray(states[qs[0]])
        return ([] if rc is _ZERO
                else [_i(_K.U3, qs[1:], inst.params)] if rc is _ONE else None)
    return None


# Kinds that act even when every operand is TOP: RESET and ANNOT set a known
# state, and qbo rewrites a SWAPZ it cannot validate.
_ACT_ON_TOP = frozenset({_RESET, _ANNOT, _SWAPZ})


def qbo(c: Circuit) -> Circuit:
    """Basis-state rewrite pass: one in-order traversal that interleaves
    state tracking with strength reduction of CX/CZ/SWAP/SWAPZ, Toffoli-style
    multi-controlled gates and controlled swaps (`_qbo_rule`; a controlled
    swap of two known pure targets becomes two controlled-u3).  A 1q gate
    that fixes its wire's known state is dropped; SWAPs go through
    `swap_rule` with the operands' ray states.  CX count never increases.

    A gate whose operands are all unknown is kept as it is, with no rule or
    tracker work: every rule needs a known operand, and such a gate leaves
    its operands unknown.  Open-control gates, SWAPZ, RESET and ANNOT are
    the exceptions and always take the full path.  Each distinct state is
    snapped to its ray, and each distinct SWAP operand pair given its
    rotations, once per call."""
    return _qbo(c)[0]


def _qbo(c: Circuit) -> tuple[Circuit, bool]:
    """`qbo(c)`, and whether a SWAP it met had an operand known off the
    rays, which only qpo's rule can use.  Without block resynthesis qpo
    rewrites nothing else in qbo's output: every other SWAP left there has
    two unknown operands, and every SWAPZ an unknown one and one rotated
    to |0>, which qpo's rule gives back as it is."""
    out: list[Instruction] = []
    tr = Tracker(c.n_qubits)
    states = tr.states
    ray, gates = _Memo(basis_of).__getitem__, _Memo(_swap_gates)
    off_ray = False
    todo = c.instructions[::-1]
    while todo:
        inst = todo.pop()
        k, qs, _, _, mask = inst
        if k in GATES_1Q:
            s = states[qs[0]]
            if s is not None:
                new = pure_transition(s, as_u3params(inst))
                if angles_equal(new[0], s[0]) and angles_equal(new[1], s[1]):
                    continue  # the gate fixes the tracked state: drop it
                states[qs[0]] = new
            out.append(inst)
            continue
        # A gate whose operands are all TOP is kept: no rule fires and it
        # leaves them TOP.  Open controls are rewritten whatever the states.
        if not (mask or k in _ACT_ON_TOP):
            for q in qs:
                if states[q] is not None:
                    break
            else:
                out.append(inst)
                continue
        if k is _SWAP or (k is _SWAPZ and is_zero(states[qs[1]])):
            # A validated SWAPZ is a SWAP.  The rule acts as the SWAP on its
            # tracked inputs, so the states are exchanged whatever it emits.
            # Only ray states count as known here; qpo uses the rest.
            pair = states[qs[0]], states[qs[1]]
            sa, sb = (s if ray(s) is not _TOP else None for s in pair)
            off_ray = off_ray or sa is not pair[0] or sb is not pair[1]
            out.extend(swap_rule(sa, sb, *qs, gates))
            tr.swap(*qs)
        elif k in _KEEP_ALWAYS or (
                rewrite := _qbo_rule(inst, states, ray)) is None:
            out.append(inst)
            tr.step(inst)
        else:
            todo.extend(reversed(rewrite))
    return c.replace(out), off_ray


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

    SWAPs, and SWAPZs whose designated wire is |0>, go through `swap_rule`
    with the operands' tracked pure states, which are then exchanged as in
    qbo.  With `resynth_blocks`, maximal two-qubit runs whose inputs are both
    known and that contain two or more CX are replaced by a state-preparation
    circuit with at most one CX.
    A gate whose operands are all unknown, other than RESET and ANNOT, is
    kept as it is before any of these tests: none of them can fire, and the
    gate leaves its operands unknown.
    """
    out: list[Instruction] = []
    tr = Tracker(c.n_qubits)
    states = tr.states
    gates = _Memo(_swap_gates)
    insts = c.instructions
    consumed: set[int] = set()

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
        k, qs = inst.kind, inst.qubits
        # A gate whose operands are all TOP is kept: no rule fires and it
        # leaves them TOP.
        for q in qs:
            if states[q] is not None:
                break
        else:
            if k is not _RESET and k is not _ANNOT:
                out.append(inst)
                continue

        if resynth_blocks and k in _BLOCK_CX_COST and not inst.open_mask:
            a, b = qs
            sa, sb = states[a], states[b]
            if sa is not None and sb is not None:
                members, cost = collect_block(i, a, b)
                if cost >= 2:
                    import numpy as np
                    init = np.kron(pure_state_vector(*sa), pure_state_vector(*sb))
                    target = np.asarray(simulate(
                        c.replace([insts[j] for j in members]), init,
                        wires=(a, b)))
                    svd = u, s, vh = np.linalg.svd(target.reshape(2, 2))
                    prep = prepare_two_qubit_state(target, sa, sb, svd=svd)
                    for p in prep.instructions:
                        out.append(_remap(p, (a, b)))
                    if s[1] <= 1e-7:  # product output: states stay known
                        states[a] = vector_to_pure(u[:, 0])
                        states[b] = vector_to_pure(vh[0, :])
                    else:
                        tr.set_top((a, b))
                    consumed.update(members)
                    continue

        if k is _SWAP or (k is _SWAPZ and is_zero(states[qs[1]])):
            # A validated SWAPZ is a SWAP; the states are exchanged as in qbo.
            out.extend(swap_rule(states[qs[0]], states[qs[1]], *qs, gates))
            tr.swap(*qs)
        else:
            out.append(inst)
            tr.step(inst)

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
        adj: list[set[int]] = [set() for _ in range(n_physical)]
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError("self-loop in coupling map")
            if not (0 <= a < n_physical and 0 <= b < n_physical):
                raise ValueError("coupling edge out of range")
            adj[a].add(b)
            adj[b].add(a)
        # Per node: its neighbours as a set (adjacency tests) and sorted (the
        # deterministic walk order of the searches below).
        self._nbrs = [frozenset(v) for v in adj]
        self._adj = [tuple(sorted(v)) for v in adj]
        # toward[b][x]: x's neighbours one step closer to b, sorted; filled
        # on first use by shortest_path.
        self._toward: list[list[tuple[int, ...]] | None] = [None] * n_physical
        if -1 in self.distances_from(0):
            raise ValueError("coupling map is not connected")

    def adjacent(self, a: int, b: int) -> bool:
        return b in self._nbrs[a]

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
        toward = self._toward[b]
        if toward is None:
            dist = self.distances_from(b)
            toward = self._toward[b] = [
                tuple(y for y in self._adj[x] if dist[y] == dist[x] - 1)
                for x in range(self.n_physical)]
        path = [a]
        cur = a
        while cur != b:
            options = toward[cur]
            cur = options[0] if len(options) == 1 else rng.choice(options)
            path.append(cur)
        return path

    @staticmethod
    def from_dict(d) -> "CouplingMap":
        try:
            n, edges = d["n"], [(a, b) for a, b in d["edges"]]
            if {type(x) for e in [(n,), *edges] for x in e} != {int}:
                raise TypeError("node ids must be integers")
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError('coupling map must be {"n": N, "edges": '
                             f'[[a, b], ...]}} ({e!r})') from None
        return CouplingMap(n, edges)

    @staticmethod
    def from_json_file(path: str) -> "CouplingMap":
        import json  # its only use: importing rpoc loads no json
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
    the routed circuit and the final logical->physical assignment.

    A two-qubit gate's wires are tested with `CouplingMap.adjacent`, one
    lookup in a per-node neighbour set, and each remapped operand tuple is
    built directly from the current assignment."""
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
    adjacent = cmap.adjacent
    new = tuple.__new__  # synth._i, inlined: one call per instruction
    for inst in c.instructions:
        kind, qs, params, clbits, mask = inst
        if len(qs) == 1:
            out.append(new(Instruction, (kind, (l2p[qs[0]],), params, clbits, mask)))
            continue
        if kind is _BARRIER:
            out.append(new(Instruction, (kind, tuple([l2p[q] for q in qs]),
                                         params, clbits, mask)))
            continue
        if len(qs) != 2:
            raise ValueError("route expects an unrolled circuit (1q/2q gates)")
        a, b = qs
        if not adjacent(l2p[a], l2p[b]):
            # Move a's wire along a shortest path, next to b's.
            path = cmap.shortest_path(l2p[a], l2p[b], rng)
            for x, y in zip(path, path[1:-1]):
                out.append(new(Instruction, (_SWAP, (x, y), (), (), ())))
                lx, ly = p2l[x], p2l[y]
                p2l[x], p2l[y] = ly, lx
                if lx >= 0:
                    l2p[lx] = y
                if ly >= 0:
                    l2p[ly] = x
        out.append(new(Instruction, (kind, (l2p[a], l2p[b]), params, clbits, mask)))

    return Circuit(cmap.n_physical, c.n_clbits).replace(out), list(l2p)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

class PipelineOptions(NamedTuple):
    coupling: CouplingMap | None = None
    seed: int = 0
    enable_qbo: bool = True
    enable_qpo: bool = True
    enable_block_resynth: bool = False
    random_layout: bool = False
    basis = DEFAULT_BASIS  # the target gates; a class constant, not an option


def pipeline(c: Circuit, opts: PipelineOptions | None = None) -> Circuit:
    """Full optimization pipeline.

    Stage order: basis-state pass; unroll keeping SWAP/SWAPZ; layout+routing
    (when a coupling map is given); basis-state pass again (for the routed
    SWAPs); 1q-run merging and the pure-state pass; then the cleanup,
    `_merge_runs(cur, cancel=True)`: one pass that expands the SWAP/SWAPZ
    left, merges 1q runs, cancels CX pairs and merges the runs a cancelled
    pair joins.  It runs again only after a joined run fused to the
    identity, which can make two CX adjacent; each pass after the first
    removes gates, so the loop ends.  The second basis-state pass is not
    unrolled: on unrolled input it emits only basis kinds, SWAP/SWAPZ, X
    and Z, and the merges fuse a named 1q gate to the u-gate unroll would.

    Stages that cannot change the circuit are skipped:
    - without qpo, the pre-qpo merge;
    - unless qpo re-synthesizes blocks, qpo and the pre-qpo merge when qpo
      has nothing to rewrite: the second basis-state pass met no SWAP
      operand known off the rays (`_qbo`), or, without that pass, no SWAP
      or SWAPZ is left.  The cleanup gives the same output on merged and
      unmerged input.
    The cleanup cannot change a tracked state, so qbo (at most twice) and
    qpo (once) are not re-run.  Deterministic for fixed (circuit, options)."""
    opts = opts or PipelineOptions()
    # SWAP/SWAPZ stay compound until after the pure-state pass, which is the
    # only consumer that can strength-reduce them; the cleanup expands the
    # survivors.
    cur = c
    layout: list[int] | None = None

    if opts.enable_qbo:
        cur = _qbo(cur)[0]
    cur = unroll(cur, opts.basis | {_K.SWAP, _K.SWAPZ})
    if opts.coupling is not None:
        cur, layout = route(cur, opts.coupling, opts.seed, opts.random_layout)
    if opts.enable_qbo:
        cur, off_ray = _qbo(cur)
    if opts.enable_qpo and (opts.enable_block_resynth or (
            off_ray if opts.enable_qbo else {_SWAP, _SWAPZ} & {
                inst.kind for inst in cur.instructions})):
        cur = qpo(merge_1q_runs(cur), resynth_blocks=opts.enable_block_resynth)

    more = True
    while more:
        cur, more = _merge_runs(cur, cancel=True)

    cur.layout = layout
    return cur
