"""Dense statevector simulation and functional-equivalence checking.

This is the ground truth every rewrite is judged against.  Gates are applied
natively (multi-qubit kinds are not routed through their decompositions), so
decomposition identities and table rewrites get an independent check.

Only wires that some non-barrier instruction touches are simulated: an idle
wire stays |0> from start to end, so it factors out of every fidelity and
outcome distribution.  Gate kernels update the state in place through
reshaped views, one length-2 axis per wire the gate acts on.

Conventions: qubit 0 is the high-order bit of the amplitude index; measured
circuits yield an exact outcome distribution keyed by classical-bit strings
(character i of the key is clbit i).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, GateKind
from .synth import matrix_1q, pure_state_vector

MAX_QUBITS = 16
DEFAULT_TOL = 1e-9
# The 1q kernel applies its matrix with one batched matmul over the
# (prefix, target bit, suffix) view when the suffix blocks hold at least this
# many amplitudes; on shorter blocks (high target wires) matmul degrades, so
# the two halves are updated elementwise instead.
_MATMUL_MIN_BLOCK = 16


class AnnotationError(ValueError):
    """A state annotation did not hold under simulation."""

    def __init__(self, qubit: int, position: int, trace_distance: float):
        super().__init__(
            f"annotation on qubit {qubit} at instruction {position} does not hold "
            f"(trace distance {trace_distance:.3e})")
        self.qubit = qubit
        self.position = position
        self.trace_distance = trace_distance


class ResetError(ValueError):
    """RESET applied to a qubit that is entangled or mixed."""


@dataclass
class EquivalenceReport:
    equivalent: bool
    fidelity: float
    phase: float
    detail: str = ""


def touched_wires(c: Circuit) -> list[int]:
    """Sorted wires that some non-barrier instruction acts on."""
    return sorted({q for inst in c.instructions
                   if inst.kind is not GateKind.BARRIER for q in inst.qubits})


def _sub(state: np.ndarray, n: int, fixed) -> np.ndarray:
    """In-place view of the amplitudes whose axis a holds bit b for every
    (a, b) in `fixed`; the remaining axes are kept as blocks in order."""
    shape: list[int] = []
    index: list = []
    prev = -1
    for a, b in sorted(fixed):
        shape += (1 << (a - prev - 1), 2)
        index += (slice(None), b)
        prev = a
    shape.append(1 << (n - 1 - prev))
    return state.reshape(shape)[tuple(index)]


def _mix(s0: np.ndarray, s1: np.ndarray, m: np.ndarray) -> None:
    """(s0, s1) <- m @ (s0, s1), in place."""
    if m[0, 1] == 0 and m[1, 0] == 0:
        if m[0, 0] != 1:
            s0 *= m[0, 0]
        if m[1, 1] != 1:
            s1 *= m[1, 1]
        return
    t = m[0, 0] * s0
    t += m[0, 1] * s1
    s1 *= m[1, 1]
    s1 += m[1, 0] * s0
    s0[...] = t


def _apply_1q(state: np.ndarray, m: np.ndarray, q: int) -> None:
    v = state.reshape(1 << q, 2, -1)
    # q = 0 is excluded: an unbatched matmul is one BLAS call, which may
    # spread a large state over threads and then runs ~50x slower.
    if q and v.shape[2] >= _MATMUL_MIN_BLOCK:
        v[...] = m @ v
    else:
        _mix(v[:, 0], v[:, 1], m)


def _exchange(state: np.ndarray, n: int, first, second) -> None:
    """Swap the amplitudes of two disjoint fixed-bit subspaces, in place."""
    a = _sub(state, n, first)
    b = _sub(state, n, second)
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def _apply_controlled_x(state, controls, polarities, target, n) -> None:
    fixed = [(c, 0 if open_ else 1) for c, open_ in zip(controls, polarities)]
    _exchange(state, n, fixed + [(target, 0)], fixed + [(target, 1)])


def reduced_qubit_state(sv: np.ndarray, q: int) -> np.ndarray:
    """2x2 density matrix of qubit q: partial trace over all other qubits."""
    n = int(round(np.log2(sv.size)))
    if not 0 <= q < n:
        raise IndexError(f"qubit {q} out of range for {n}-qubit state")
    v = sv.reshape(1 << q, 2, -1)
    return np.einsum("aib,ajb->ij", v, v.conj())


def trace_distance_to_pure(rho: np.ndarray, vec: np.ndarray) -> float:
    proj = np.outer(vec, vec.conj())
    eig = np.linalg.eigvalsh(rho - proj)
    return 0.5 * float(np.sum(np.abs(eig)))


def _do_reset(state: np.ndarray, q: int, wire: int, position: int) -> None:
    rho = reduced_qubit_state(state, q)
    vals, vecs = np.linalg.eigh(rho)
    top = vecs[:, -1]
    td = trace_distance_to_pure(rho, top)
    if td > 1e-8:
        raise ResetError(
            f"reset on entangled/mixed qubit {wire} at instruction {position} "
            f"(trace distance to nearest pure state {td:.3e})")
    # Rotate the qubit's pure state onto |0>.
    m = np.array([[top[0].conjugate(), top[1].conjugate()],
                  [-top[1], top[0]]])
    _apply_1q(state, m, q)
    state /= np.linalg.norm(state)


def simulate(c: Circuit, initial_state: np.ndarray | None = None, *,
             wires: Sequence[int] | None = None
             ) -> np.ndarray | dict[str, float]:
    """Exact evolution from |0...0> (or `initial_state`).

    Returns the final statevector, or the exact outcome distribution over
    classical bits when the circuit ends in measurements.  MEASURE must be
    terminal; ANNOT instructions are checked as assertions; RESET requires
    the qubit to be unentangled at that point.

    Only the touched wires are simulated (every wire when `initial_state` is
    given, since idle wires are then no longer |0>); the returned vector
    spans all `c.n_qubits` wires.  With `wires`, exactly those wires are
    simulated and axis i of the returned vector is wire `wires[i]`; every
    touched wire must be listed, the rest stay |0>, and `initial_state` is a
    state over `wires`.  At most MAX_QUBITS wires are simulated, and a full
    statevector is returned for at most MAX_QUBITS wires.  `initial_state` is
    copied, never modified.
    """
    n = c.n_qubits
    full = wires is None
    if full:
        wires = range(n) if initial_state is not None else touched_wires(c)
    width = len(wires)
    if width > MAX_QUBITS:
        raise ValueError(f"simulation limited to {MAX_QUBITS} qubits, got {width}")
    axis = [-1] * n
    for i, w in enumerate(wires):
        if not 0 <= w < n or axis[w] >= 0:
            raise ValueError(f"wires must be distinct wires of the circuit, got {list(wires)}")
        axis[w] = i
    if initial_state is not None:
        state = np.array(initial_state, dtype=complex).reshape(-1)
        if state.size != 2 ** width:
            raise ValueError("initial state has the wrong dimension")
    else:
        state = np.zeros(2 ** width, dtype=complex)
        state[0] = 1.0

    measured: dict[int, int] = {}  # qubit -> clbit
    used_clbits: set[int] = set()

    for pos, inst in enumerate(c.instructions):
        k = inst.kind
        if k is GateKind.BARRIER:
            continue
        for q in inst.qubits:
            if q in measured:
                raise ValueError(
                    f"instruction {pos} touches qubit {q} after measurement "
                    "(mid-circuit measurement is not supported)")
        qs = [axis[q] for q in inst.qubits]
        if min(qs) < 0:
            raise ValueError(f"instruction {pos} touches a wire that is not simulated")
        if k is GateKind.MEASURE:
            b = inst.clbits[0]
            if b in used_clbits:
                raise ValueError(f"classical bit {b} measured twice")
            used_clbits.add(b)
            measured[inst.qubits[0]] = b
            continue
        if k is GateKind.ANNOT:
            rho = reduced_qubit_state(state, qs[0])
            td = trace_distance_to_pure(rho, pure_state_vector(*inst.params))
            if td > 1e-8:
                raise AnnotationError(inst.qubits[0], pos, td)
            continue
        if k is GateKind.RESET:
            _do_reset(state, qs[0], inst.qubits[0], pos)
            continue
        if inst.is_1q:
            _apply_1q(state, matrix_1q(k, inst.params), qs[0])
            continue
        if k is GateKind.CX or k is GateKind.CCX or k is GateKind.MCX:
            pol = inst.open_mask or (False,) * (len(qs) - 1)
            _apply_controlled_x(state, qs[:-1], pol, qs[-1], width)
        elif k is GateKind.CZ:
            both = _sub(state, width, [(qs[0], 1), (qs[1], 1)])
            both *= -1.0
        elif k is GateKind.SWAP:
            a, b = qs
            _exchange(state, width, [(a, 0), (b, 1)], [(a, 1), (b, 0)])
        elif k is GateKind.SWAPZ:
            a, z = qs
            _apply_controlled_x(state, (a,), (False,), z, width)
            _apply_controlled_x(state, (z,), (False,), a, width)
        elif k is GateKind.CU3:
            c_, t = qs
            _mix(_sub(state, width, [(c_, 1), (t, 0)]),
                 _sub(state, width, [(c_, 1), (t, 1)]),
                 matrix_1q(GateKind.U3, inst.params))
        elif k is GateKind.CSWAP:
            c_, a, b = qs
            _exchange(state, width, [(c_, 1), (a, 0), (b, 1)],
                      [(c_, 1), (a, 1), (b, 0)])
        else:  # pragma: no cover - all kinds handled above
            raise ValueError(f"cannot simulate {k.value}")

    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"statevector norm drifted to {norm}")

    if measured:
        return _distribution(state, {axis[q]: b for q, b in measured.items()},
                             c.n_clbits, width)
    if not full or width == n:
        return state
    if n > MAX_QUBITS:
        raise ValueError(f"simulation limited to {MAX_QUBITS} qubits, got {n}")
    return expand_statevector(state, n, list(wires))


def _distribution(state: np.ndarray, measured: dict[int, int], n_clbits: int,
                  n: int) -> dict[str, float]:
    """Outcome distribution; `measured` maps state axes to clbits."""
    probs = np.abs(state.reshape([2] * n)) ** 2
    keep = sorted(measured)
    drop = tuple(q for q in range(n) if q not in measured)
    if drop:
        probs = probs.sum(axis=drop)
    probs = probs.reshape(-1)
    dist: dict[str, float] = {}
    for flat in np.flatnonzero(probs > 1e-15):
        key = ["0"] * n_clbits
        for j, q in enumerate(keep):
            key[measured[q]] = str((flat >> (len(keep) - 1 - j)) & 1)
        dist["".join(key)] = float(probs[flat])
    return dist


def total_variation_distance(a: dict[str, float], b: dict[str, float]) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def expand_statevector(sv: np.ndarray, n_out: int, wire_map: list[int]) -> np.ndarray:
    """Embed an n-qubit state into n_out wires: input wire i lands on output
    wire wire_map[i]; unmapped wires are |0>."""
    n_in = int(round(np.log2(sv.size)))
    if len(wire_map) != n_in or len(set(wire_map)) != n_in:
        raise ValueError("wire_map must be a 1-1 map of the input wires")
    out = np.zeros([2] * n_out, dtype=complex)
    idx: list = [0] * n_out
    for w in wire_map:
        idx[w] = slice(None)
    order = np.argsort(wire_map)  # input axes ordered by destination wire
    out[tuple(idx)] = sv.reshape([2] * n_in).transpose(tuple(order))
    return out.reshape(-1)


def _compared_wires(a: Circuit, b: Circuit, perm):
    """The wires of a and of b that the equivalence check simulates, and the
    positions among b's simulated wires that a's land on (None when the
    widths differ and no perm is given: then only outcome distributions
    compare)."""
    if perm is None:
        if a.n_qubits != b.n_qubits:
            return touched_wires(a), touched_wires(b), None
        perm = range(a.n_qubits)
    if (len(perm) != a.n_qubits or len(set(perm)) != len(perm)
            or not all(0 <= w < b.n_qubits for w in perm)):
        raise ValueError("perm must map a's wires 1-1 onto b's wires")
    source = {w: q for q, w in enumerate(perm)}
    wb = sorted(set(touched_wires(b)).union(perm[q] for q in touched_wires(a)))
    pos = [i for i, w in enumerate(wb) if w in source]
    return [source[wb[i]] for i in pos], wb, pos


def simulated_width(a: Circuit, b: Circuit, perm: list[int] | None = None) -> int:
    """Wires `equivalent_up_to_global_phase(a, b, perm=perm)` simulates at
    once; it can check the pair when this is at most MAX_QUBITS."""
    wa, wb, _ = _compared_wires(a, b, perm)
    return max(len(wa), len(wb))


def equivalent_up_to_global_phase(a: Circuit, b: Circuit,
                                  tol: float = DEFAULT_TOL,
                                  perm: list[int] | None = None
                                  ) -> EquivalenceReport:
    """Compare the action of two circuits from the all-zero start.

    Unmeasured circuits are compared by statevector fidelity; measured ones
    by exact outcome distributions.  `perm` maps a's wires onto b's wires
    (identity-padded widths), as produced by routing.  Both states live on
    W = touched(b) | perm(touched(a)) only (wires idle in both circuits are
    |0> throughout and factor out), so the widths of a and b do not matter,
    only |W| <= MAX_QUBITS does.
    """
    wa, wb, pos = _compared_wires(a, b, perm)
    ra = simulate(a, wires=wa)
    rb = simulate(b, wires=wb)
    if isinstance(ra, dict) != isinstance(rb, dict):
        raise ValueError("circuits differ in terminal measurement structure")
    if isinstance(ra, dict):
        tv = total_variation_distance(ra, rb)
        return EquivalenceReport(tv <= tol, 1.0 - tv, 0.0,
                                 f"total variation distance {tv:.3e}")
    if pos is None:
        raise ValueError("width mismatch (no wire permutation given)")
    va = ra if len(pos) == len(wb) else expand_statevector(ra, len(wb), pos)
    ip = np.vdot(va, rb)
    fid = float(abs(ip) ** 2)
    return EquivalenceReport(fid >= 1.0 - tol, fid, float(cmath.phase(ip)),
                             f"fidelity {fid:.12f}")
