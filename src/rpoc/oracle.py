"""Dense statevector simulation and functional-equivalence checking.

This is the ground truth every rewrite is judged against.  Gates are applied
natively (multi-qubit kinds are not routed through their decompositions), so
decomposition identities and rewrite rules get an independent check.

Only wires that some non-barrier instruction touches are simulated: an idle
wire stays |0> from start to end, so it factors out of every fidelity and
outcome distribution.  Gate kernels update the state in place through
reshaped views, one length-2 axis per wire the gate acts on.  Within one
simulate() call the view pair of each multi-qubit gate key (kind family,
axes, open-control mask) and the entries of each 1q gate are built once and
reused; the views alias the state buffer, so it is updated in place and
replaced only when it grows.

The state grows.  A wire starts as its own 2-vector, into which its 1q
gates are multiplied as one 2x2.  When a multi-qubit gate, ANNOT or RESET
first touches the wire, the wire joins the stored state as its last axis (an
outer product); wires that see only 1q gates and MEASURE join at the end,
and the axes are then put in `wires` order.  With an initial state every
wire has joined from the start.

A joined wire owes its 1q gates while they can still fold: a diagonal gate
on a wire that owes nothing is applied at once, a non-diagonal one starts a
product that later 1q gates multiply into, and the product is applied when
another gate needs the wire.  A closed CX whose two wires both owe
non-diagonal gates opens a two-wire block instead: later CX on the same pair
and the 1q gates between them fold into one 4x4 matrix, and the gates after
its last CX stay owed.  A gate that touches one of its wires closes it, and
the block is applied as one 4x4 kernel.

CX, SWAP and SWAPZ run lazily, in a CX frame.  Axis a holds the parity of
the stored index bits rows[a], so these gates only edit `rows`, an
invertible matrix over GF(2).  A diagonal 1q gate on a wire whose row
covers several stored bits scales the amplitudes where that row has odd
parity.  A 1q gate, 4x4 kernel, ANNOT or RESET on wires that are each
exactly one stored axis, which no other row uses, acts on those axes.
Anything else (another 1q gate, a multi-qubit gate other than a
closed-control CX, the end of the circuit) first brings the stored state up
to date in place, by one gather through the inverse matrix.  MEASURE only
records its wire.

An equivalence check simulates its source on the source's touched wires,
embeds that state into the wires it compares on, and keeps it for the next
check of a source with the same widths and instructions.  WidthError, raised
by simulate(), is the one too-wide signal; any other ValueError is a failure.

Conventions: qubit 0 is the high-order bit of the amplitude index; measured
circuits yield an exact outcome distribution keyed by classical-bit strings
(character i of the key is clbit i).
"""
from __future__ import annotations

import cmath
import math
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import (Circuit, _CX, _CZ, _CU3, _SWAP,
                      _SWAPZ, _CCX, _MCX, _CSWAP, _RESET, _ANNOT, _MEASURE, _BARRIER)
from .synth import (_GATE_1Q_ENTRIES, _mul2, _u3_angles, _u3_entries,
                    pure_state_vector)

MAX_QUBITS = 16
DEFAULT_TOL = 1e-9
# The 1q kernel applies its matrix with one batched matmul over the
# (prefix, target bit, suffix) view when the state holds at most
# _MATMUL_MAX_STATE amplitudes, or when the suffix blocks hold at least
# _MATMUL_MIN_BLOCK; on short blocks of a larger state (high target wires)
# matmul degrades, so the two halves are updated elementwise instead.  Timed
# on one BLAS thread: from 11 wires on, 16-amplitude blocks run 1.1-2.3x
# faster elementwise, and 32-amplitude blocks about even.
_MATMUL_MAX_STATE = 256
_MATMUL_MIN_BLOCK = 32
# simulate() caches the odd-parity indices of each row it scales (4 bytes per
# amplitude); it empties the cache once the rows held cover more amplitudes
# than this (8 MB).
_ODD_CACHE_AMPS = 1 << 21
# _apply_2q multiplies at most this many rows of 4 amplitudes per BLAS call.
_KERNEL_2Q_ROWS = 1 << 12
# Row permutations of a 4x4 matrix (index: high bit, low bit) that apply a
# CX after it: control on the low bit (index False) or on the high bit; and
# the permutation that exchanges the two bits.
_CX_ROWS = (np.array([0, 3, 2, 1]), np.array([0, 1, 3, 2]))
_SWAP_BITS = np.array([0, 2, 1, 3])
_I2 = (1, 0, 0, 1)


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


class WidthError(ValueError):
    """More than MAX_QUBITS wires to simulate (the one too-wide signal)."""


class EquivalenceReport(NamedTuple):
    equivalent: bool
    fidelity: float
    phase: float
    detail: str = ""


def touched_wires(c: Circuit) -> list[int]:
    """Sorted wires that some non-barrier instruction acts on."""
    tuples = {inst.qubits for inst in c.instructions
              if inst.kind is not _BARRIER}
    return sorted({q for qs in tuples for q in qs})


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


def _mix(s0: np.ndarray, s1: np.ndarray, e: tuple) -> None:
    """(s0, s1) <- u @ (s0, s1), in place; e = (u00, u01, u10, u11) as
    Python numbers."""
    u00, u01, u10, u11 = e
    if u01 == 0 and u10 == 0:
        if u00 != 1:
            s0 *= u00
        if u11 != 1:
            s1 *= u11
        return
    t = u00 * s0
    t += u01 * s1
    s1 *= u11
    s1 += u10 * s0
    s0[...] = t


def _apply_1q(state: np.ndarray, e: tuple, q: int) -> None:
    """The 1q gate with entries e = (u00, u01, u10, u11) on axis q, in
    place."""
    v = state.reshape(1 << q, 2, -1)
    # On a state larger than _MATMUL_MAX_STATE, q = 0 is excluded: an
    # unbatched matmul is one BLAS call, which may spread a large state over
    # threads and then runs ~50x slower.  A diagonal gate (u1, z, s, t)
    # skips matmul: _mix scales the two halves.
    if ((e[1] != 0 or e[2] != 0)
            and (state.size <= _MATMUL_MAX_STATE
                 or (q and v.shape[2] >= _MATMUL_MIN_BLOCK))):
        v[...] = np.array(e).reshape(2, 2) @ v
    else:
        _mix(v[:, 0], v[:, 1], e)


def _kron2(x: tuple, y: tuple) -> np.ndarray:
    """x (x) y as a 4x4 array, for 2x2 entries x (high bit) and y."""
    a, b, c, d = x
    e, f, g, h = y
    return np.array([[a * e, a * f, b * e, b * f], [a * g, a * h, b * g, b * h],
                     [c * e, c * f, d * e, d * f], [c * g, c * h, d * g, d * h]],
                    dtype=complex)


def _apply_2q(state: np.ndarray, u: np.ndarray, i: int, j: int) -> None:
    """The 4x4 gate u on axes i and j (axis i is the high bit of u's
    index), in place.  The amplitudes are copied out as rows of 4, one per
    value of the other axes, multiplied by u.T and copied back; past
    _KERNEL_2Q_ROWS rows the product is batched, so no one BLAS call is
    large enough to spread over threads."""
    if i > j:
        i, j = j, i
        u = u[_SWAP_BITS][:, _SWAP_BITS]
    n = state.size.bit_length() - 1
    p, q, r = 1 << i, 1 << (j - i - 1), 1 << (n - 1 - j)
    v = state.reshape(p, 2, q, 2, r)
    x = v.transpose(0, 2, 4, 1, 3).reshape(-1, 4)
    if len(x) > _KERNEL_2Q_ROWS:
        x = x.reshape(-1, _KERNEL_2Q_ROWS, 4)
    v[...] = np.matmul(x, u.T).reshape(p, q, r, 2, 2).transpose(0, 3, 1, 4, 2)


def _pair_views(state: np.ndarray, n: int, swap: bool, qs: tuple[int, ...],
                open_mask: tuple[bool, ...]) -> tuple[np.ndarray, np.ndarray]:
    """In-place views of the two fixed-bit subspaces a gate on axes `qs`
    mixes.  For a controlled gate (CX/CCX/MCX, CZ, CU3; `open_mask` as on the
    instruction) they are target bit 0 and 1 with every control active; for
    a SWAP or CSWAP (`swap`) they are its two operands holding 01 and 10
    with the CSWAP control set."""
    if swap:
        *cs, a, b = qs
        fixed = [(c, 1) for c in cs]
        first, second = fixed + [(a, 0), (b, 1)], fixed + [(a, 1), (b, 0)]
    else:
        *cs, t = qs
        fixed = [(c, 0 if open_ else 1)
                 for c, open_ in zip(cs, open_mask or (False,) * len(cs))]
        first, second = fixed + [(t, 0)], fixed + [(t, 1)]
    return _sub(state, n, first), _sub(state, n, second)


def _exchange(a: np.ndarray, b: np.ndarray) -> None:
    """Swap the amplitudes of two disjoint views, in place."""
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def _gather_index(cols: list[int], n: int) -> np.ndarray:
    """g[x] = the XOR of cols[a] over the axes a set in index x (axis 0 is
    the high bit): the stored index of basis state x under a CX frame whose
    inverse matrix has columns `cols`."""
    g = np.empty(1 << n, dtype=np.intp)
    g[0] = 0
    k = 1
    for c in reversed(cols):
        np.bitwise_xor(g[:k], c, out=g[k:2 * k])
        k *= 2
    return g


def reduced_qubit_state(sv: np.ndarray, q: int) -> np.ndarray:
    """2x2 density matrix of qubit q: partial trace over all other qubits."""
    n = int(round(np.log2(sv.size)))
    if not 0 <= q < n:
        raise IndexError(f"qubit {q} out of range for {n}-qubit state")
    v = sv.reshape(1 << q, 2, -1)
    return np.einsum("aib,ajb->ij", v, v.conj())


def trace_distance_to_pure(rho: np.ndarray, vec: np.ndarray) -> float:
    """Trace distance between the one-qubit density matrix rho and the pure
    state vec = a|0> + b|1>.  Their difference D is a Hermitian 2x2 with
    eigenvalues mid +- rad, mid = tr(D)/2, so half their absolute sum is
    max(|mid|, rad)."""
    (r00, r01), (_, r11) = rho.tolist()
    a, b = np.asarray(vec).tolist()
    d00 = r00.real - abs(a) ** 2
    d11 = r11.real - abs(b) ** 2
    d01 = r01 - a * b.conjugate()
    mid, half = (d00 + d11) / 2, (d00 - d11) / 2
    return max(abs(mid), math.sqrt(half * half + abs(d01) ** 2))


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
    a, b = complex(top[0]), complex(top[1])
    _apply_1q(state, (a.conjugate(), b.conjugate(), -b, a), q)
    state /= np.linalg.norm(state)


def simulate(c: Circuit, initial_state: np.ndarray | None = None, *,
             wires: Sequence[int] | None = None
             ) -> np.ndarray | dict[str, float]:
    """Exact evolution from |0...0> (or `initial_state`).

    Returns the final statevector, or the exact outcome distribution over
    classical bits when the circuit ends in measurements.  MEASURE must be
    terminal.  On the qubit's reduced state, an ANNOT must hold
    (AnnotationError) and a RESET needs it unentangled (ResetError).

    Only the touched wires are simulated (every wire when `initial_state` is
    given, since idle wires are then no longer |0>); the returned vector
    spans all `c.n_qubits` wires.  With `wires`, exactly those wires are
    simulated and axis i of the returned vector is wire `wires[i]`; every
    touched wire must be listed, the rest stay |0>, and `initial_state` is a
    state over `wires`.  More than MAX_QUBITS wires to simulate, or a full
    statevector over more than MAX_QUBITS wires, raise WidthError, the
    oracle's one too-wide signal.  `initial_state` is copied, never modified.
    """
    n = c.n_qubits
    full = wires is None
    if full:
        wires = range(n) if initial_state is not None else touched_wires(c)
    width = len(wires)
    if width > MAX_QUBITS:
        raise WidthError(f"simulation limited to {MAX_QUBITS} qubits, got {width}")
    axis = [-1] * n
    for i, w in enumerate(wires):
        if not 0 <= w < n or axis[w] >= 0:
            raise ValueError(f"wires must be distinct wires of the circuit, got {list(wires)}")
        axis[w] = i
    # where[q] is the stored axis of wire q once it has joined the stored
    # state (stored axes are in joining order); block[q] the two-wire block
    # it is in; pend[q] the entries of the 1q gates it owes: all of them
    # before it joins, those after the last CX of its block, or a run that
    # started with a non-diagonal gate.  pend[q] is None exactly when wire q
    # has joined, is in no block and owes nothing; bit q of `owed` is set
    # exactly when it is not (see the module docstring).
    block: list = [None] * n
    if initial_state is not None:
        state = np.array(initial_state, dtype=complex).reshape(-1)
        if state.size != 2 ** width:
            raise ValueError("initial state has the wrong dimension")
        where = axis[:]
        pend: list = [None] * n
        owed = 0
    else:
        state = np.ones(1, dtype=complex)
        where = [-1] * n
        pend = [None if a < 0 else _I2 for a in axis]
        owed = sum([1 << w for w in wires])
    m = state.size.bit_length() - 1  # stored axes

    measured: dict[int, int] = {}  # qubit -> clbit
    used_clbits: set[int] = set()
    # Per-call caches (see the module docstring): the views alias `state`,
    # so between joins it is only ever updated in place.  cx_of maps the
    # wires of a closed CX to its axes and their `owed` bits.
    axes_of: dict[tuple, tuple[int, ...]] = {}
    cx_of: dict[tuple, tuple] = {}
    views: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    entries: dict[tuple, tuple] = {}
    odd: dict[int, np.ndarray] = {}   # row -> indices of odd parity
    bits: dict[int, np.ndarray] = {}  # stored bit -> is it set, per index
    # The CX frame (see the module docstring): rows[a] is the row of matrix
    # R, cols[a] the column of its inverse, as bit masks of the stored index;
    # R is the identity when `framed` is false.
    ident = [1 << (m - 1 - a) for a in range(m)]
    rows, cols = ident[:], ident[:]
    framed = False

    def enter(pos: int, qubits: tuple[int, ...]) -> tuple[int, ...]:
        """Check that the wires of instruction pos are simulated; for a
        multi-qubit gate, join them and return their stored axes."""
        if min([axis[q] for q in qubits]) < 0:
            raise ValueError(f"instruction {pos} touches a wire that is not simulated")
        if len(qubits) == 1:
            return ()
        for q in qubits:
            if where[q] < 0:
                join(q)
        return tuple([where[q] for q in qubits])

    def join(q: int) -> None:
        """Append wire q, in the state its 1q gates left it, as the last
        stored axis."""
        nonlocal state, m, owed
        e = pend[q]
        pend[q] = None
        owed &= ~(1 << q)
        state = np.multiply.outer(state, np.array((e[0], e[2]))).reshape(-1)
        for x in (rows, cols, ident):
            x[:] = [r << 1 for r in x]
            x.append(1)
        views.clear()
        odd.clear()
        bits.clear()
        where[q] = m
        m += 1

    def pair(swap: bool, qs: tuple[int, ...], open_mask=()):
        key = (swap, qs, open_mask)
        ab = views.get(key)
        if ab is None:
            ab = views[key] = _pair_views(state, m, swap, qs, open_mask)
        return ab

    def sync() -> None:
        """Bring the stored state up to date with the frame; R becomes I."""
        nonlocal framed
        if framed and rows != ident:
            state[...] = state[_gather_index(cols, m)]
            rows[:] = ident
            cols[:] = ident
        framed = False

    def own_axis(a: int) -> int:
        """The stored axis that axis a is exactly, when no other row uses
        it; otherwise sync() and a."""
        r = rows[a]
        if not framed or (r & (r - 1) == 0
                         and sum([x & r != 0 for x in rows]) == 1):
            return m - r.bit_length()
        sync()
        return a

    def odd_parity(r: int) -> np.ndarray:
        idx = odd.get(r)
        if idx is None:
            if len(odd) << m > _ODD_CACHE_AMPS:
                odd.clear()
            p = None
            rest = r
            while rest:
                b = rest & -rest
                rest ^= b
                x = bits.get(b)
                if x is None:
                    x = bits[b] = np.zeros(1 << m, dtype=bool)
                    x.reshape(-1, 2, b)[:, 1] = True
                p = x if p is None else p ^ x
            idx = odd[r] = np.flatnonzero(p)
        return idx

    def apply_1q(e: tuple, a: int) -> None:
        """The 1q gate with entries e on axis a, through the frame."""
        nonlocal state
        r = rows[a]
        if e[1] != 0 or e[2] != 0:
            _apply_1q(state, e, own_axis(a))
        elif not r & (r - 1):  # diagonal on one stored bit
            _apply_1q(state, e, m - r.bit_length())
        else:  # diagonal on the parity of several stored bits
            if e[0] != 1:
                state *= e[0]
            if e[3] != e[0]:
                state[odd_parity(r)] *= e[3] / e[0]

    def cx(t: int, u: int) -> None:
        nonlocal framed
        rows[u] ^= rows[t]
        cols[t] ^= cols[u]
        framed = True

    def pay(q: int, a: int) -> None:
        """Apply what the joined wire q (stored axis a) owes outside any
        block."""
        nonlocal owed
        e = pend[q]
        pend[q] = None
        owed &= ~(1 << q)
        if e is not _I2:
            apply_1q(e, a)

    def flush(b: list) -> None:
        """Apply block b as one 4x4 kernel; the 1q gates after its last CX
        stay owed."""
        qa, qb, u, (a, z) = b
        for q, s in ((qa, a), (qb, z)):
            block[q] = None
            if pend[q] is _I2:
                pay(q, s)
        sa, sz = own_axis(a), own_axis(z)
        _apply_2q(state, u, a if not framed else sa, sz)

    def settle(q: int) -> None:
        """Apply everything the joined wire q owes."""
        if owed >> q & 1:
            b = block[q]
            if b is not None:
                flush(b)
            if pend[q] is not None:
                pay(q, where[q])

    for pos, inst in enumerate(c.instructions):
        k, qubits, params, _, open_mask = inst
        if k is _BARRIER:
            continue
        if measured:
            for q in qubits:
                if q in measured:
                    raise ValueError(
                        f"instruction {pos} touches qubit {q} after measurement "
                        "(mid-circuit measurement is not supported)")
        if k is _CX and not open_mask:
            cq = cx_of.get(qubits)
            if cq is None:
                t, u = enter(pos, qubits)
                cq = cx_of[qubits] = (t, u, (1 << qubits[0]) | (1 << qubits[1]))
            t, u, mask = cq
            if owed & mask:
                qc, qt = qubits
                b = block[qc]
                if b is not None and b is block[qt]:
                    # Fold the owed 1q gates and this CX into the block.
                    v = b[2]
                    ea, eb = pend[b[0]], pend[b[1]]
                    if ea is not _I2 or eb is not _I2:
                        v = _kron2(ea, eb) @ v
                        pend[b[0]] = pend[b[1]] = _I2
                    b[2] = v[_CX_ROWS[qc == b[0]]]
                    continue
                for b in (b, block[qt]):
                    if b is not None:
                        flush(b)
                ec, et = pend[qc], pend[qt]
                if (ec is not None and et is not None and (ec[1] != 0 or ec[2] != 0)
                        and (et[1] != 0 or et[2] != 0)):
                    # [its wires, its 4x4 so far, their stored axes]
                    block[qc] = block[qt] = [
                        qc, qt, _kron2(ec, et)[_CX_ROWS[True]], (t, u)]
                    pend[qc] = pend[qt] = _I2
                    continue
                if ec is not None:
                    pay(qc, t)
                if et is not None:
                    pay(qt, u)
            cx(t, u)
            continue
        qs = axes_of.get(qubits)
        if qs is None:
            qs = axes_of[qubits] = enter(pos, qubits)
        if not qs and k is not _MEASURE and k is not _ANNOT and k is not _RESET:
            # A 1q gate.  u1, u2 and u3 differ in their number of params,
            # and the named gates have none.
            key = params or k
            e = entries.get(key)
            if e is None:
                e = entries[key] = (_GATE_1Q_ENTRIES.get(k)
                                    or _u3_entries(*_u3_angles(inst)))
            q = qubits[0]
            p = pend[q]
            if p is not None:
                pend[q] = _mul2(e, p)
            elif e[1] != 0 or e[2] != 0:
                pend[q] = e
                owed |= 1 << q
            else:  # diagonal, on a wire that owes nothing: apply it now
                apply_1q(e, where[q])
            continue
        if k is _MEASURE:
            b = inst.clbits[0]
            if b in used_clbits:
                raise ValueError(f"classical bit {b} measured twice")
            used_clbits.add(b)
            measured[qubits[0]] = b
            continue
        if k is _ANNOT or k is _RESET:
            q = qubits[0]
            if where[q] < 0:
                join(q)
            settle(q)
            a = own_axis(where[q])
            if k is _RESET:
                _do_reset(state, a, q, pos)
                continue
            td = trace_distance_to_pure(reduced_qubit_state(state, a),
                                        pure_state_vector(*params))
            if td > 1e-8:
                raise AnnotationError(q, pos, td)
            continue
        for q in qubits:
            settle(q)
        if k is _SWAP or k is _SWAPZ:
            a, b = qs
            if k is _SWAP:
                rows[a], rows[b] = rows[b], rows[a]
                cols[a], cols[b] = cols[b], cols[a]
                framed = True
            else:  # swapz a, z = cx(a, z); cx(z, a)
                cx(a, b)
                cx(b, a)
            continue
        sync()
        if k is _CX or k is _CCX or k is _MCX:
            _exchange(*pair(False, qs, open_mask))
        elif k is _CZ:
            both = pair(False, qs)[1]   # control and target set
            both *= -1.0
        elif k is _CSWAP:
            _exchange(*pair(True, qs))
        elif k is _CU3:
            _mix(*pair(False, qs), _u3_entries(*params))
        else:  # pragma: no cover - all kinds handled above
            raise ValueError(f"cannot simulate {k.value}")
    for b in block:
        if b is not None and block[b[0]] is b:
            flush(b)
    for q, e in enumerate(pend):
        if e is not None and where[q] >= 0:
            pay(q, where[q])
    sync()
    # The wires that never joined join last, then the axes take `wires`' order.
    for w in wires:
        if where[w] < 0:
            join(w)
    order = [where[w] for w in wires]
    if order != sorted(order):
        state = state.reshape([2] * m).transpose(order).reshape(-1)

    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"statevector norm drifted to {norm}")

    if measured:
        return _distribution(state, {axis[q]: b for q, b in measured.items()},
                             c.n_clbits, width)
    if not full or width == n:
        return state
    if n > MAX_QUBITS:
        raise WidthError(f"simulation limited to {MAX_QUBITS} qubits, got {n}")
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
    outcomes = np.flatnonzero(probs > 1e-15)
    # An outcome's kept bits, in axis order, are format(flat, fmt); key
    # character c is character src[c] of "0" + those bits (0: no kept axis
    # is measured into clbit c).
    fmt = f"0{len(keep)}b"
    src = [0] * n_clbits
    for j, q in enumerate(keep, 1):
        src[measured[q]] = j
    pick = itemgetter(*src)
    keys = ["".join(pick("0" + format(flat, fmt)))
            for flat in outcomes.tolist()]
    return dict(zip(keys, probs[outcomes].tolist()))


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


# The last check's source: n_qubits, n_clbits, a copy of its instruction
# list, its touched wires and its simulation on them (only read, never
# returned).  One tuple, so a check in another thread reads a whole entry.
# List equality passes identical elements at pointer speed.
_last_source: tuple = (None,) * 5


def equivalent_up_to_global_phase(a: Circuit, b: Circuit,
                                  tol: float = DEFAULT_TOL,
                                  perm: list[int] | None = None
                                  ) -> EquivalenceReport:
    """Compare the action of two circuits from the all-zero start.

    Unmeasured circuits are compared by statevector fidelity; measured ones
    by exact outcome distributions.  `perm` maps a's wires onto b's wires
    (identity-padded widths), as produced by routing.  b is simulated on
    W = touched(b) | perm(touched(a)) only (wires idle in both circuits are
    |0> throughout and factor out), so the widths of a and b do not matter:
    only a W or touched(a) over MAX_QUBITS wires does (WidthError).  a is
    simulated on touched(a) and embedded into W (a measured a compares by its
    distribution, which no wire map changes); the next check of a source
    with a's widths and instructions reuses that simulation.
    """
    global _last_source
    n, n_c, insts, ta, ra = _last_source
    hit = n == a.n_qubits and n_c == a.n_clbits and insts == a.instructions
    if not hit:
        ta = touched_wires(a)
    # pos: where a's touched wires land in W (None: only distributions compare).
    if perm is None and a.n_qubits != b.n_qubits:
        wb, pos = touched_wires(b), None
    else:
        perm = range(a.n_qubits) if perm is None else perm
        if (len(perm) != a.n_qubits or len(set(perm)) != len(perm)
                or not all(0 <= w < b.n_qubits for w in perm)):
            raise ValueError("perm must map a's wires 1-1 onto b's wires")
        wb = sorted(set(touched_wires(b)).union(perm[q] for q in ta))
        pos = [wb.index(perm[q]) for q in ta]
    if not hit:
        ra = simulate(a, wires=ta)
        _last_source = (a.n_qubits, a.n_clbits, list(a.instructions), ta, ra)
    rb = simulate(b, wires=wb)
    if isinstance(ra, dict) != isinstance(rb, dict):
        raise ValueError("circuits differ in terminal measurement structure")
    if isinstance(ra, dict):
        tv = total_variation_distance(ra, rb)
        return EquivalenceReport(tv <= tol, 1.0 - tv, 0.0,
                                 f"total variation distance {tv:.3e}")
    if pos is None:
        raise ValueError("width mismatch (no wire permutation given)")
    va = (ra if pos == list(range(len(wb)))
          else expand_statevector(ra, len(wb), pos))
    ip = np.vdot(va, rb)
    fid = float(abs(ip) ** 2)
    return EquivalenceReport(fid >= 1.0 - tol, fid, float(cmath.phase(ip)),
                             f"fidelity {fid:.12f}")
