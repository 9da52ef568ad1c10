"""Single-qubit algebra and gate decomposition.

Covers ZYZ re-synthesis of 2x2 unitaries, u3 composition, unrolling of
compound gates into a {u1,u2,u3,id,cx} basis (an MCX with k >= 3 controls
as a Gray-code phase polynomial of 2^(k+1)-2 CX), adjacent-gate cleanup
(one pass merges 1q runs, and can expand SWAPs and cancel CX pairs), and
two-qubit state preparation from known product inputs.  One rule picks
every u-gate.

The 1q algebra is closed-form over the four entries of a 2x2 matrix: no numpy
or BLAS runs on the compile path outside --blocks.  The helpers that take or
return arrays, which only the oracle and --blocks call, import numpy lazily.
"""
from __future__ import annotations

import cmath
import math
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

from .circuit import (EPS_ANGLE, GATES_1Q, TWO_PI, Circuit, GateKind,
                      Instruction, canonical_angle, _H, _U1, _U2, _U3, _CX,
                      _CZ, _SWAP, _SWAPZ, _CCX, _MCX, _CSWAP, _CU3)

PI = math.pi
UNITARY_TOL = 1e-10


def _i(kind, qubits, params=(), clbits=(), open_mask=()):
    """Instruction without the constructor's checks, for canonical fields."""
    return tuple.__new__(Instruction, (kind, qubits, params, clbits, open_mask))


def _u3_entries(theta: float, phi: float, lam: float) -> tuple:
    """The entries (u00, u01, u10, u11) of u3(theta, phi, lam)."""
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return (ct, -cmath.exp(1j * lam) * st, cmath.exp(1j * phi) * st,
            cmath.exp(1j * (phi + lam)) * ct)


def _mul2(x: tuple, y: tuple) -> tuple:
    """Entries of the 2x2 product x @ y."""
    (a, b, c, d), (e, f, g, h) = x, y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _dagger2(x: tuple) -> tuple:
    return tuple(v.conjugate() for v in (x[0], x[2], x[1], x[3]))


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    import numpy as np
    return np.array(_u3_entries(theta, phi, lam)).reshape(2, 2)


_SQ2 = 1.0 / math.sqrt(2.0)
# Exact entries of the named single-qubit gates.
_GATE_1Q_ENTRIES = {
    GateKind.ID: (1, 0, 0, 1),
    GateKind.X: (0, 1, 1, 0),
    GateKind.Y: (0, -1j, 1j, 0),
    GateKind.Z: (1, 0, 0, -1),
    GateKind.H: (_SQ2, _SQ2, _SQ2, -_SQ2),
    GateKind.S: (1, 0, 0, 1j),
    GateKind.SDG: (1, 0, 0, -1j),
    GateKind.T: (1, 0, 0, cmath.exp(1j * PI / 4)),
    GateKind.TDG: (1, 0, 0, cmath.exp(-1j * PI / 4)),
}

# Exact u3 parameters of the named single-qubit gates.
_NAMED_U3 = {
    GateKind.ID: (0.0, 0.0, 0.0),
    GateKind.X: (PI, 0.0, PI),
    GateKind.Y: (PI, PI / 2, PI / 2),
    GateKind.Z: (0.0, 0.0, PI),
    GateKind.H: (PI / 2, 0.0, PI),
    GateKind.S: (0.0, 0.0, PI / 2),
    GateKind.SDG: (0.0, 0.0, 3 * PI / 2),
    GateKind.T: (0.0, 0.0, PI / 4),
    GateKind.TDG: (0.0, 0.0, 7 * PI / 4),
}


def check_unitary2(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    import numpy as np
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.max(np.abs(u @ u.conj().T - np.eye(2))) > tol:
        raise ValueError("matrix is not unitary")
    return u


class U3Params(NamedTuple):
    """u3(theta, phi, lam) angles plus the global phase of the source matrix."""

    theta: float
    phi: float
    lam: float
    global_phase: float = 0.0

    def matrix(self) -> np.ndarray:
        return cmath.exp(1j * self.global_phase) * u3_matrix(self.theta, self.phi, self.lam)

    def is_identity(self) -> bool:
        return _u_gate(self.theta, self.phi, self.lam) is None

    def inverse(self) -> "U3Params":
        # u3(t,p,l)^dag == u3(t, pi-l, pi-p) exactly (no phase slack).
        return U3Params(self.theta, canonical_angle(PI - self.lam),
                        canonical_angle(PI - self.phi),
                        canonical_angle(-self.global_phase))


def zyz_decompose(u: np.ndarray) -> U3Params:
    """Euler angles of a 2x2 unitary: u == e^{i*phase} * u3(theta, phi, lam).

    theta lands in [0, pi]; at the degenerate poles (theta ~ 0 or pi) the
    undetermined Euler angle is folded into lam and phi is set to 0.
    """
    return _zyz(*check_unitary2(u).ravel().tolist())


def _zyz(u00: complex, u01: complex, u10: complex, u11: complex) -> U3Params:
    """zyz_decompose of the entries of a matrix that is unitary by
    construction (a product of u3 matrices), without re-checking it."""
    a, b = abs(u00), abs(u10)
    theta = 2.0 * math.atan2(b, a)
    if b < 1e-12:       # diagonal: rotation about Z only
        phase = cmath.phase(u00)
        phi, lam = 0.0, cmath.phase(u11) - phase
    elif a < 1e-12:     # anti-diagonal
        phase = cmath.phase(u10)
        phi, lam = 0.0, cmath.phase(-u01) - phase
    else:
        # Three angles fit three entry phases; let the fourth, which follows,
        # be a small entry's (u11 or u01), so its error stays small.
        phase = cmath.phase(u00)
        phi = cmath.phase(u10) - phase
        lam = (cmath.phase(u11) - phase - phi if a >= b
               else cmath.phase(-u01) - phase)
    theta = min(max(theta, 0.0), PI)
    return U3Params(theta, canonical_angle(phi), canonical_angle(lam),
                    canonical_angle(phase))


def compose_u3(first: U3Params, second: U3Params) -> U3Params:
    """Parameters of the fused gate applying `first` then `second`."""
    m = _mul2(_u3_entries(second.theta, second.phi, second.lam),
              _u3_entries(first.theta, first.phi, first.lam))
    g = cmath.exp(1j * (first.global_phase + second.global_phase))
    return _zyz(*(g * x for x in m))


def _u3_angles(inst: Instruction) -> tuple[float, float, float]:
    k = inst.kind
    if k is _U3:
        return inst.params
    if k is _U2:
        return (PI / 2, *inst.params)
    if k is _U1:
        return (0.0, 0.0, inst.params[0])
    if k in _NAMED_U3:
        return _NAMED_U3[k]
    raise ValueError(f"{k.value} is not a single-qubit unitary gate")


def as_u3params(inst: Instruction) -> U3Params:
    """u3 view of any single-qubit unitary instruction."""
    return U3Params(*_u3_angles(inst))


def _u_gate(theta: float, phi: float, lam: float) -> tuple | None:
    """(kind, canonical params) of the cheapest u-gate realizing
    u3(theta, phi, lam), or None for the identity.  The tests are
    `angles_equal`'s circular ones against 0 and pi/2, as plain comparisons
    on canonical angles."""
    t = canonical_angle(theta)
    if t < EPS_ANGLE or TWO_PI - t < EPS_ANGLE:
        s = canonical_angle(phi + lam)
        return None if s < EPS_ANGLE or TWO_PI - s < EPS_ANGLE else (_U1, (s,))
    phi, lam = canonical_angle(phi), canonical_angle(lam)
    if abs(t - PI / 2) < EPS_ANGLE:
        return _U2, (phi, lam)
    return _U3, (t, phi, lam)


def u3params_instruction(p: U3Params, q: int) -> Instruction | None:
    """Cheapest u-gate realizing p on qubit q (`_u_gate`), or None."""
    g = _u_gate(p.theta, p.phi, p.lam)
    return None if g is None else _i(g[0], (q,), g[1])


def pure_state_vector(theta: float, phi: float) -> np.ndarray:
    """Statevector cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    import numpy as np
    return np.array([math.cos(theta / 2.0),
                     cmath.exp(1j * phi) * math.sin(theta / 2.0)])


def pure_to_zero_gate(theta: float, phi: float) -> U3Params:
    """Gate sending the pure state (theta, phi) back to |0>, up to phase."""
    return _zyz(*_dagger2(_u3_entries(theta, phi, 0.0)))


def pure_to_pure_gate(src: tuple[float, float], dst: tuple[float, float]) -> U3Params:
    """Gate sending pure state src to pure state dst, up to phase."""
    return _zyz(*_mul2(_u3_entries(dst[0], dst[1], 0.0),
                       _dagger2(_u3_entries(src[0], src[1], 0.0))))


# ---------------------------------------------------------------------------
# Decomposition identities
# ---------------------------------------------------------------------------

DEFAULT_BASIS = frozenset({GateKind.U1, GateKind.U2, GateKind.U3,
                           GateKind.ID, GateKind.CX})
_KEEP_ALWAYS = frozenset({GateKind.RESET, GateKind.ANNOT,
                          GateKind.MEASURE, GateKind.BARRIER})


def swap_to_cx(a: int, b: int) -> list[Instruction]:
    return [_i(GateKind.CX, (a, b)), _i(GateKind.CX, (b, a)),
            _i(GateKind.CX, (a, b))]


def swapz_to_cx(a: int, z: int) -> list[Instruction]:
    """Definition of the swap-with-zero gate: two alternating CNOTs."""
    return [_i(GateKind.CX, (a, z)), _i(GateKind.CX, (z, a))]


def ccx_to_cx(a: int, b: int, t: int) -> list[Instruction]:
    """Standard Toffoli construction: 6 CNOTs plus T/H gates."""
    K = GateKind
    return [
        _i(K.H, (t,)),
        _i(K.CX, (b, t)), _i(K.TDG, (t,)),
        _i(K.CX, (a, t)), _i(K.T, (t,)),
        _i(K.CX, (b, t)), _i(K.TDG, (t,)),
        _i(K.CX, (a, t)), _i(K.T, (b,)), _i(K.T, (t,)),
        _i(K.H, (t,)),
        _i(K.CX, (a, b)), _i(K.T, (a,)), _i(K.TDG, (b,)),
        _i(K.CX, (a, b)),
    ]


def cswap_to_ccx(c: int, t1: int, t2: int) -> list[Instruction]:
    return [_i(GateKind.CX, (t2, t1)), _i(GateKind.CCX, (c, t1, t2)),
            _i(GateKind.CX, (t2, t1))]


def cu3_to_cx(theta: float, phi: float, lam: float, c: int, t: int) -> list[Instruction]:
    """Controlled-u3 via the two-CNOT ABC construction."""
    K = GateKind
    return [
        _i(K.U1, (c,), (canonical_angle((lam + phi) / 2.0),)),
        _i(K.U1, (t,), (canonical_angle((lam - phi) / 2.0),)),
        _i(K.CX, (c, t)),
        _i(K.U3, (t,), (canonical_angle(-theta / 2.0), 0.0,
                        canonical_angle(-(phi + lam) / 2.0))),
        _i(K.CX, (c, t)),
        _i(K.U3, (t,), (canonical_angle(theta / 2.0), phi, 0.0)),
    ]


def _make_mcx(controls: tuple[int, ...], target: int) -> Instruction:
    if len(controls) == 0:
        return _i(GateKind.X, (target,))
    if len(controls) == 1:
        return _i(GateKind.CX, (controls[0], target))
    if len(controls) == 2:
        return _i(GateKind.CCX, (controls[0], controls[1], target))
    return _i(GateKind.MCX, controls + (target,))


def mcx_gray_code(controls: tuple[int, ...], target: int) -> list[Instruction]:
    """Ancilla-free multi-controlled X, exact including global phase, with
    2^(k+1)-2 CX for k controls: H on the target around C^kZ.

    C^kZ is the phase polynomial pi * x_0...x_k = pi/2^k * sum over nonempty
    wire subsets S of (-1)^(|S|+1) parity(S) (Barenco et al. 1995, sec. 7;
    Welch et al. 2014).  The subsets whose highest wire is h are walked in
    Gray-code order with h as host: one CX into h and one u1(+-pi/2^k) on it
    per step, and a last CX to restore h.  The most frequently flipped bit is
    the wire just below h, so on a line most CX act on neighbours.
    """
    wires = controls + (target,)
    plus = PI / 2 ** len(controls)
    minus = canonical_angle(-plus)
    out = [_i(GateKind.H, (target,))]
    for j in reversed(range(len(wires))):
        host, gray = wires[j], 0
        out.append(_i(GateKind.U1, (host,), (plus,)))
        for step in range(1, 2 ** j):
            bit = (step & -step).bit_length() - 1
            gray ^= 1 << bit
            out.append(_i(GateKind.CX, (wires[j - 1 - bit], host)))
            out.append(_i(GateKind.U1, (host,),
                          (minus if gray.bit_count() % 2 else plus,)))
        if j:
            out.append(_i(GateKind.CX, (wires[0], host)))
    out.append(_i(GateKind.H, (target,)))
    return out


def mcx_vchain(controls: tuple[int, ...], target: int, ancillas: tuple[int, ...],
               open_mask: tuple[bool, ...] = ()) -> list[Instruction]:
    """X on `target` under k >= 3 controls, using k-2 clean ancillas
    (restored to |0> at the end)."""
    k = len(controls)
    if k < 3 or len(ancillas) < k - 2:
        raise ValueError("mcx with ancillas needs 3 or more controls and "
                         "k-2 clean ancilla qubits")
    if not open_mask:
        open_mask = (False,) * k
    K = GateKind
    compute = [Instruction(K.CCX, (controls[0], controls[1], ancillas[0]),
                           open_mask=open_mask[:2])]
    for j in range(2, k - 1):
        compute.append(Instruction(K.CCX, (controls[j], ancillas[j - 2], ancillas[j - 1]),
                                   open_mask=(open_mask[j], False)))
    apply_t = Instruction(K.CCX, (controls[k - 1], ancillas[k - 3], target),
                          open_mask=(open_mask[k - 1], False))
    return compute + [apply_t] + list(reversed(compute))


def _open_control_wrap(inst: Instruction) -> list[Instruction]:
    """Rewrite open controls as X-conjugated closed controls."""
    xs = [_i(GateKind.X, (q,)) for q, o in zip(inst.controls, inst.open_mask) if o]
    closed = _i(inst.kind, inst.qubits, inst.params)
    return xs + [closed] + xs


def _decompose_step(inst: Instruction) -> list[Instruction]:
    kind = inst.kind
    if inst.open_mask:
        return _open_control_wrap(inst)
    if kind in _NAMED_U3:
        out = u3params_instruction(U3Params(*_NAMED_U3[kind]), inst.qubits[0])
        return [out] if out else []
    if kind is _CZ:
        a, b = inst.qubits
        return [_i(_H, (b,)), _i(_CX, (a, b)), _i(_H, (b,))]
    if kind is _SWAP:
        return swap_to_cx(*inst.qubits)
    if kind is _SWAPZ:
        return swapz_to_cx(*inst.qubits)
    if kind is _CCX:
        return ccx_to_cx(*inst.qubits)
    if kind is _CSWAP:
        return cswap_to_ccx(*inst.qubits)
    if kind is _CU3:
        return cu3_to_cx(*inst.params, *inst.qubits)
    if kind is _MCX:
        controls, target = inst.qubits[:-1], inst.qubits[-1]
        if len(controls) <= 2:
            return [_make_mcx(controls, target)]
        return mcx_gray_code(controls, target)
    raise ValueError(f"cannot decompose {kind.value} into the requested basis")


def _unroll_into(out: list[Instruction], insts, keep: frozenset[GateKind],
                 memo: dict[Instruction, list[Instruction]]) -> None:
    """Append to `out` each of `insts` whose kind is in `keep`, and the full
    expansion of every other one, built once and entered in `memo`."""
    for inst in insts:
        if inst.kind in keep and not inst.open_mask:
            out.append(inst)
            continue
        expansion = memo.get(inst)
        if expansion is None:
            expansion = memo[inst] = []
            _unroll_into(expansion, _decompose_step(inst), keep, memo)
        out += expansion


def unroll(c: Circuit, basis: frozenset[GateKind] = DEFAULT_BASIS) -> Circuit:
    """Decompose every gate into `basis` kinds, which must include u1, u2, u3
    and cx (RESET/ANNOT/MEASURE/BARRIER pass through).  MCX with three or
    more controls uses the ancilla-free `mcx_gray_code`.  Unrolling the
    output again returns it unchanged.

    Each distinct decomposed instruction (same kind, qubits, params and
    open-control mask) is expanded once per call: a dict local to the call
    maps it to its full expansion, which repeats reuse.  `_decompose_step`
    is a pure function of the instruction tuple, and angles are canonical,
    so equal instructions have identical expansions."""
    basis = frozenset(basis)
    if not {GateKind.U1, GateKind.U2, GateKind.U3, GateKind.CX} <= basis:
        raise ValueError("basis must include u1, u2, u3 and cx")
    # Only cx, ccx and mcx carry open controls, so no kept-always kind does.
    keep = basis | _KEEP_ALWAYS
    out: list[Instruction] = []
    _unroll_into(out, c.instructions, keep, {})
    return c.replace(out)


# ---------------------------------------------------------------------------
# Adjacent-gate cleanup
# ---------------------------------------------------------------------------

def _is_canonical_u(inst: Instruction) -> bool:
    """True iff `_u_gate` of inst's u3 angles rebuilds `inst`: a u2, a u1
    off the identity, or a u3 with theta off 0 and pi/2.  The merge's fast
    test for a lone gate, which then skips the memo; the angles are
    canonical, so the rule's tests come down to these on the first one."""
    k = inst.kind
    if k is _U2:
        return True
    if k is _U1 or k is _U3:
        x = inst.params[0]
        return not (x < EPS_ANGLE or TWO_PI - x < EPS_ANGLE
                    or (k is _U3 and abs(x - PI / 2) < EPS_ANGLE))
    return False


def _fuse(run) -> tuple | None:
    """`_u_gate` of `run`, a lone gate or a list of gates applied in order:
    the lone gate's u3 angles, or the ZYZ angles of the list's product."""
    if type(run) is not list:
        return _u_gate(*_u3_angles(run))
    m = _u3_entries(*_u3_angles(run[0]))
    for inst in run[1:]:
        m = _mul2(_u3_entries(*_u3_angles(inst)), m)
    return _u_gate(*_zyz(*m)[:3])


def _emitted(run: list, q: int, fused: dict) -> Instruction | None:
    """The merged gate of `run`, a list of 1q gates on wire q, or None."""
    if len(run) == 1:
        run = run[0]
        if _is_canonical_u(run):
            return run
        key = run.kind, run.params
    else:
        key = tuple([(g.kind, g.params) for g in run])
    try:
        g = fused[key]
    except KeyError:
        g = fused[key] = _fuse(run)
    return None if g is None else _i(g[0], (q,), g[1])


def _merge_runs(c: Circuit, cancel: bool = False) -> tuple[Circuit, bool]:
    """`merge_1q_runs(c)`, and whether it dropped a run.  With `cancel`,
    R = merge_1q_runs(cancel_adjacent_cx(merge_1q_runs(x))), x being c with
    each SWAP/SWAPZ expanded (each distinct one once), and whether another
    pass is needed.  Each gate the merge emits goes straight through
    cancel_adjacent_cx's bookkeeping.  A 1q gate a cancelled pair exposes is
    re-opened, with the first-merge gates it was fused from, as the start of
    its wire's next run.  A run so joined that fuses to the identity is left
    in place, as dropping it can make two CX adjacent: the result merges to
    R, and another pass is due."""
    n = c.n_qubits
    out: list[Instruction | None] = []
    # Per wire: a gate or a list; a re-opened run's list starts with a list.
    runs: list = [None] * n
    fused, swaps = {}, {}  # run -> `_fuse`; SWAP/SWAPZ -> (first CX, the rest)
    top, below = [-1] * n, {}  # as in cancel_adjacent_cx
    # Index in `out` of a re-opened run's last gate -> (its first-merge
    # gates, index of its first gate, below the last if left in place).
    parts: dict[int, tuple[list, int]] = {}
    dropped = cancelled = False
    # A barrier on every wire flushes the runs still open at the end, in
    # wire order; it is popped after.
    it = base = iter(c.instructions + [_i(GateKind.BARRIER, tuple(range(n)))])
    while it:
        todo, it = it, None
        for inst in todo:
            k = inst.kind
            if k in GATES_1Q:
                q = inst.qubits[0]
                run = runs[q]
                if run is None:
                    runs[q] = inst
                elif type(run) is list:
                    run.append(inst)
                else:
                    runs[q] = [run, inst]
                continue
            rest = ()
            if cancel and (k is _SWAP or k is _SWAPZ):
                # The first CX goes through the loop; when it is kept, the
                # others follow it, as nothing can cancel them.
                e = swaps.get(inst)
                if e is None:
                    e = (swap_to_cx if k is _SWAP else swapz_to_cx)(*inst.qubits)
                    e = swaps[inst] = e[0], e[1:]
                k, (inst, rest) = _CX, e
            qs = inst.qubits
            for q in qs:
                run = runs[q]
                if run is None:
                    continue
                runs[q] = None
                if type(run) is not list:
                    if _is_canonical_u(run):
                        top[q] = len(out)
                        out.append(run)
                        continue
                    run = [run]
                elif type(run[0]) is list:  # fused as the second merge does
                    h = run[0]
                    if len(run) > 1 and (g := _emitted(run[1:], q, fused)):
                        h.append(g)
                    g, first = _emitted(h, q, fused), len(out)
                    out += h if g is None else [g]
                    top[q] = len(out) - 1
                    parts[top[q]] = h, first
                    continue
                g = _emitted(run, q, fused)
                if g is None:
                    dropped = True
                else:
                    top[q] = len(out)
                    out.append(g)
            if cancel:
                if k is _CX and not inst.open_mask:
                    a, b = qs
                    i, j = top[a], top[b]
                    if i == j and i >= 0 and out[i] == inst:
                        out[i] = None
                        top[a], top[b] = below.pop(i)
                        cancelled = True
                        for q in qs:  # re-open a 1q gate the pair exposed
                            if (t := top[q]) >= 0 and out[t].kind in GATES_1Q:
                                h, first = parts.pop(t, None) or ([out[t]], t)
                                out[first:t + 1] = [None] * (t + 1 - first)
                                runs[q] = [h]
                        if rest:  # the SWAP's other CX, through the loop
                            it = chain(rest, base)
                            break
                        continue
                    top[a] = top[b] = idx = len(out)
                    below[idx] = (i, j)
                    for g in rest:
                        out.append(inst)
                        inst = g
                        top[a] = top[b] = idx = len(out)
                        below[idx] = (idx - 1, idx - 1)
                else:
                    for q in qs:
                        top[q] = len(out)
            out.append(inst)
    out.pop()
    if cancelled:
        out = list(filter(None, out))  # Instructions are non-empty tuples
    return c.replace(out), (any(t > i for t, (_, i) in parts.items())
                            if cancel else dropped)


def merge_1q_runs(c: Circuit) -> Circuit:
    """Fuse each maximal run of single-qubit gates on a wire into one u-gate.

    BARRIER/MEASURE/RESET/ANNOT and multi-qubit gates break runs; a merged
    gate within EPS_ANGLE of the identity is dropped.  A run of one gate
    that is already the cheapest u-gate for itself (see `_is_canonical_u`)
    is passed through as it is.  Any other run is fused once per distinct
    run per call (its closed-form 2x2 product decomposed by ZYZ, or a lone
    gate's u3 angles): a dict local to the call maps the run's (kind,
    params) sequence to the fused gate's, which each repeat rebuilds on its
    own wire.  The fused gate is a pure function of that sequence, so
    repeats come out identical; merged input comes back unchanged.  The
    pass behind it, `_merge_runs`, is with `cancel` pipeline()'s cleanup."""
    return _merge_runs(c)[0]


def cancel_adjacent_cx(c: Circuit) -> Circuit:
    """Drop adjacent identical CX pairs (same control/target, nothing between
    them on either wire).  Kept for callers and the benchmark's stage
    replay: pipeline() cancels in `_merge_runs(c, cancel=True)`."""
    out: list[Instruction | None] = []
    top = [-1] * c.n_qubits  # per wire: index in `out` of its last kept gate
    below: dict[int, tuple[int, int]] = {}  # kept CX -> its wires' tops before it
    cancelled = False

    for inst in c.instructions:
        if inst.kind is _CX and not inst.open_mask:
            a, b = inst.qubits
            i = top[a]
            if i >= 0 and i == top[b] and out[i] == inst:
                out[i] = None
                top[a], top[b] = below.pop(i)
                cancelled = True
                continue
            below[len(out)] = (top[a], top[b])
        idx = len(out)
        out.append(inst)
        for q in inst.qubits:
            top[q] = idx
    return c.replace([g for g in out if g is not None] if cancelled else out)


# ---------------------------------------------------------------------------
# Two-qubit state preparation
# ---------------------------------------------------------------------------

def prepare_two_qubit_state(target: np.ndarray,
                            input0: tuple[float, float],
                            input1: tuple[float, float], *,
                            svd: tuple | None = None) -> Circuit:
    """Circuit of at most one CX and four u-gates mapping the product state
    (input0, input1) to `target` (4 amplitudes, qubit 0 is the high bit),
    up to global phase.

    Built from the Schmidt form of the target: local singular bases on each
    wire around a single entangler when the Schmidt rank is 2 (`svd`, if
    given, is `np.linalg.svd(target.reshape(2, 2))`).
    """
    import numpy as np
    for name, st in (("input0", input0), ("input1", input1)):
        if st is None or len(st) != 2:
            raise ValueError(f"{name} must be a known pure state (theta, phi)")
    target = np.asarray(target, dtype=complex).reshape(-1)
    if target.shape != (4,):
        raise ValueError("target must have 4 amplitudes")
    if abs(np.linalg.norm(target) - 1.0) > 1e-9:
        raise ValueError("target state is not normalized")

    u, s, vh = np.linalg.svd(target.reshape(2, 2)) if svd is None else svd
    entangled = s[1] > 1e-7

    pre0 = pure_to_zero_gate(*input0)
    if entangled:
        weights = U3Params(2.0 * math.atan2(s[1], s[0]), 0.0, 0.0)
        pre0 = compose_u3(pre0, weights)
    pre1 = pure_to_zero_gate(*input1)
    post0 = zyz_decompose(u)
    post1 = zyz_decompose(vh.T.copy())

    out = Circuit(2)
    for params, wire in ((pre0, 0), (pre1, 1)):
        inst = u3params_instruction(params, wire)
        if inst is not None:
            out.append(inst)
    if entangled:
        out.cx(0, 1)
    for params, wire in ((post0, 0), (post1, 1)):
        inst = u3params_instruction(params, wire)
        if inst is not None:
            out.append(inst)
    return out
