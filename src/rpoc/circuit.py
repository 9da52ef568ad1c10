"""Circuit IR: gate kinds, instructions, and a QASM-flavored text format.

The in-memory form is a flat, ordered instruction list over indexed qubits
and classical bits.  Program order defines dataflow order.  Passes treat
circuits as immutable: they build new ones instead of editing in place.  An
Instruction is an immutable named tuple (kind, qubits, params, clbits,
open_mask), validated once, where it enters: the Instruction constructor,
the Circuit builder and parse_program.  Passes build theirs unchecked
(synth._i, Circuit.replace), so what a pass sets must already be canonical:
in-range int tuples, finite angles in [0, 2*pi), normalized masks.
parse_program reads its text in one pass and appends each statement as it
is read, so its ParseError names the first bad statement.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple
from enum import Enum
from typing import Iterable, Iterator

TWO_PI = 2.0 * math.pi

# Angle equality tolerance (radians).  Angles accumulate float error through
# gate merging; 1e-8 is far above double-precision drift at desk scale and
# far below any pi/2-spaced decision boundary.
EPS_ANGLE = 1e-8


def canonical_angle(x: float) -> float:
    """Map an angle into [0, 2*pi).  Idempotent."""
    v = x % TWO_PI
    # Float wraparound: (-1e-20) % 2pi rounds to 2pi itself.
    if v >= TWO_PI or v < 0.0:
        v = 0.0
    return v


def angles_equal(a: float, b: float, eps: float = EPS_ANGLE) -> bool:
    """Circular comparison: true iff angular distance < eps, wrapping at 0/2pi."""
    d = abs(canonical_angle(a) - canonical_angle(b))
    return d < eps or TWO_PI - d < eps


class ParseError(ValueError):
    """Syntax or validation error in circuit text, with source location."""

    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col
        self.msg = msg


class VerificationError(RuntimeError):
    """An optimized circuit failed oracle verification."""

    def __init__(self, message: str, original_text: str, optimized_text: str):
        super().__init__(message)
        self.original_text = original_text
        self.optimized_text = optimized_text


class GateKind(Enum):
    ID = "id"
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    U1 = "u1"
    U2 = "u2"
    U3 = "u3"
    CX = "cx"
    CZ = "cz"
    CU3 = "cu3"
    SWAP = "swap"
    SWAPZ = "swapz"
    CCX = "ccx"
    MCX = "mcx"
    CSWAP = "cswap"
    RESET = "reset"
    ANNOT = "annot"
    MEASURE = "measure"
    BARRIER = "barrier"

    # Members are singletons and Enum equality is identity, so the identity
    # hash agrees with it; it runs in C, where Enum.__hash__ is Python code
    # called on every `kind in <set>` test.
    __hash__ = object.__hash__


# Kinds the hot loops test, bound once: GateKind.X is a slow read on 3.11.
(_H, _U1, _U2, _U3, _CX, _CZ, _CU3, _SWAP, _SWAPZ, _CCX, _MCX, _CSWAP, _RESET,
 _ANNOT, _MEASURE, _BARRIER) = (GateKind[name] for name in """H U1 U2 U3 CX CZ
 CU3 SWAP SWAPZ CCX MCX CSWAP RESET ANNOT MEASURE BARRIER""".split())

# Single-qubit unitary gates (everything a 1q run can absorb).
GATES_1Q = frozenset({
    GateKind.ID, GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
    GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
    GateKind.U1, GateKind.U2, GateKind.U3,
})

# Fixed operand arity; MCX and BARRIER are variadic (None).
_ARITY: dict[GateKind, int | None] = {
    **{k: 1 for k in GATES_1Q},
    GateKind.RESET: 1, GateKind.ANNOT: 1, GateKind.MEASURE: 1,
    GateKind.CX: 2, GateKind.CZ: 2, GateKind.CU3: 2,
    GateKind.SWAP: 2, GateKind.SWAPZ: 2,
    GateKind.CCX: 3, GateKind.CSWAP: 3,
    GateKind.MCX: None, GateKind.BARRIER: None,
}

_N_PARAMS: dict[GateKind, int] = {
    GateKind.U1: 1, GateKind.U2: 2, GateKind.U3: 3,
    GateKind.CU3: 3, GateKind.ANNOT: 2,
}

# Kinds that may carry an open-control polarity mask (one flag per control).
_MASKABLE = frozenset({GateKind.CX, GateKind.CCX, GateKind.MCX})


def n_controls(kind: GateKind, n_qubits: int) -> int:
    if kind is GateKind.CX or kind is GateKind.CU3 or kind is GateKind.CSWAP:
        return 1
    if kind is GateKind.CCX:
        return 2
    if kind is GateKind.MCX:
        return n_qubits - 1
    return 0


class Instruction(namedtuple("_Fields", "kind qubits params clbits open_mask")):
    """One gate/instruction: kind, qubit operands, angle params, clbits.

    A tuple, so equality and hashing run in C.  Control-carrying kinds (cx,
    ccx, mcx) may have an open-control mask, one flag per control position
    (all-closed is the empty tuple).  SWAPZ's zero-designated operand is
    always qubits[1].  MEASURE is the only kind with clbits.  The constructor
    checks and canonicalizes every field; passes derive theirs unchecked.
    """

    __slots__ = ()

    def __new__(cls, kind: GateKind, qubits, params=(), clbits=(), open_mask=()):
        qubits = tuple(int(q) for q in qubits)
        params = tuple(float(p) for p in params)
        if not all(map(math.isfinite, params)):
            raise ValueError(f"{kind.value} parameters must be finite")
        params = tuple(canonical_angle(p) for p in params)
        clbits = tuple(int(b) for b in clbits)
        open_mask = tuple(bool(m) for m in open_mask)

        arity = _ARITY[kind]
        if arity is None:
            minimum = 2 if kind is GateKind.MCX else 1
            if len(qubits) < minimum:
                raise ValueError(f"{kind.value} needs >= {minimum} operands")
        elif len(qubits) != arity:
            raise ValueError(
                f"{kind.value} takes {arity} qubit(s), got {len(qubits)}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit operand in {kind.value}")
        if len(params) != _N_PARAMS.get(kind, 0):
            raise ValueError(
                f"{kind.value} takes {_N_PARAMS.get(kind, 0)} parameter(s),"
                f" got {len(params)}")
        if kind is GateKind.MEASURE:
            if len(clbits) != 1:
                raise ValueError("measure takes exactly one classical bit")
        elif clbits:
            raise ValueError(f"{kind.value} takes no classical bits")

        if open_mask:
            nc = n_controls(kind, len(qubits))
            if kind not in _MASKABLE:
                raise ValueError(f"{kind.value} does not support open controls")
            if len(open_mask) != nc:
                raise ValueError(f"open-control mask length must be {nc}")
            if not any(open_mask):
                open_mask = ()
            elif kind is GateKind.CCX:
                # Controls are symmetric: canonicalize open controls first so
                # the o-prefixed text form round-trips.
                pairs = sorted(zip(open_mask, qubits[:2]), key=lambda p: not p[0])
                qubits = (pairs[0][1], pairs[1][1], qubits[2])
                open_mask = (pairs[0][0], pairs[1][0])
        return tuple.__new__(cls, (kind, qubits, params, clbits, open_mask))

    @property
    def controls(self) -> tuple[int, ...]:
        return self.qubits[:n_controls(self.kind, len(self.qubits))]

    @property
    def is_1q(self) -> bool:
        return self.kind in GATES_1Q


class Circuit:
    """Ordered instruction list over n_qubits qubits and n_clbits classical bits."""

    def __init__(self, n_qubits: int, n_clbits: int = 0):
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.n_qubits = n_qubits
        self.n_clbits = n_clbits
        self.instructions: list[Instruction] = []
        # Final logical->physical permutation, set by routing.  Not part of
        # circuit identity.
        self.layout: list[int] | None = None

    def append(self, inst: Instruction) -> "Circuit":
        for q in inst.qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit index {q} out of range for width {self.n_qubits}")
        for b in inst.clbits:
            if not 0 <= b < self.n_clbits:
                raise ValueError(f"clbit index {b} out of range for width {self.n_clbits}")
        self.instructions.append(inst)
        return self

    def extend(self, insts: Iterable[Instruction]) -> "Circuit":
        for inst in insts:
            self.append(inst)
        return self

    def copy_empty(self) -> "Circuit":
        return Circuit(self.n_qubits, self.n_clbits)

    def replace(self, insts: Iterable[Instruction]) -> "Circuit":
        """New circuit with the same widths and the given instructions, taken
        as given: unlike extend, it range-checks nothing."""
        out = self.copy_empty()
        out.instructions = list(insts)
        return out

    # Builder shorthands.
    def _add(self, kind, qubits, params=(), clbits=(), open_mask=()):
        return self.append(Instruction(kind, qubits, params, clbits, open_mask))

    def id(self, q): return self._add(GateKind.ID, (q,))
    def x(self, q): return self._add(GateKind.X, (q,))
    def y(self, q): return self._add(GateKind.Y, (q,))
    def z(self, q): return self._add(GateKind.Z, (q,))
    def h(self, q): return self._add(GateKind.H, (q,))
    def s(self, q): return self._add(GateKind.S, (q,))
    def sdg(self, q): return self._add(GateKind.SDG, (q,))
    def t(self, q): return self._add(GateKind.T, (q,))
    def tdg(self, q): return self._add(GateKind.TDG, (q,))
    def u1(self, lam, q): return self._add(GateKind.U1, (q,), (lam,))
    def u2(self, phi, lam, q): return self._add(GateKind.U2, (q,), (phi, lam))
    def u3(self, theta, phi, lam, q): return self._add(GateKind.U3, (q,), (theta, phi, lam))
    def cx(self, c, t): return self._add(GateKind.CX, (c, t))
    def cz(self, a, b): return self._add(GateKind.CZ, (a, b))
    def cu3(self, theta, phi, lam, c, t):
        return self._add(GateKind.CU3, (c, t), (theta, phi, lam))
    def swap(self, a, b): return self._add(GateKind.SWAP, (a, b))

    def swapz(self, a, z):
        """Swap-with-zero gate; z is the zero-designated operand."""
        return self._add(GateKind.SWAPZ, (a, z))

    def ccx(self, c1, c2, t): return self._add(GateKind.CCX, (c1, c2, t))
    def mcx(self, *qubits): return self._add(GateKind.MCX, tuple(qubits))
    def cswap(self, c, t1, t2): return self._add(GateKind.CSWAP, (c, t1, t2))
    def reset(self, q): return self._add(GateKind.RESET, (q,))
    def annot(self, theta, phi, q): return self._add(GateKind.ANNOT, (q,), (theta, phi))
    def measure(self, q, c): return self._add(GateKind.MEASURE, (q,), clbits=(c,))
    def barrier(self, *qubits): return self._add(GateKind.BARRIER, tuple(qubits))

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circuit)
                and self.n_qubits == other.n_qubits
                and self.n_clbits == other.n_clbits
                and self.instructions == other.instructions)

    def __repr__(self) -> str:
        return (f"Circuit(n_qubits={self.n_qubits}, n_clbits={self.n_clbits}, "
                f"{len(self.instructions)} instructions)")


def count_gates(c: Circuit, kinds: GateKind | Iterable[GateKind] | None = None) -> int:
    """Count instructions whose kind matches the filter (None counts all)."""
    if kinds is None:
        return len(c.instructions)
    if isinstance(kinds, GateKind):
        kinds = {kinds}
    else:
        kinds = set(kinds)
    return sum(1 for inst in c.instructions if inst.kind in kinds)


def cx_count(c: Circuit) -> int:
    return count_gates(c, GateKind.CX)


def count_1q(c: Circuit) -> int:
    return sum(1 for inst in c.instructions if inst.is_1q)


def depth(c: Circuit) -> int:
    """Longest dependency chain; instructions conflict iff they share a qubit
    or classical bit.  BARRIER occupies all its listed qubits."""
    levels: dict[tuple[str, int], int] = {}
    best = 0
    for inst in c.instructions:
        keys = [("q", q) for q in inst.qubits] + [("c", b) for b in inst.clbits]
        lvl = 1 + max((levels.get(k, 0) for k in keys), default=0)
        for k in keys:
            levels[k] = lvl
        best = max(best, lvl)
    return best


# ---------------------------------------------------------------------------
# Text format
#
# One statement per line, `;`-terminated.  Angles are decimal literals or
# pi expressions (`pi`, `pi/2`, `-pi/4`, `k*pi/m`).  Open controls use a
# leading-`o` prefix, one `o` per open control counted left to right
# (`ocx`, `occx`, `ooccx`); mcx takes a per-position list `mcx[oc...c]`.
#
# parse_program reads the text once.  Each statement is parsed and appended
# to the circuit as soon as it is read, so the first bad statement is the
# one reported.  The helpers raise plain ValueError; the one try/except
# around each statement turns that into a ParseError at its line and column.
# ---------------------------------------------------------------------------

# "// layout 3,0,1,2": the routed circuit's logical->physical permutation.
_LAYOUT_RE = re.compile(r"//\s*layout\s+(\d+(?:\s*,\s*\d+)*)")
_OPERAND_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]")
_STMT_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*([a-zA-Z]*)\s*\])?"
    r"\s*(?:\(([^)]*)\))?\s*(.*)$", re.DOTALL)
_MEASURE_RE = re.compile(r"(.+?)\s*->\s*(.+)")
_PI_RE = re.compile(r"^([+-]?)\s*(?:(\d+)\s*\*\s*)?pi\s*(?:/\s*(\d+))?$")


def _parse_angle(tok: str) -> float:
    tok = tok.strip()
    m = _PI_RE.match(tok)
    if m:
        sign, k, d = m.groups()
        if d is not None and int(d) == 0:
            raise ValueError("division by zero in angle")
        return (-1.0 if sign == "-" else 1.0) * int(k or 1) * math.pi / int(d or 1)
    try:
        return float(tok)
    except ValueError:
        raise ValueError(f"bad angle expression {tok!r}") from None


def _operands(rest: str) -> list[tuple[str, int]]:
    """The `name[index]` operands of a comma-separated list."""
    out = []
    for part in rest.split(",") if rest.strip() else ():
        m = _OPERAND_RE.fullmatch(part.strip())
        if not m:
            raise ValueError(f"bad operand {part.strip()!r}")
        out.append((m.group(1), int(m.group(2))))
    return out


_NAME_TO_KIND = {k.value: k for k in GateKind}


def _instruction(name: str, bracket: str | None, paramstr: str | None,
                 rest: str, qname: str, cname: str | None) -> Instruction:
    """The gate or measure statement `name[bracket](paramstr) rest`, over
    registers named qname and cname (None before a creg declaration)."""
    if name == "measure":
        mm = _MEASURE_RE.fullmatch(rest.strip())
        if paramstr is not None or not mm:
            raise ValueError("measure syntax is 'measure q[i] -> c[j];'")
        qops, cops = _operands(mm.group(1)), _operands(mm.group(2))
        if len(qops) != 1 or len(cops) != 1:
            raise ValueError("measure takes one qubit and one clbit")
        if cname is None:
            raise ValueError("measure before creg declaration")
        if qops[0][0] != qname or cops[0][0] != cname:
            raise ValueError("unknown register name")
        return Instruction(_MEASURE, (qops[0][1],), clbits=(cops[0][1],))

    # One leading `o` per open control; no gate name starts with `o`.
    kind = _NAME_TO_KIND.get(name.lstrip("o"))
    if kind is None:
        raise ValueError(f"unknown statement {name!r}")
    if bracket and kind is not _MCX:
        raise ValueError("polarity brackets are only valid on mcx")
    params = () if paramstr is None else tuple(
        map(_parse_angle, paramstr.split(",")))
    qubits = []
    for regname, idx in _operands(rest):
        if regname != qname:
            raise ValueError(f"unknown register {regname!r}")
        qubits.append(idx)

    n_open_prefix = len(name) - len(kind.value)
    mask: tuple[bool, ...] = ()
    if bracket:
        if (len(bracket) != n_controls(kind, len(qubits))
                or set(bracket) - {"o", "c"}):
            raise ValueError("mcx polarity list must be one o/c per control")
        mask = tuple(ch == "o" for ch in bracket)
    elif n_open_prefix:  # only here: a bare `mcx;` has -1 controls
        nc = n_controls(kind, len(qubits))
        if n_open_prefix > nc:
            raise ValueError("more open-control prefixes than controls")
        mask = tuple(i < n_open_prefix for i in range(nc))
    return Instruction(kind, qubits, params, open_mask=mask)


def parse_program(text: str) -> Circuit:
    """Parse circuit text.  Raises ParseError with line/column on bad input.
    A statement that parsed and appended is parsed once per call: its repeats
    append the same instruction, range check and all."""
    circuit: Circuit | None = None  # made at the qreg declaration
    qname = cname = None
    n_clbits = 0
    layout: tuple[int, list[int]] | None = None  # (line, permutation)
    memo: dict[str, Instruction] = {}  # statement -> its parsed instruction

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("//", 1)[0].rstrip()
        if not code:
            m = _LAYOUT_RE.fullmatch(raw.strip())
            if m:
                if layout is not None:
                    raise ParseError("duplicate layout line", lineno, 1)
                layout = (lineno, [int(x) for x in m.group(1).split(",")])
            continue
        if not code.endswith(";"):
            raise ParseError("missing ';'", lineno, len(code))
        pos = 0
        for piece in code.split(";"):
            start, pos = pos, pos + len(piece) + 1
            stmt = piece.strip()
            if not stmt:
                continue
            try:
                inst = memo.get(stmt)
                if inst is not None:
                    circuit.append(inst)
                    continue
                m = _STMT_RE.match(stmt)
                if not m:
                    raise ValueError(f"cannot parse statement {stmt!r}")
                name, bracket, paramstr, rest = m.groups()
                name = name.lower()
                if name in ("openqasm", "include"):  # tolerated headers
                    continue
                if name in ("qreg", "creg"):
                    decl = _OPERAND_RE.fullmatch((stmt.split(None, 1) + [""])[1])
                    if not decl:
                        raise ValueError(f"bad register declaration {stmt!r}")
                    size = int(decl.group(2))
                    if size < 1:
                        raise ValueError("register size must be >= 1")
                    if (qname if name == "qreg" else cname) is not None:
                        raise ValueError(f"duplicate {name} declaration")
                    if name == "qreg":
                        qname, circuit = decl.group(1), Circuit(size, n_clbits)
                    else:
                        cname, n_clbits = decl.group(1), size
                        if circuit is not None:
                            circuit.n_clbits = size
                    continue
                if circuit is None:
                    raise ValueError("statement before qreg declaration")
                inst = _instruction(name, bracket, paramstr, rest, qname, cname)
                circuit.append(inst)
                memo[stmt] = inst
            except ValueError as e:
                col = start + len(piece) - len(piece.lstrip()) + 1
                raise ParseError(str(e), lineno, col) from None

    if circuit is None:
        raise ParseError("no qreg declaration", 1, 0)
    if layout is not None:
        line, perm = layout
        if len(set(perm)) != len(perm) or max(perm) >= circuit.n_qubits:
            raise ParseError("layout must name distinct wires of the qreg",
                             line, 1)
        circuit.layout = perm
    return circuit


def emit_program(c: Circuit) -> str:
    """Serialize to canonical text.  parse_program(emit_program(c)) == c,
    and a layout set by routing is kept as a `// layout` comment line."""
    lines = [f"qreg q[{c.n_qubits}];"]
    if c.n_clbits:
        lines.append(f"creg c[{c.n_clbits}];")
    if c.layout is not None:
        lines.append("// layout " + ",".join(map(str, c.layout)))
    for inst in c.instructions:
        if inst.kind is GateKind.MEASURE:
            lines.append(f"measure q[{inst.qubits[0]}] -> c[{inst.clbits[0]}];")
            continue
        name = inst.kind.value
        if inst.open_mask:
            if inst.kind is GateKind.MCX:
                name += "[" + "".join("o" if o else "c" for o in inst.open_mask) + "]"
            else:
                name = "o" * sum(inst.open_mask) + name
        params = ""
        if inst.params:
            params = "(" + ",".join(map(repr, inst.params)) + ")"
        ops = ",".join(f"q[{q}]" for q in inst.qubits)
        lines.append(f"{name}{params} {ops};")
    return "\n".join(lines) + "\n"
