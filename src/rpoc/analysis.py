"""Per-qubit static state tracking: one tracker over two abstract domains.

A `Tracker` keeps one abstract state per wire, starting from the domain's
ground state.  Single-qubit gates, RESET, ANNOT and MEASURE go through the
domain's transfer function; SWAP exchanges two states, and so does SWAPZ
when the domain's zero test holds for its designated operand; every other
multi-qubit gate sends its operands to the domain's unknown element.

- BASIS: the six octahedron states |0>, |1>, |+>, |->, |+i>, |-i> plus the
  unknown state TOP.  Single-qubit gates move a tracked state by direct
  matrix action followed by ray classification, which reproduces the named
  half/quarter-turn transitions and widens everything else to TOP.
- PURE: a (theta, phi) pair with |psi> = cos(theta/2)|0> +
  e^{i phi} sin(theta/2)|1>, or None for unknown.  Single-qubit gates advance
  it by u3 merging; the leftover lambda never moves |0> and is dropped.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

import numpy as np

from .circuit import EPS_ANGLE, GateKind, Instruction, angles_equal, canonical_angle
from .synth import U3Params, as_u3params, compose_u3, matrix_1q, pure_state_vector

PI = math.pi


class BasisState(Enum):
    ZERO = "0"
    ONE = "1"
    PLUS = "+"
    MINUS = "-"
    PLUS_I = "+i"
    MINUS_I = "-i"
    TOP = "top"


# (theta, phi) of each tracked ray.
_BASIS_ANGLES: dict[BasisState, tuple[float, float]] = {
    BasisState.ZERO: (0.0, 0.0),
    BasisState.ONE: (PI, 0.0),
    BasisState.PLUS: (PI / 2, 0.0),
    BasisState.MINUS: (PI / 2, PI),
    BasisState.PLUS_I: (PI / 2, PI / 2),
    BasisState.MINUS_I: (PI / 2, 3 * PI / 2),
}

BASIS_VECTORS: dict[BasisState, np.ndarray] = {
    s: pure_state_vector(*ang) for s, ang in _BASIS_ANGLES.items()
}


def basis_state_angles(s: BasisState) -> tuple[float, float]:
    return _BASIS_ANGLES[s]


def canonical_pure(theta: float, phi: float) -> tuple[float, float]:
    """Normalize a pure-state parameter pair: theta in [0, pi], phi in
    [0, 2pi), phi = 0 at the poles (where it is physically irrelevant)."""
    theta = canonical_angle(theta)
    phi = canonical_angle(phi)
    if theta > PI:
        theta = 2 * PI - theta
        phi = canonical_angle(phi + PI)
    if theta < EPS_ANGLE or PI - theta < EPS_ANGLE:
        phi = 0.0
    return theta, phi


def vector_to_pure(v: np.ndarray) -> tuple[float, float]:
    """(theta, phi) of a single-qubit statevector, dropping global phase."""
    theta = 2.0 * math.atan2(abs(v[1]), abs(v[0]))
    if abs(v[1]) < 1e-12 or abs(v[0]) < 1e-12:
        phi = 0.0
    else:
        phi = cmath.phase(v[1]) - cmath.phase(v[0])
    return canonical_pure(theta, phi)


def classify_pure_as_basis(theta: float, phi: float) -> BasisState:
    """Snap a pure state onto one of the six tracked rays, else TOP."""
    theta, phi = canonical_pure(theta, phi)
    if angles_equal(theta, 0.0):
        return BasisState.ZERO
    if angles_equal(theta, PI):
        return BasisState.ONE
    if angles_equal(theta, PI / 2):
        for s in (BasisState.PLUS, BasisState.MINUS,
                  BasisState.PLUS_I, BasisState.MINUS_I):
            if angles_equal(phi, _BASIS_ANGLES[s][1]):
                return s
    return BasisState.TOP


def basis_transition(s: BasisState, kind: GateKind,
                     params: tuple[float, ...] = ()) -> BasisState:
    """Post-state of a tracked basis state under one single-qubit instruction."""
    if kind is GateKind.RESET:
        return BasisState.ZERO
    if kind is GateKind.ANNOT:
        return classify_pure_as_basis(*params)
    if kind is GateKind.MEASURE:
        return BasisState.TOP
    if kind is GateKind.BARRIER:
        return s
    if s is BasisState.TOP:
        return BasisState.TOP
    m = matrix_1q(kind, params)  # raises for multi-qubit kinds
    return classify_pure_as_basis(*vector_to_pure(m @ BASIS_VECTORS[s]))


def pure_transition(s: tuple[float, float] | None,
                    g: U3Params) -> tuple[float, float] | None:
    """Advance a tracked pure state through a single-qubit gate."""
    if s is None:
        return None
    merged = compose_u3(U3Params(s[0], s[1], 0.0), g)
    return canonical_pure(merged.theta, merged.phi)


def _pure_transfer(s: tuple[float, float] | None,
                   inst: Instruction) -> tuple[float, float] | None:
    k = inst.kind
    if k is GateKind.RESET:
        return (0.0, 0.0)
    if k is GateKind.ANNOT:
        return canonical_pure(*inst.params)
    if k is GateKind.MEASURE:
        return None
    return pure_transition(s, as_u3params(inst))


@dataclass(frozen=True)
class Domain:
    """An abstract domain of single-qubit states.

    `ground` is the state every wire starts in, `unknown` the top element,
    `transfer(state, inst)` the post-state under a single-qubit unitary,
    RESET, ANNOT or MEASURE, and `is_zero(state)` whether a SWAPZ designated
    on a wire in that state is a true SWAP."""

    ground: Any
    unknown: Any
    transfer: Callable[[Any, Instruction], Any]
    is_zero: Callable[[Any], bool]


BASIS = Domain(BasisState.ZERO, BasisState.TOP,
               lambda s, inst: basis_transition(s, inst.kind, inst.params),
               lambda s: s is BasisState.ZERO)
PURE = Domain((0.0, 0.0), None, _pure_transfer,
              lambda s: s is not None and angles_equal(s[0], 0.0))

_WIRE_KINDS = (GateKind.RESET, GateKind.ANNOT, GateKind.MEASURE)


class Tracker:
    """Per-qubit state map over one domain, driven by kept-gate semantics."""

    def __init__(self, n_qubits: int, domain: Domain):
        self.domain = domain
        self.states: list = [domain.ground] * n_qubits

    def set_top(self, qubits) -> None:
        for q in qubits:
            self.states[q] = self.domain.unknown

    def swap(self, a: int, b: int) -> None:
        self.states[a], self.states[b] = self.states[b], self.states[a]

    def step(self, inst: Instruction) -> None:
        k = inst.kind
        if k is GateKind.BARRIER:
            return
        if inst.is_1q or k in _WIRE_KINDS:
            q = inst.qubits[0]
            self.states[q] = self.domain.transfer(self.states[q], inst)
        elif k is GateKind.SWAP or (
                k is GateKind.SWAPZ
                and self.domain.is_zero(self.states[inst.qubits[1]])):
            self.swap(*inst.qubits)
        else:
            self.set_top(inst.qubits)
