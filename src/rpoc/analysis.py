"""Per-qubit static state tracking: one pure-state tracker for both passes.

A `Tracker` keeps one state per wire: a (theta, phi) pair with
|psi> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, or None for unknown
(TOP).  Every wire starts in |0>.  Single-qubit gates act on the state's two
amplitudes; RESET sets |0>, ANNOT sets the asserted state and MEASURE sets
TOP.  SWAP exchanges two states, and so does SWAPZ when its designated
operand is |0>; every other multi-qubit gate sends its operands to TOP.

qpo uses the tracked states as they are.  qbo reads them for its rules
through `basis_of`, which snaps a state onto one of the six octahedron rays
|0>, |1>, |+>, |->, |+i>, |-i> and reports TOP for any other state.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from enum import Enum

from .circuit import (EPS_ANGLE, Instruction, angles_equal, canonical_angle,
                      _RESET, _ANNOT, _MEASURE, _SWAP, _SWAPZ, _BARRIER)
from .synth import U3Params, as_u3params

PI = math.pi


class BasisState(Enum):
    ZERO = "0"
    ONE = "1"
    PLUS = "+"
    MINUS = "-"
    PLUS_I = "+i"
    MINUS_I = "-i"
    TOP = "top"


# Module-level names: reading a member off the class runs EnumType.__getattr__.
_ZERO, _ONE, _PLUS, _MINUS, _PLUS_I, _MINUS_I, _TOP = BasisState

# phi of the four equator rays (theta = pi/2); |0> and |1> are the poles.
_EQUATOR = ((_PLUS, 0.0), (_MINUS, PI), (_PLUS_I, PI / 2),
            (_MINUS_I, 3 * PI / 2))

GROUND = (0.0, 0.0)  # every wire's initial state, |0>


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


def vector_to_pure(v: Sequence[complex]) -> tuple[float, float]:
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
        return _ZERO
    if angles_equal(theta, PI):
        return _ONE
    if angles_equal(theta, PI / 2):
        for s, ray_phi in _EQUATOR:
            if angles_equal(phi, ray_phi):
                return s
    return _TOP


def basis_of(s: tuple[float, float] | None) -> BasisState:
    """The tracked ray a pure state lies on, TOP when unknown or off-ray."""
    if s is None:
        return _TOP
    return classify_pure_as_basis(*s)


def is_zero(s: tuple[float, float] | None) -> bool:
    """Whether a tracked state is |0>, so a SWAPZ designated on it is a SWAP."""
    return s is not None and angles_equal(s[0], 0.0)


def pure_transition(s: tuple[float, float] | None,
                    g: U3Params) -> tuple[float, float] | None:
    """Advance a tracked pure state through a single-qubit gate, by applying
    u3(theta, phi, lam) to the state's two amplitudes."""
    if s is None:
        return None
    ct, st = math.cos(g.theta / 2.0), math.sin(g.theta / 2.0)
    a0 = math.cos(s[0] / 2.0)
    a1 = cmath.exp(1j * (s[1] + g.lam)) * math.sin(s[0] / 2.0)
    return vector_to_pure((ct * a0 - st * a1,
                           cmath.exp(1j * g.phi) * (st * a0 + ct * a1)))


class Tracker:
    """Per-qubit pure-state map, driven by kept-gate semantics."""

    def __init__(self, n_qubits: int):
        self.states: list[tuple[float, float] | None] = [GROUND] * n_qubits

    def swap(self, a: int, b: int) -> None:
        self.states[a], self.states[b] = self.states[b], self.states[a]

    def step(self, inst: Instruction) -> None:
        k = inst.kind
        if k is _BARRIER:
            return
        q = inst.qubits[0]
        if k is _RESET:
            self.states[q] = GROUND
        elif k is _ANNOT:
            self.states[q] = canonical_pure(*inst.params)
        elif k is _MEASURE:
            self.states[q] = None
        elif inst.is_1q:
            if self.states[q] is not None:
                self.states[q] = pure_transition(self.states[q],
                                                 as_u3params(inst))
        elif k is _SWAP or (
                k is _SWAPZ and is_zero(self.states[inst.qubits[1]])):
            self.swap(*inst.qubits)
        else:
            for q in inst.qubits:
                self.states[q] = None
