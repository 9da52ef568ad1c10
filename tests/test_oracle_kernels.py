"""Microbenchmarks of the oracle's gate kernels (pytest-benchmark).

`addopts` in pyproject.toml disables timing, so a plain test run calls each
kernel once and checks its result.  To time them:

    pytest tests/test_oracle_kernels.py --benchmark-enable
"""
import numpy as np
import pytest

from rpoc import oracle
from rpoc.circuit import Circuit, GateKind
from rpoc.oracle import _apply_1q, _apply_2q, _exchange, _pair_views, simulate

from helpers import haar_unitary, random_statevector, ref_matrix_1q, spy_calls


def _entries(m: np.ndarray) -> tuple:
    return tuple(complex(x) for x in m.reshape(-1))


# A state of at most 256 amplitudes (n = 6) takes the matmul path on every
# wire.  On a larger one, wire 0, the last wire and a wire whose suffix
# blocks hold 16 amplitudes ("block16") take the elementwise path, and wire 1
# and a wire with 32-amplitude blocks ("block32") the matmul one.  A diagonal
# matrix (the "u1-" cases) scales the two halves on every wire.
KERNEL_1Q_CASES = [(t, m) for m in ("haar", "u1")
                   for t in ("low", "second", "block32", "block16", "high")]


@pytest.mark.parametrize("n", [6, 10, 11, 15])
@pytest.mark.parametrize("target,matrix", KERNEL_1Q_CASES, ids=[
    t if m == "haar" else f"{m}-{t}" for t, m in KERNEL_1Q_CASES])
def test_1q_kernel(benchmark, monkeypatch, n, target, matrix):
    q = {"low": 0, "second": 1, "block32": n - 6, "block16": n - 5,
         "high": n - 1}[target]
    rng = np.random.default_rng(n)
    m = (haar_unitary(rng) if matrix == "haar"
         else ref_matrix_1q(GateKind.U1, (0.7,)))
    state = random_statevector(rng, n)
    t = np.moveaxis(state.reshape([2] * n), q, 0)
    want = np.moveaxis(np.tensordot(m, t, axes=1), 0, q).reshape(-1)
    got = state.copy()
    with monkeypatch.context() as mp:
        mixed = spy_calls(mp, oracle, ("_mix",))  # none on the matmul path
        _apply_1q(got, _entries(m), q)
    if matrix == "u1":
        assert len(mixed) == 1  # never matmul: _mix scales the halves
    else:
        assert bool(mixed) == (n > 6 and target in {"low", "high", "block16"})
    assert np.allclose(got, want, atol=1e-12)
    benchmark(_apply_1q, state, _entries(m), q)


@pytest.mark.parametrize("n", [6, 15])
@pytest.mark.parametrize("target", ["low", "high"])
def test_controlled_x_kernel(benchmark, n, target):
    c, t = (1, 0) if target == "low" else (n - 2, n - 1)
    rng = np.random.default_rng(n)
    state = random_statevector(rng, n)
    i = np.arange(2 ** n)
    fires = (i >> (n - 1 - c)) & 1 == 1
    want = state[np.where(fires, i ^ (1 << (n - 1 - t)), i)]
    got = state.copy()
    _exchange(*_pair_views(got, n, False, (c, t), ()))
    assert np.array_equal(got, want)
    # simulate() builds the views once per call and gate key, then reuses them.
    benchmark(_exchange, *_pair_views(state, n, False, (c, t), ()))


# Pairs of axes for the 4x4 kernel: the two high wires, the two low ones,
# the first and the last, and a middle pair given low axis first (the kernel
# then exchanges the matrix's bits).
KERNEL_2Q_PAIRS = {"high": lambda n: (0, 1), "low": lambda n: (n - 2, n - 1),
                   "spread": lambda n: (0, n - 1),
                   "reversed": lambda n: (n - 2, 2)}


@pytest.mark.parametrize("n", [6, 10, 13, 16])
@pytest.mark.parametrize("pair", list(KERNEL_2Q_PAIRS))
def test_2q_kernel(benchmark, monkeypatch, n, pair):
    # One matmul of (rows, 4) by (4, 4) while the state has at most
    # 4 * _KERNEL_2Q_ROWS amplitudes (up to 14 wires); past that the rows are
    # batched, _KERNEL_2Q_ROWS per BLAS call, so that no one call is large
    # enough for BLAS to spread it over threads.
    i, j = KERNEL_2Q_PAIRS[pair](n)
    rng = np.random.default_rng(n)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = np.linalg.qr(z)[0]
    state = random_statevector(rng, n)
    t = np.tensordot(u.reshape(2, 2, 2, 2), state.reshape([2] * n),
                     axes=([2, 3], [i, j]))
    want = np.moveaxis(t, [0, 1], [i, j]).reshape(-1)
    got = state.copy()
    shapes = []
    matmul = np.matmul
    with monkeypatch.context() as mp:
        mp.setattr(np, "matmul", lambda a, b: (shapes.append(a.shape),
                                               matmul(a, b))[1])
        _apply_2q(got, u, i, j)
    rows = 1 << (n - 2)
    assert shapes == ([(rows, 4)] if rows <= oracle._KERNEL_2Q_ROWS else
                      [(rows // oracle._KERNEL_2Q_ROWS, oracle._KERNEL_2Q_ROWS, 4)])
    assert np.max(np.abs(got - want)) <= 1e-12
    benchmark(_apply_2q, state, u, i, j)


def _frame_reference(c: Circuit, state: np.ndarray) -> np.ndarray:
    """c applied to state by index permutation (cx) and tensordot (1q)."""
    n = c.n_qubits
    i = np.arange(2 ** n)
    for inst in c.instructions:
        if inst.kind is GateKind.CX:
            ctl, tgt = inst.qubits
            fires = (i >> (n - 1 - ctl)) & 1 == 1
            state = state[np.where(fires, i ^ (1 << (n - 1 - tgt)), i)]
        else:
            q = inst.qubits[0]
            t = np.moveaxis(state.reshape([2] * n), q, 0)
            m = ref_matrix_1q(inst.kind, inst.params)
            state = np.moveaxis(np.tensordot(m, t, axes=1), 0, q).reshape(-1)
    return state


def _frame_circuit(n: int) -> Circuit:
    """A 3n-CX ladder over wires 0..n-2, then h on wire n-1, applied at the
    end where it is still its own stored axis, and u1 on wire n-2, a parity
    of several stored bits; then h on wire 0, which the next CX brings the
    state up to date for by one gather, and u1 on wire 1 after that CX (a
    second gather at the end)."""
    c = Circuit(n)
    for i in range(3 * n):
        c.cx(i % (n - 2), i % (n - 2) + 1)
    c.h(n - 1)
    c.u1(0.7, n - 2)
    c.h(0)
    c.cx(0, 1)
    c.u1(0.3, 1)
    return c


@pytest.mark.parametrize("n", [6, 15])
def test_cx_frame(benchmark, monkeypatch, n):
    c = _frame_circuit(n)
    init = random_statevector(np.random.default_rng(n), n)
    want = _frame_reference(c, init)
    with monkeypatch.context() as mp:
        calls = spy_calls(mp, oracle, ("_gather_index", "_exchange"))
        got = simulate(c, initial_state=init)
    assert calls == ["_gather_index", "_gather_index"]
    assert np.max(np.abs(got - want)) <= 1e-12
    benchmark(simulate, c, initial_state=init)


@pytest.mark.parametrize("n", [6, 10, 15])
@pytest.mark.parametrize("length", [1, 2, 4])
def test_frame_sync(benchmark, monkeypatch, n, length):
    # A short queue, cx(0, 1) cx(1, 2)..., then h on wire 1, whose row is the
    # parity of stored bits 0 and 1: the frame syncs by one gather before the
    # h is applied.  A gate-by-gate replay of short queues would have to beat
    # these times.
    c = Circuit(n)
    for i in range(length):
        c.cx(i, i + 1)
    c.h(1)
    init = random_statevector(np.random.default_rng(n), n)
    want = _frame_reference(c, init)
    with monkeypatch.context() as mp:
        calls = spy_calls(mp, oracle, ("_gather_index", "_exchange"))
        got = simulate(c, initial_state=init)
    assert calls == ["_gather_index"]
    assert np.max(np.abs(got - want)) <= 1e-12
    benchmark(simulate, c, initial_state=init)
