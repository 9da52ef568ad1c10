"""Microbenchmarks of the oracle's gate kernels (pytest-benchmark).

`addopts` in pyproject.toml disables timing, so a plain test run calls each
kernel once and checks its result.  To time them:

    pytest tests/test_oracle_kernels.py --benchmark-enable
"""
import numpy as np
import pytest

from rpoc.circuit import GateKind
from rpoc.oracle import _apply_1q, _exchange, _pair_views
from rpoc.synth import matrix_1q

from helpers import haar_unitary, random_statevector


# Wire 0 and the last wire take the elementwise path, wire 1 the matmul one
# unless the matrix is diagonal (the "u1-" cases).
KERNEL_1Q_CASES = [(t, m) for m in ("haar", "u1")
                   for t in ("low", "second", "high")]


@pytest.mark.parametrize("n", [6, 15])
@pytest.mark.parametrize("target,matrix", KERNEL_1Q_CASES, ids=[
    t if m == "haar" else f"{m}-{t}" for t, m in KERNEL_1Q_CASES])
def test_1q_kernel(benchmark, n, target, matrix):
    q = {"low": 0, "second": 1, "high": n - 1}[target]
    rng = np.random.default_rng(n)
    m = haar_unitary(rng) if matrix == "haar" else matrix_1q(GateKind.U1, (0.7,))
    state = random_statevector(rng, n)
    t = np.moveaxis(state.reshape([2] * n), q, 0)
    want = np.moveaxis(np.tensordot(m, t, axes=1), 0, q).reshape(-1)
    got = state.copy()
    _apply_1q(got, m, q)
    assert np.allclose(got, want, atol=1e-12)
    benchmark(_apply_1q, state, m, q)


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
