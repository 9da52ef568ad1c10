"""Microbenchmarks of the oracle's gate kernels (pytest-benchmark).

`addopts` in pyproject.toml disables timing, so a plain test run calls each
kernel once and checks its result.  To time them:

    pytest tests/test_oracle_kernels.py --benchmark-enable
"""
import numpy as np
import pytest

from rpoc.oracle import _apply_1q, _apply_controlled_x

from helpers import haar_unitary, random_statevector


# Wire 0 and the last wire take the elementwise path, wire 1 the matmul one.
@pytest.mark.parametrize("n", [6, 15])
@pytest.mark.parametrize("target", ["low", "second", "high"])
def test_1q_kernel(benchmark, n, target):
    q = {"low": 0, "second": 1, "high": n - 1}[target]
    rng = np.random.default_rng(n)
    m = haar_unitary(rng)
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
    _apply_controlled_x(got, (c,), (False,), t, n)
    assert np.array_equal(got, want)
    benchmark(_apply_controlled_x, state, (c,), (False,), t, n)
