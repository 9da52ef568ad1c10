"""Microbenchmarks of the state-tracking passes (pytest-benchmark).

`addopts` in pyproject.toml disables timing, so a plain test run calls each
pass once and checks its output CX count.  To time the tracker:

    pytest tests/test_pass_bench.py --benchmark-enable
"""
import functools

import pytest

from rpoc import cx_count, equivalent_up_to_global_phase, gen_qpe, gen_vqe_ry
from rpoc import qbo, qpo, unroll

CIRCUITS = {
    "qpe10": lambda: gen_qpe(10, 357 / 2 ** 10),
    "vqe_ry12": lambda: gen_vqe_ry(12, 2, [0.1 * k for k in range(36)]),
}
PASSES = {
    "qbo": qbo,
    "qpo": qpo,
    "qpo_blocks": functools.partial(qpo, resynth_blocks=True),
}
# Output CX of each pass on the unrolled circuit (110 and 22 CX in).
CX_OUT = {
    ("qpe10", "qbo"): 110, ("qpe10", "qpo"): 110, ("qpe10", "qpo_blocks"): 0,
    ("vqe_ry12", "qbo"): 21, ("vqe_ry12", "qpo"): 22,
    ("vqe_ry12", "qpo_blocks"): 22,
}


@pytest.mark.parametrize("pass_name", list(PASSES))
@pytest.mark.parametrize("circuit", list(CIRCUITS))
def test_pass(benchmark, circuit, pass_name):
    c = unroll(CIRCUITS[circuit]())
    out = PASSES[pass_name](c)
    assert cx_count(out) == CX_OUT[(circuit, pass_name)]
    assert equivalent_up_to_global_phase(c, out).equivalent
    benchmark(PASSES[pass_name], c)
