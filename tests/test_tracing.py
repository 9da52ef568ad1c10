"""The benchmark's stage-by-stage replay of pipeline() (perfbench/tracing.py)
must emit what pipeline() emits, or its per-stage numbers describe another
program."""
import random
import sys
from pathlib import Path

import pytest

from rpoc import (PipelineOptions, emit_program, equivalent_up_to_global_phase,
                  gen_bv, gen_grover, gen_qpe, line_coupling, parse_program,
                  pipeline)

from helpers import random_circuit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

CONFIGS = {
    "baseline": dict(enable_qbo=False, enable_qpo=False),
    "rpo": dict(),
    "blocks": dict(enable_block_resynth=True),
}


# Sources with a SWAP, SWAPZ or CSWAP on entangled wires.  Unrouted, the
# first two still hold a SWAP or SWAPZ after qbo, so pipeline() runs its SWAP
# stages; the first one's second SWAP has an operand in a known state off the
# basis rays, which only qpo reduces.  The third holds none.
SWAP_SOURCES = [
    "qreg q[4]; h q[0]; cx q[0],q[1]; swap q[1],q[2]; u3(0.3,0.2,0.1) q[3];"
    " swap q[2],q[3]; cx q[3],q[0];",
    "qreg q[3]; h q[0]; cx q[0],q[1]; swapz q[1],q[2]; h q[2]; cx q[2],q[0];",
    "qreg q[3]; h q[0]; cx q[0],q[1]; h q[2]; cswap q[1],q[0],q[2];"
    " cx q[2],q[1];",
]


def _circuits():
    rng = random.Random(21)
    return [gen_bv(4, "1011", "boolean"), gen_qpe(3, 7 / 8),
            gen_grover(4, 11, 1, use_ancilla=True, annotate=True),
            random_circuit(rng, 4, 30), random_circuit(rng, 5, 40),
            *map(parse_program, SWAP_SOURCES)]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("routed", [False, True])
def test_replay_matches_pipeline(config, routed):
    for i, c in enumerate(_circuits()):
        opts = PipelineOptions(coupling=line_coupling(5) if routed else None,
                               seed=i, **CONFIGS[config])
        want = pipeline(c, opts)
        got, _, _ = tracing.traced_pipeline(tracing.Tracer(), f"c{i}", c, opts)
        assert emit_program(got) == emit_program(want)
        assert got.layout == want.layout


def test_instrument_spans_the_helpers_it_patches():
    # The benchmark's traced mode patches rpoc.passes.simulate,
    # rpoc.passes.prepare_two_qubit_state and rpoc.oracle.simulate by name:
    # each must still exist and be called where the span says.
    tr = tracing.Tracer()
    circuits = _circuits()
    with tracing.instrument(tr, {id(c) for c in circuits}):
        for i, c in enumerate(circuits):
            for cmap in (None, line_coupling(5)):
                opts = PipelineOptions(coupling=cmap, seed=i,
                                       enable_block_resynth=True)
                out, _, _ = tracing.traced_pipeline(tr, f"c{i}", c, opts)
                assert equivalent_up_to_global_phase(
                    c, out, perm=out.layout).equivalent, (i, cmap)
    names = {span[1] for span in tr.spans}
    assert {"passes.qpo.blocks_resynth.simulate",
            "passes.qpo.blocks_resynth.prepare", "oracle.simulate_src",
            "oracle.simulate_out"} <= names, names
