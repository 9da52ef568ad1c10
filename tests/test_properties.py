"""Property tests of `pipeline()` over random circuits and coupling maps.

Each example compiles one random circuit (every gate kind, open controls,
annotations, resets, optionally measured) under the baseline, the
optimizing pipeline or the optimizing pipeline with block resynthesis,
unrouted or on a random connected map of at most 6 nodes, half the time
from a random layout.  The profile is derandomized, so a run is
reproducible and a failure shrinks to the same case every time.
"""
import random

from hypothesis import given, settings, strategies as st

from rpoc import (CouplingMap, PipelineOptions, emit_program, parse_program,
                  pipeline)
from rpoc.oracle import equivalent_up_to_global_phase

from helpers import random_full_circuit

CONFIGS = {
    "baseline": dict(enable_qbo=False, enable_qpo=False),
    "rpo": {},
    "blocks": dict(enable_block_resynth=True),
}


@st.composite
def coupling_maps(draw, n: int) -> CouplingMap:
    """A connected map on n..6 nodes: a random tree plus a few more edges."""
    m = draw(st.integers(n, 6))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, m)}
    extra = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                    st.integers(0, m - 1)), max_size=m))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    return CouplingMap(m, sorted(edges))


@st.composite
def jobs(draw):
    """(source circuit, PipelineOptions) of one compilation."""
    n = draw(st.integers(1, 5))
    src = random_full_circuit(random.Random(draw(st.integers(0, 2 ** 32))), n,
                              draw(st.integers(0, 25)),
                              measure=draw(st.booleans()))
    cmap = draw(st.none() | coupling_maps(n))
    opts = PipelineOptions(
        coupling=cmap, seed=draw(st.integers(0, 2 ** 16)),
        random_layout=cmap is not None and draw(st.booleans()),
        **CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))])
    return src, opts


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(jobs())
def test_pipeline_properties(job):
    src, opts = job
    out = pipeline(src, opts)
    text = emit_program(out)
    # The output acts as the source does, through its layout.
    assert equivalent_up_to_global_phase(src, out, perm=out.layout).equivalent
    # A second compile emits the same bytes.
    assert emit_program(pipeline(src, opts)) == text
    # The text round-trips, layout included.
    back = parse_program(text)
    assert back == out and back.layout == out.layout
    # A routed layout places the source's wires on distinct map nodes.
    if opts.coupling is None:
        assert out.layout is None
    else:
        layout = out.layout
        assert len(layout) == src.n_qubits == len(set(layout))
        assert all(0 <= p < opts.coupling.n_physical for p in layout)
