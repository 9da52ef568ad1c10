"""Property tests of `pipeline()` over random circuits and coupling maps.

Each example compiles one `helpers.random_circuits` source (every gate kind,
open controls, annotations, resets, measured or not, up to 6 wires) under
the baseline, the optimizing pipeline or the optimizing pipeline with block
resynthesis, unrouted or on a random connected map of at most 6 nodes, half
the time from a random layout, and compiles its output again, unrouted or
on another map.  Explicit examples add the cleanup inputs of
`helpers.JOINED_IDENTITY_RUNS` and `nested_cx_pairs`.  The profile is
derandomized, so a run is reproducible and a failure shrinks to the same
case every time.  This is the one place these output properties are checked
on random circuits; a new property or input class goes here, not into a new
seeded loop.
"""
from hypothesis import example, given, settings, strategies as st

from rpoc import (CouplingMap, GateKind, PipelineOptions, depth, emit_program,
                  parse_program, pipeline)
from rpoc.oracle import equivalent_up_to_global_phase
from rpoc.synth import DEFAULT_BASIS, cancel_adjacent_cx, merge_1q_runs

from helpers import JOINED_IDENTITY_RUNS, nested_cx_pairs, random_circuits

# In the order Hypothesis favours: rpo, which most rules act in, first.
CONFIGS = {
    "rpo": {},
    "blocks": dict(enable_block_resynth=True),
    "baseline": dict(enable_qbo=False, enable_qpo=False),
}
# The basis and the non-unitary kinds, which pass through every stage.
OUTPUT_KINDS = DEFAULT_BASIS | {GateKind.RESET, GateKind.ANNOT,
                                GateKind.MEASURE, GateKind.BARRIER}


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
    """(source circuit, PipelineOptions) of one compilation, and the map
    its output is compiled again on, or None to compile it unrouted."""
    src = draw(random_circuits())
    cmap = draw(st.none() | coupling_maps(src.n_qubits))
    opts = PipelineOptions(
        coupling=cmap, seed=draw(st.integers(0, 2 ** 16)),
        random_layout=cmap is not None and draw(st.booleans()),
        **CONFIGS[draw(st.sampled_from(list(CONFIGS)))])
    width = src.n_qubits if cmap is None else cmap.n_physical
    return src, opts, draw(st.none() | coupling_maps(width))


def cleanup_examples(test):
    """Also run the baseline, whose cleanup meets its input with no rewrite
    in front, where a cancelled CX pair joins a 1q run that fuses to the
    identity and the CX around that run must cancel too."""
    for src in (*JOINED_IDENTITY_RUNS, nested_cx_pairs()):
        test = example((src, PipelineOptions(**CONFIGS["baseline"]), None))(
            test)
    return test


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(jobs())
@cleanup_examples
def test_pipeline_properties(job):
    src, opts, again_on = job
    out = pipeline(src, opts)
    text = emit_program(out)
    # The output acts as the source does, through its layout.
    assert equivalent_up_to_global_phase(src, out, perm=out.layout).equivalent
    # A second compile emits the same bytes.
    assert emit_program(pipeline(src, opts)) == text
    # Only basis and non-unitary kinds are left, and the cleanup has
    # nothing left to merge or cancel.
    assert {i.kind for i in out.instructions} <= OUTPUT_KINDS
    assert cancel_adjacent_cx(merge_1q_runs(out)).instructions == (
        out.instructions)
    # Source and output texts round-trip, layout included, and emitting
    # the parsed text gives it back; no chain is longer than the circuit.
    for c in (src, out):
        t = emit_program(c)
        back = parse_program(t)
        assert back == c and back.layout == c.layout
        assert emit_program(back) == t
        assert depth(c) <= len(c.instructions)
    # A routed layout places the source's wires on distinct map nodes, and
    # every two-qubit gate acts on a map edge.
    if opts.coupling is None:
        assert out.layout is None
    else:
        layout = out.layout
        assert len(layout) == src.n_qubits == len(set(layout))
        assert all(0 <= p < opts.coupling.n_physical for p in layout)
        assert all(opts.coupling.adjacent(*i.qubits) for i in out.instructions
                   if len(i.qubits) == 2 and i.kind is not GateKind.BARRIER)
    # Compiled again, unrouted or routed, the output still holds the
    # source's wires where its layout says.
    again = pipeline(out, opts._replace(coupling=again_on))
    assert equivalent_up_to_global_phase(src, again,
                                         perm=again.layout).equivalent
