"""Golden byte-identity check of the compiler's output.

One SHA-256 pins `emit_program(pipeline(...))` over the six suite circuits
(unrouted and on line15, plus bv12 on grid4x5) and over a fixed seeded
random corpus (unrouted, on line5, and on a 2x3 grid with a random layout),
each under the baseline and the rpo configuration.  A change that is meant
to leave the output alone must leave this digest alone.

A change that does alter the output updates `GOLDEN_SHA256` and says in
CHANGES.md which operations changed and why.  To name them, list every
(job, config) with a short SHA-256 of its output and its counts on both
trees and diff the two listings:

    PYTHONPATH=src python tests/test_golden.py > golden.txt

With `--bench`, the listing covers every operation of the benchmark's
routed, unrouted and fuzz workloads at seeds 1-3 instead (2,778 lines; the
short SHA-256 is of the emitted text plus the layout), built by
perfbench/workloads.py, which it imports without changing:

    PYTHONPATH=src python tests/test_golden.py --bench > bench.txt

With `--verify`, the listing covers the same operations but gives the
oracle's verdict on each instead (`equivalent_up_to_global_phase(src, out,
perm=out.layout)`, as the benchmark checks it) with the fidelity, or for
measured circuits the outcome distributions' total variation distance, to 10
decimal places.  A change to the oracle alone must leave it unchanged:

    PYTHONPATH=src python tests/test_golden.py --verify > verify.txt

Block resynthesis (`enable_block_resynth`) is left out: its SVD makes the
bytes depend on the BLAS kernel.
"""
import hashlib
import random
import sys
from pathlib import Path

from rpoc import (PipelineOptions, count_1q, cx_count, depth, emit_program,
                  gen_bv, gen_grover, gen_qpe, gen_qv_like, gen_vqe_ry,
                  grid_coupling, line_coupling, parse_program, pipeline)
from rpoc.oracle import WidthError, equivalent_up_to_global_phase

from helpers import random_circuit

GOLDEN_SHA256 = ("03c9581665a42e5a124b3f535cc25beb"
                 "1ecf68012c98cae8c1e726d08cdbc25c")

SUITE = {
    "bv12": lambda: gen_bv(12, "101101001101"),
    "qpe10": lambda: gen_qpe(10, 357 / 2 ** 10),
    "grover6": lambda: gen_grover(6, 37, 6),
    "grover5_anc": lambda: gen_grover(5, 19, 4, use_ancilla=True,
                                      annotate=True),
    "vqe_ry12": lambda: gen_vqe_ry(12, 2, [0.1 * k for k in range(36)]),
    "qv_like10": lambda: gen_qv_like(10, 10, 7),
}
CONFIGS = {"baseline": dict(enable_qbo=False, enable_qpo=False), "rpo": {}}


def _jobs():
    """(name, circuit, PipelineOptions keywords) of every compiled job."""
    line15, grid4x5 = line_coupling(15), grid_coupling(4, 5)
    for name, make in SUITE.items():
        yield name, make(), dict(seed=1)
        yield name + "_line15", make(), dict(coupling=line15, seed=1)
    yield "bv12_grid4x5", SUITE["bv12"](), dict(coupling=grid4x5, seed=1)
    rng = random.Random(20201019)
    line5, grid2x3 = line_coupling(5), grid_coupling(2, 3)
    for i in range(60):
        c = random_circuit(rng, rng.randrange(2, 6), rng.randrange(5, 40),
                           allow_reset=True)
        yield f"rand{i:02d}", c, dict(seed=i)
        yield f"rand{i:02d}_line5", c, dict(coupling=line5, seed=i)
        yield f"rand{i:02d}_grid2x3", c, dict(coupling=grid2x3, seed=i,
                                               random_layout=True)


def _outputs():
    """("job/config", compiled circuit, its emitted text) of every job under
    every config, in digest order."""
    for name, c, kwargs in _jobs():
        for config, flags in CONFIGS.items():
            out = pipeline(c, PipelineOptions(**kwargs, **flags))
            yield f"{name}/{config}", out, emit_program(out)


def _bench_outputs():
    """("workload:seed/job/config", source, compiled circuit, its emitted
    text and layout) of every operation of the benchmark's routed, unrouted
    and fuzz workloads at seeds 1-3, each compiled as the benchmark does: a
    fuzz job from its text, parsed once per operation."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    import workloads
    for workload in ("routed", "unrouted", "fuzz"):
        for seed in (1, 2, 3):
            for job in workloads.build(workload, seed):
                for cfg in job.configs:
                    src = (job.source if job.text is None
                           else parse_program(job.text))
                    out = pipeline(src, cfg.opts)
                    yield (f"{workload}:{seed}/{job.cid}/{cfg.name}", src,
                           out, f"{emit_program(out)}layout={out.layout}\n")


def _verdict(src, out) -> str:
    """The oracle's verdict on out against src, with its fidelity or total
    variation distance; a WidthError (too wide for the oracle) is
    "unverified" and any other error "failed", as in `rpoc bench`."""
    try:
        rep = equivalent_up_to_global_phase(src, out, perm=out.layout)
    except ValueError as e:
        wide = isinstance(e, WidthError)
        return f"{'unverified' if wide else 'failed'} {type(e).__name__}: {e}"
    verdict = "ok" if rep.equivalent else "failed"
    if rep.detail.startswith("total variation"):
        return f"{verdict} tvd={1.0 - rep.fidelity:.10f}"
    return f"{verdict} fidelity={rep.fidelity:.10f}"


def golden_digest() -> str:
    h = hashlib.sha256()
    for label, _, text in _outputs():
        h.update(f"{label}\n".encode())
        h.update(text.encode())
    return h.hexdigest()


def test_golden_output_digest():
    assert golden_digest() == GOLDEN_SHA256


if __name__ == "__main__":
    if sys.argv[1:] == ["--verify"]:
        for label, src, out, _ in _bench_outputs():
            print(label, _verdict(src, out))
        sys.exit()
    for label, *_, out, text in (_bench_outputs() if sys.argv[1:] == ["--bench"]
                                 else _outputs()):
        sha = hashlib.sha256(text.encode()).hexdigest()[:12]
        print(f"{label} {sha} cx={cx_count(out)} u1q={count_1q(out)} "
              f"depth={depth(out)}")
