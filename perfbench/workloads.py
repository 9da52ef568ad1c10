"""Seeded workload generation and analytic checks of the generated sources.

A workload is a list of jobs.  A job is one source circuit plus the pipeline
configurations it is compiled under; every job x config pair is one
compile-plus-verify operation, and one pass over all of them is a sweep.

- routed: the ROADMAP suite (bv12, qpe10, grover6, grover5 with annotated
  ancillas, vqe_ry12, qv_like10) on line15, plus bv12 on grid4x5.
- unrouted: the same six circuits with no coupling map.
- fuzz: a few hundred small seeded circuits (see corpus.py), kept as text so
  every operation runs parse_program -> pipeline() -> emit_program.

The seed picks hidden strings, marked elements, phases, angles and the fuzz
corpus; the circuit families and sizes are fixed, so the amount of work per
sweep stays close across seeds.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from rpoc.bench import (gen_bv, gen_grover, gen_qpe, gen_qv_like, gen_vqe_ry,
                        grover_success_probability)
from rpoc.circuit import Circuit, parse_program
from rpoc.oracle import simulate
from rpoc.passes import CouplingMap, PipelineOptions, grid_coupling, line_coupling

import corpus

# Probability tolerance of the analytic checks.
PROB_TOL = 1e-9


@dataclass
class Config:
    name: str
    opts: PipelineOptions


@dataclass
class Job:
    cid: str
    source: Circuit | None  # fuzz: parsed from text by every operation
    configs: list[Config]
    text: str | None = None      # fuzz: compiled from text, emitted to text
    expect: tuple | None = None  # analytic answer: (clbit key, probability)


def _configs(cmap: CouplingMap | None, seed: int, blocks: bool = False,
             random_layout: bool = False) -> list[Config]:
    def opts(on: bool, resynth: bool = False) -> PipelineOptions:
        return PipelineOptions(coupling=cmap, seed=seed, enable_qbo=on,
                               enable_qpo=on, enable_block_resynth=resynth,
                               random_layout=random_layout)
    out = [Config("baseline", opts(False)), Config("rpo", opts(True))]
    if blocks:
        out.append(Config("rpo_blocks", opts(True, True)))
    return out


def roadmap_suite(rng: random.Random) -> list[tuple[str, Circuit, tuple | None]]:
    """The six suite circuits with their analytic answers, drawn from rng."""
    ones = rng.sample(range(12), 6)
    s = "".join("1" if i in ones else "0" for i in range(12))
    m = rng.randrange(1, 2 ** 10)
    marked6 = rng.randrange(2 ** 6)
    marked5 = rng.randrange(2 ** 5)
    vqe_params = [rng.uniform(0.0, 2 * math.pi) for _ in range(12 * 3)]
    qv_seed = rng.randrange(2 ** 31)

    it6 = max(1, round(math.pi / 4 * math.sqrt(2 ** 6)))
    it5 = max(1, round(math.pi / 4 * math.sqrt(2 ** 5)))
    return [
        ("bv12", gen_bv(12, s), (s, 1.0)),
        ("qpe10", gen_qpe(10, m / 2 ** 10), (format(m, "010b"), 1.0)),
        ("grover6", gen_grover(6, marked6, it6),
         (format(marked6, "06b"), grover_success_probability(6, it6))),
        ("grover5_anc", gen_grover(5, marked5, it5, use_ancilla=True,
                                   annotate=True),
         (format(marked5, "05b"), grover_success_probability(5, it5))),
        ("vqe_ry12", gen_vqe_ry(12, 2, vqe_params), None),
        ("qv_like10", gen_qv_like(10, 10, qv_seed), None),
    ]


def build(workload: str, seed: int) -> list[Job]:
    """Generate every job of a workload from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fuzz":
        jobs = []
        for i, (text, cmap, pseed) in enumerate(corpus.build_corpus(rng)):
            jobs.append(Job(f"fuzz{i:03d}", None, _configs(
                cmap, pseed, blocks=True, random_layout=cmap is not None),
                text=text))
        return jobs
    if workload not in ("routed", "unrouted"):
        raise ValueError(f"unknown workload {workload!r}")
    suite = roadmap_suite(rng)
    pseed = rng.randrange(2 ** 31)
    cmap = line_coupling(15) if workload == "routed" else None
    jobs = [Job(name, circ, _configs(cmap, pseed), expect=expect)
            for name, circ, expect in suite]
    if workload == "routed":
        name, circ, expect = suite[0]
        jobs.append(Job(name + "_grid4x5", circ,
                        _configs(grid_coupling(4, 5), pseed), expect=expect))
    return jobs


def build_warmup() -> Job:
    """A tiny job run once, untimed, under every fuzz config."""
    return Job("warmup", None, _configs(None, 0, blocks=True),
               text=corpus.ITEM4_REPRO)


def check_sources(jobs: list[Job]) -> list[str]:
    """Simulate every generated source; compare it with its analytic answer.

    Returns one message per failure.  Sources without an analytic answer
    (vqe_ry, qv_like, the fuzz corpus) must still simulate: that checks the
    annotations and resets the generator placed.
    """
    errors = []
    seen: set[int] = set()
    for job in jobs:
        src = job.source if job.text is None else parse_program(job.text)
        if id(src) in seen:
            continue
        seen.add(id(src))
        try:
            res = simulate(src)
        except ValueError as e:
            errors.append(f"{job.cid}: source does not simulate: {e}")
            continue
        if job.expect is not None:
            key, prob = job.expect
            got = res.get(key, 0.0) if isinstance(res, dict) else None
            if got is None or abs(got - prob) > PROB_TOL:
                errors.append(f"{job.cid}: P({key}) = {got}, expected {prob}")
    return errors
