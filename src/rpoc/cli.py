"""Command-line interface.

Subcommands: optimize, verify, bench, stats.  Exit codes: 0 success,
1 verification failure, 2 input error.  Only verify, bench and optimize
--blocks load numpy.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter

from .bench import ALGORITHMS
from .circuit import (ParseError, VerificationError, count_1q, cx_count, depth,
                      emit_program, parse_program)
from .passes import PipelineOptions, pipeline, resolve_coupling


def _read_circuit(path: str):
    with open(path) as f:
        return parse_program(f.read())


def _cmd_optimize(args) -> int:
    circ = _read_circuit(args.input)
    opts = PipelineOptions(
        coupling=resolve_coupling(args.coupling),
        seed=args.seed,
        enable_qbo=not args.no_qbo,
        enable_qpo=not args.no_qpo,
        enable_block_resynth=args.blocks,
    )
    out = pipeline(circ, opts)
    text = emit_program(out)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output}: cx={cx_count(out)} 1q={count_1q(out)} "
              f"depth={depth(out)} (unverified)", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from .oracle import equivalent_up_to_global_phase
    a = _read_circuit(args.a)
    b = _read_circuit(args.b)
    # A routed `optimize` output carries its layout: compare the other file
    # against it through that permutation, whichever order they come in.
    # Two routed outputs are compared from the narrower one.
    if a.layout is not None and (b.layout is None or a.n_qubits > b.n_qubits):
        a, b = b, a
    perm = b.layout if a.layout is None else _layout_perm(a, b)
    report = equivalent_up_to_global_phase(a, b, tol=args.tol, perm=perm)
    verdict = "EQUIVALENT" if report.equivalent else "NOT EQUIVALENT"
    print(f"{verdict}: {report.detail}")
    return 0 if report.equivalent else 1


def _layout_perm(a, b) -> list[int]:
    """The wire map from a to b when both are routed outputs of one source:
    a's wire a.layout[i] holds the same source wire i as b's wire
    b.layout[i], and the wires neither layout lists map in order; a is no
    wider than b."""
    if len(a.layout) != len(b.layout):
        raise ValueError(f"layouts of {len(a.layout)} and {len(b.layout)} "
                         "wires do not fit")
    perm = [-1] * a.n_qubits
    for p, q in zip(a.layout, b.layout):
        perm[p] = q
    listed = set(b.layout)
    rest = iter([w for w in range(b.n_qubits) if w not in listed])
    return [next(rest) if w < 0 else w for w in perm]


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        if int(hi) < int(lo):
            raise ValueError(f"empty size range {text}")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def _cmd_bench(args) -> int:
    from .bench import BenchSpec, median_summary, rows_to_csv, run_bench
    rows = []
    for n in _parse_range(args.n):
        spec = BenchSpec(algorithm=args.alg, n=n, reps=args.reps,
                         coupling=args.coupling, seed=args.seed)
        rows.extend(run_bench(spec, verify=not args.no_verify))
    csv_text = rows_to_csv(rows)
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(csv_text)
        print(f"wrote {args.csv} ({len(rows)} rows)", file=sys.stderr)
    else:
        sys.stdout.write(csv_text)
    print(f"{'benchmark':<10}{'n':>4}{'pipeline':>10}{'cx':>8}{'u1q':>8}"
          f"{'depth':>8}{'ms':>10}  reduction", file=sys.stderr)
    for s in median_summary(rows):
        red = s.get("cx_reduction_pct")
        red_s = f"{red:8.1f}%" if red is not None else ""
        print(f"{s['benchmark']:<10}{s['n']:>4}{s['pipeline']:>10}{s['cx']:>8}"
              f"{s['u1q']:>8}{s['depth']:>8}{s['ms']:>10.1f}  {red_s}",
              file=sys.stderr)
    unverified = sum(not r.verified for r in rows)
    if unverified:
        print(f"{unverified} of {len(rows)} rows unverified (verified=0)",
              file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    c = _read_circuit(args.input)
    counts = Counter(inst.kind.value for inst in c.instructions)
    print(f"qubits:  {c.n_qubits}")
    print(f"clbits:  {c.n_clbits}")
    print(f"gates:   {len(c.instructions)}")
    print(f"cx:      {cx_count(c)}")
    print(f"1q:      {count_1q(c)}")
    print(f"depth:   {depth(c)}")
    for kind, cnt in sorted(counts.items()):
        print(f"  {kind:<8} {cnt}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rpoc",
                                description="quantum circuit optimizer")
    sub = p.add_subparsers(dest="command", required=True)

    po = sub.add_parser("optimize", help="optimize a circuit file")
    po.add_argument("input")
    po.add_argument("--coupling", help="coupling map name or JSON path")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--no-qbo", action="store_true")
    po.add_argument("--no-qpo", action="store_true")
    po.add_argument("--blocks", action="store_true",
                    help="enable two-qubit block re-synthesis")
    po.add_argument("-o", "--output")
    po.set_defaults(fn=_cmd_optimize)

    pv = sub.add_parser("verify", help="check two circuits for equivalence")
    pv.add_argument("a")
    pv.add_argument("b")
    pv.add_argument("--tol", type=float, default=1e-9)
    pv.set_defaults(fn=_cmd_verify)

    pb = sub.add_parser("bench", help="run a benchmark sweep")
    pb.add_argument("--alg", required=True, choices=list(ALGORITHMS))
    pb.add_argument("--n", required=True, help="size or range, e.g. 4 or 4..10")
    pb.add_argument("--coupling")
    pb.add_argument("--reps", type=int, default=25)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--csv", help="write raw rows to this file")
    pb.add_argument("--no-verify", action="store_true")
    pb.set_defaults(fn=_cmd_bench)

    ps = sub.add_parser("stats", help="print gate counts and depth")
    ps.add_argument("input")
    ps.set_defaults(fn=_cmd_stats)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        print("--- original ---", file=sys.stderr)
        print(e.original_text, file=sys.stderr)
        print("--- optimized ---", file=sys.stderr)
        print(e.optimized_text, file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
