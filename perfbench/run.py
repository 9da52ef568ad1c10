#!/usr/bin/env python3
"""End-to-end and per-stage benchmark of the rpoc compiler and its oracle.

    python3 perfbench/run.py --workload {routed,unrouted,fuzz} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; it imports rpoc from ./src and nothing else.
One single-threaded process (BLAS threads pinned to 1) generates the
workload from the seed (workloads.py), then runs closed-loop sweeps: every
job x config, one operation after the other, until the next sweep would
overrun --seconds.  An operation compiles with pipeline() (fuzz:
parse_program -> pipeline() -> emit_program) and checks the output against
its source with equivalent_up_to_global_phase(src, out, perm=out.layout).
Outputs too wide for the oracle are counted as unverified, never skipped.
harness.py defines the metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 1 on any correctness failure, 2 when the sources
cannot be found.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("routed", "unrouted", "fuzz"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    if not (SRC / "rpoc" / "__init__.py").is_file():
        print(f"error: no rpoc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rpoc
    if Path(rpoc.__file__).resolve().parent != SRC / "rpoc":
        print(f"error: rpoc imported from {rpoc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    return harness.main(args, SRC, BLAS_ENV, time.perf_counter() - T_START)


if __name__ == "__main__":
    sys.exit(main())
