"""Exit codes of the command-line interface: 0 success, 1 verification
failure, 2 input error."""
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rpoc
from rpoc.bench import (ALGORITHMS, CSV_HEADER, BenchSpec, build_circuit,
                        gen_qpe)
from rpoc.circuit import GateKind, Instruction, emit_program, parse_program
from rpoc.cli import main
from rpoc.oracle import equivalent_up_to_global_phase, simulate
from rpoc.passes import PipelineOptions, line_coupling, pipeline

BELL = "qreg q[2];\nh q[0];\ncx q[0],q[1];\n"
PRODUCT = "qreg q[2];\nh q[0];\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_optimize_verify_stats_succeed(files, capsys):
    src = files("bell.qasm", BELL)
    out = files("out.qasm", "")
    assert main(["optimize", src, "-o", out]) == 0
    assert main(["verify", src, out]) == 0
    assert main(["stats", src]) == 0
    assert "cx:      1" in capsys.readouterr().out


def test_optimize_counts_are_labelled_unverified(files, capsys):
    src = files("bell.qasm", BELL)
    out = files("out.qasm", "")
    assert main(["optimize", src, "-o", out]) == 0
    assert capsys.readouterr().err == (
        f"wrote {out}: cx=1 1q=1 depth=2 (unverified)\n")


def test_optimize_writes_to_stdout(files, capsys):
    assert main(["optimize", files("bell.qasm", BELL), "--coupling",
                 "line5"]) == 0
    out = capsys.readouterr()
    src = parse_program(BELL)
    assert out.err == ""
    assert out.out == emit_program(
        pipeline(src, PipelineOptions(coupling=line_coupling(5))))
    got = parse_program(out.out)
    assert equivalent_up_to_global_phase(src, got, perm=got.layout).equivalent


def test_verify_inequivalent_exits_1(files, capsys):
    assert main(["verify", files("a.qasm", BELL),
                 files("b.qasm", PRODUCT)]) == 1
    assert "NOT EQUIVALENT" in capsys.readouterr().out


@pytest.mark.parametrize("cmap", [
    '{"n": 0, "edges": []}',
    '{"edges": [[0,1]]}',
    '[[0,1]]',
    '{"n": 3, "edges": [1, 2]}',
])
def test_bad_coupling_file_exits_2(files, capsys, cmap):
    src = files("bell.qasm", BELL)
    assert main(["optimize", src, "--coupling", files("map.json", cmap)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("edges", [
    "[[0, 1.7], [1, 2]]",     # a float id is not truncated onto edge 0-1
    "[[0, true], [1, 2]]",    # nor is a bool taken for 1
    "[[0, 1], [1, 2], [2]]",  # an edge that is not a pair
])
def test_coupling_ids_must_be_integer_pairs(files, capsys, edges):
    src = files("bell.qasm", BELL)
    cmap = files("map.json", f'{{"n": 3, "edges": {edges}}}')
    assert main(["optimize", src, "--coupling", cmap]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(
        'error: coupling map must be {"n": N, "edges": [[a, b], ...]} (')
    assert out.out == ""


def test_blocks_and_no_qpo_exclude_each_other(files, capsys):
    # Blocks are resynthesized inside qpo, so the pair would run no blocks.
    src = files("bell.qasm", BELL)
    with pytest.raises(SystemExit) as e:
        main(["optimize", src, "--blocks", "--no-qpo"])
    assert e.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_tol_outside_unit_interval_is_an_input_error(files, capsys):
    # h against x has fidelity 0.5; a tol of 1 or more would pass any pair,
    # and a negative or NaN tol would fail identical files.
    h = files("h.qasm", "qreg q[1];\nh q[0];\n")
    x = files("x.qasm", "qreg q[1];\nx q[0];\n")
    for pair, tol in [((h, x), "1"), ((h, x), "2"), ((h, x), "inf"),
                      ((h, h), "-1"), ((h, h), "nan")]:
        assert main(["verify", *pair, "--tol", tol]) == 2, tol
        out = capsys.readouterr()
        assert out.err.startswith("error: tol must be in [0, 1)"), tol
        assert out.out == ""


def test_non_finite_angle_is_an_input_error(files, capsys):
    src = files("nan.qasm", "qreg q[1];\nu1(nan) q[0];\n")
    for argv in (["optimize", src], ["verify", src, src], ["stats", src]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: line 2, col 1: ")
        assert out.out == ""


def test_bench_on_builtin_grid_map_verifies(capsys):
    # The 20-node grid is wider than the oracle, but the routed bv4 touches
    # only a few of its wires.
    assert main(["bench", "--alg", "bv", "--n", "4", "--coupling", "grid4x5",
                 "--reps", "1"]) == 0
    out = capsys.readouterr()
    lines = out.out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    col = CSV_HEADER.split(",").index("verified")
    assert [line.split(",")[col] for line in lines[1:]] == ["1", "1"]
    assert "unverified" not in out.err


def test_bench_size_range_writes_csv(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    assert main(["bench", "--alg", "bv", "--n", "3..4", "--reps", "2",
                 "--csv", str(csv)]) == 0
    out = capsys.readouterr()
    assert out.out == "" and f"wrote {csv} (8 rows)\n" in out.err
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [dict(zip(CSV_HEADER.split(","), line.split(",")))
            for line in lines[1:]]
    assert [(r["n"], r["seed"], r["pipeline"]) for r in rows] == [
        (n, seed, p) for n in "34" for seed in "01"
        for p in ("baseline", "rpo")]
    assert all(r["verified"] == "1" for r in rows)


def test_bench_verification_failure_exits_1(monkeypatch, capsys):
    # One CX dropped from the rpo output: its check, right after the
    # baseline output's check against the same source, must fail the run.
    import rpoc.bench
    real = rpoc.bench.pipeline
    broken = []

    def drop_one_cx(c, opts):
        out = real(c, opts)
        if opts.enable_qbo:
            insts = out.instructions
            j = next(j for j, i in enumerate(insts) if i.kind is GateKind.CX)
            out = out.replace(insts[:j] + insts[j + 1:])
            broken.append(out)
        return out

    monkeypatch.setattr(rpoc.bench, "pipeline", drop_one_cx)
    assert main(["bench", "--alg", "qv_like", "--n", "3", "--reps", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and len(broken) == 1
    assert out.err.startswith(
        "verification failed: qv_like n=3 seed=0 pipeline=rpo: ")
    src = build_circuit(BenchSpec("qv_like", 3))
    assert f"--- original ---\n{emit_program(src)}" in out.err
    assert f"--- optimized ---\n{emit_program(broken[0])}" in out.err


def test_bench_oracle_error_exits_1(monkeypatch, capsys):
    # An annotation that does not hold, prepended to every output: the
    # oracle's AnnotationError fails the output, it is no input error.
    import rpoc.bench
    real = rpoc.bench.pipeline
    outs = []

    def annotate(c, opts):
        out = real(c, opts)
        outs.append(out.replace(
            [Instruction(GateKind.ANNOT, (0,), (math.pi, 0.0)), *out]))
        return outs[-1]

    monkeypatch.setattr(rpoc.bench, "pipeline", annotate)
    assert main(["bench", "--alg", "bv", "--n", "3", "--reps", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and len(outs) == 1
    assert out.err.startswith(
        "verification failed: bv n=3 seed=0 pipeline=baseline: "
        "AnnotationError: annotation on qubit 0 at instruction 0 does not "
        "hold")
    src = build_circuit(BenchSpec("bv", 3))
    assert f"--- original ---\n{emit_program(src)}" in out.err
    assert f"--- optimized ---\n{emit_program(outs[0])}" in out.err


def test_empty_size_range_is_an_input_error(capsys):
    assert main(["bench", "--alg", "qpe", "--n", "10..4", "--reps", "1"]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ")
    assert out.out == ""


def test_bench_zero_reps_is_an_input_error(capsys):
    assert main(["bench", "--alg", "bv", "--n", "3", "--reps", "0"]) == 2
    out = capsys.readouterr()
    assert out.err == "error: repetitions must be >= 1\n"
    assert out.out == ""


def test_bench_algorithms_are_the_bench_table(capsys):
    # --alg takes exactly the names rpoc.bench builds circuits for.
    with pytest.raises(SystemExit) as e:
        main(["bench", "--alg", "quux", "--n", "3"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'quux'" in err
    assert all(name in err for name in ALGORITHMS)
    assert main(["bench", "--alg", "vqe_ry", "--n", "3", "--reps", "1",
                 "--no-verify"]) == 0


def test_bench_grover8_verifies(capsys):
    # Two 7-control MCZ per iteration, unrolled without ancillas.
    assert main(["bench", "--alg", "grover", "--n", "8", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    col = CSV_HEADER.split(",").index("verified")
    assert [line.split(",")[col] for line in lines[1:]] == ["1", "1"]


def test_verify_wide_files_on_touched_wires(files, capsys):
    # 20-wire files that touch wires 0-15 only: a GHZ state built from either
    # end of the chain, and one built with a CX missing.
    def write(name, first, pairs):
        lines = ["qreg q[20];", f"h q[{first}];"]
        lines += [f"cx q[{a}],q[{b}];" for a, b in pairs]
        return files(name, "\n".join(lines) + "\n")
    up = write("up.qasm", 0, [(i, i + 1) for i in range(15)])
    down = write("down.qasm", 15, [(i + 1, i) for i in reversed(range(15))])
    short = write("short.qasm", 0, [(i, i + 1) for i in range(14)])
    shifted = write("shifted.qasm", 4, [(i, i + 1) for i in range(4, 19)])
    assert main(["verify", up, down]) == 0
    assert main(["verify", up, short]) == 1
    out = capsys.readouterr().out.split("\n")
    assert out[0].startswith("EQUIVALENT") and out[1].startswith("NOT EQUIVALENT")
    # Together these two touch all 20 wires: too wide, an input error.
    assert main(["verify", up, shifted]) == 2
    assert "limited to 16" in capsys.readouterr().err


@pytest.mark.parametrize("text,layout", [
    # Same width: the layout is a nontrivial permutation of the five wires.
    ("qreg q[5]; h q[0]; u3(0.3,0.2,0.1) q[4]; cx q[0],q[4]; h q[2];",
     "3,0,1,2,4"),
    # A 3-wire source routed onto five wires.
    ("qreg q[3]; h q[0]; cx q[0],q[2]; u3(0.3,0.2,0.1) q[1];", "1,0,2"),
])
def test_verify_routed_output_through_its_layout(files, capsys, text, layout):
    src = files("in.qasm", text + "\n")
    out = files("out.qasm", "")
    assert main(["optimize", src, "--coupling", "line5", "-o", out]) == 0
    with open(out) as f:
        assert f"// layout {layout}\n" in f.read()
    for a, b in ((src, out), (out, src), (out, out)):
        assert main(["verify", a, b]) == 0, (a, b)
    assert capsys.readouterr().out.count("NOT") == 0


def test_verify_two_routed_files_through_both_layouts(files, capsys):
    # Both files hold the source's wire 0 on another physical wire.
    src = files("src.qasm", "qreg q[3];\nh q[0];\n")
    a = files("a.qasm", "qreg q[3];\n// layout 1,0,2\nh q[1];\n")
    b = files("b.qasm", "qreg q[3];\n// layout 2,1,0\nh q[2];\n")
    wide = files("wide.qasm", "qreg q[5];\n// layout 4,1,3\nh q[4];\n")
    for x, y in ((src, a), (src, b), (a, b), (b, a), (a, wide), (wide, b)):
        assert main(["verify", x, y]) == 0, (x, y)
    assert capsys.readouterr().out.count("NOT") == 0
    # The optimizing and the baseline pipeline on line5 end in different
    # layouts: qbo drops the two CX whose controls are known basis states.
    src = files("in.qasm", "qreg q[5];\nx q[1];\ncx q[1],q[4];\n"
                "cx q[0],q[3];\nh q[0];\ncx q[0],q[2];\nh q[3];\n"
                "cx q[3],q[1];\n")
    outs = [files(f"out{i}.qasm", "") for i in range(2)]
    assert main(["optimize", src, "--coupling", "line5", "-o", outs[0]]) == 0
    assert main(["optimize", src, "--coupling", "line5", "--no-qbo",
                 "--no-qpo", "-o", outs[1]]) == 0
    layouts = [next(line for line in Path(f).read_text().splitlines()
                    if line.startswith("// layout")) for f in outs]
    assert layouts[0] != layouts[1]
    assert main(["verify", *outs]) == 0
    assert main(["verify", src, outs[1]]) == 0
    # Layouts of different lengths do not fit: an input error.
    short = files("short.qasm", "qreg q[3];\n// layout 1,0\nh q[1];\n")
    assert main(["verify", a, short]) == 2
    assert "do not fit" in capsys.readouterr().err


def test_reoptimized_routed_output_keeps_the_source_layout(files, capsys):
    # Optimized again, unrouted or on line5, a routed output still says
    # where the source's wires are, so it verifies against both files.
    src = files("src.qasm", "qreg q[3]; h q[0]; cx q[0],q[2];"
                " u3(0.3,0.2,0.1) q[1];\n")
    r1, r2, r3 = (files(f"r{i}.qasm", "") for i in (1, 2, 3))
    assert main(["optimize", src, "--coupling", "line5", "-o", r1]) == 0
    assert main(["optimize", r1, "-o", r2]) == 0
    assert main(["optimize", r1, "--coupling", "line5", "-o", r3]) == 0
    for a, b in ((r1, r2), (src, r2), (r1, r3), (src, r3)):
        assert main(["verify", a, b]) == 0, (a, b)
    assert capsys.readouterr().out.count("NOT") == 0


# MCX, SWAP, CSWAP and open controls on 6 wires; the routed variant spreads
# the same gates over the 15 wires of line15, so the router inserts SWAPs.
_MIXED = """qreg q[{n}];
h q[{a}];
x q[{c}];
u3(0.3,0.2,0.1) q[{f}];
h q[{d}];
mcx[ococ] q[{a}],q[{b}],q[{c}],q[{d}],q[{e}];
ocx q[{d}],q[{e}];
occx q[{f}],q[{e}],q[{a}];
swap q[{a}],q[{f}];
cx q[{f}],q[{b}];
cswap q[{c}],q[{a}],q[{e}];
t q[{b}];
cx q[{b}],q[{d}];
swap q[{c}],q[{e}];
h q[{e}];
"""


@pytest.mark.parametrize("text,extra", [
    (_MIXED.format(n=6, a=0, b=1, c=2, d=3, e=4, f=5), []),
    (_MIXED.format(n=15, a=0, b=14, c=3, d=11, e=7, f=13),
     ["--coupling", "line15"]),
], ids=["unrouted", "routed"])
def test_optimize_output_does_not_depend_on_hash_seed(files, text, extra):
    # GateKind hashes by identity and str hashing is randomized per process,
    # so no output may follow the iteration order of a set.
    src = files("in.qasm", text)
    env = {**os.environ, "PYTHONPATH": str(Path(rpoc.__file__).parents[1])}
    outs = []
    for seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from rpoc.cli import main; "
             "sys.exit(main())", "optimize", src, *extra],
            env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
            text=True, check=True)
        outs.append(run.stdout)
    assert outs[0].startswith("qreg q[")
    assert outs[0] == outs[1]


@pytest.mark.skipif(platform.machine() != "x86_64",
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
@pytest.mark.parametrize("extra", [[], ["--coupling", "line15"],
                                   ["--no-qbo", "--no-qpo"]],
                         ids=["rpo", "routed", "baseline"])
def test_optimize_output_does_not_depend_on_blas_kernel(files, extra):
    # Prescott runs on every x86-64 CPU; the default kernel is picked for the
    # host.  The compile path makes no BLAS call, so the bytes must agree.
    src = files("qpe10.qasm", emit_program(gen_qpe(10, 357 / 1024)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(rpoc.__file__).parents[1])
    outs = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from rpoc.cli import main; "
             "sys.exit(main())", "optimize", src, *extra],
            env={**env, **kernel}, capture_output=True, text=True, check=True)
        outs.append(run.stdout)
    assert outs[0].startswith("qreg q[")
    assert outs[0] == outs[1]


@pytest.mark.parametrize("coupling", [None, "line5"])
def test_readme_circuit_example_holds(files, coupling):
    # The example under "Circuit text format": its annotation must hold where
    # it stands, so the oracle accepts it and optimize may trust it.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = re.search(r"## Circuit text format\n.*?```\n(.*?)```", readme,
                     re.S).group(1)
    src = parse_program(text)
    simulate(src)
    cmap = line_coupling(5) if coupling else None
    out = pipeline(src, PipelineOptions(coupling=cmap))
    assert equivalent_up_to_global_phase(src, out, perm=out.layout).equivalent
    path = files("example.qasm", text)
    assert main(["verify", path, path]) == 0
