"""Import boundary: `import rpoc` and the compile path load no numpy.

numpy is imported only where dense linear algebra runs: the oracle (verify,
run_bench), qpo's block resynthesis (optimize --blocks) and gen_qv_like's
RNG; the other circuit generators load none.  No rpoc module loads
dataclasses (with inspect, ast, dis and tokenize behind it).
Each check runs in a fresh interpreter, since this one has numpy loaded.
"""
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rpoc
from rpoc import (PipelineOptions, emit_program, gen_bv, gen_grover, gen_qpe,
                  gen_qv_like, gen_vqe_ry, line_coupling, pipeline)

SRC = str(Path(rpoc.__file__).parents[1])
QPE10 = gen_qpe(10, 357 / 1024)

# rpoc.__all__: the names README, the CLI and perfbench reach through the
# top level.  Every other name is imported from its submodule.
PUBLIC_NAMES = [
    "AnnotationError", "BenchSpec", "Circuit", "CouplingMap", "GateKind",
    "Instruction", "ParseError", "PipelineOptions", "VerificationError",
    "analysis", "bench", "cancel_adjacent_cx", "circuit", "count_1q",
    "cx_count", "depth", "emit_program", "equivalent_up_to_global_phase",
    "gen_bv", "gen_grover", "gen_qpe", "gen_qv_like", "gen_vqe_ry",
    "grid_coupling", "grover_success_probability", "line_coupling",
    "median_summary", "merge_1q_runs", "oracle", "parse_program", "passes",
    "pipeline", "prepare_two_qubit_state", "qbo", "qpo",
    "reduced_qubit_state", "resolve_coupling", "route", "rows_to_csv",
    "run_bench", "simulate", "synth", "u3_matrix", "unroll", "zyz_decompose",
]

# Every config of the routed and unrouted benchmark workloads, less blocks.
CONFIGS = [(coupling, on) for coupling in (None, "line15")
           for on in (False, True)]


def run_fresh(code: str, *args: str) -> list:
    """Run `code` in a new interpreter importing rpoc from the sources; it
    ends by printing one JSON value, which is returned with whether numpy
    was loaded: [value, numpy loaded]."""
    code = textwrap.dedent(code) + (
        "\nprint(json.dumps([result, 'numpy' in sys.modules]))\n")
    run = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code, *args],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
        text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


@pytest.fixture
def qpe10_file(tmp_path):
    path = tmp_path / "qpe10.qasm"
    path.write_text(emit_program(QPE10))
    return str(path)


def test_import_loads_no_numpy():
    assert run_fresh("import rpoc\nresult = None") == [None, False]


def loaded_by_import(*names: str, module: str = "rpoc") -> list[str]:
    """Which of the modules `names` a fresh `import <module>` loads.  Not
    run_fresh: its child code imports json itself."""
    run = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}\n"
         "print(*[m for m in sys.argv[1:] if m in sys.modules])", *names],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
        text=True, check=True)
    return run.stdout.split()


def test_import_loads_no_json():
    assert loaded_by_import("json") == []


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses imports inspect, which imports ast, dis and tokenize.
    assert loaded_by_import("dataclasses", "inspect") == []


def test_bench_import_loads_no_numpy_or_dataclasses():
    assert loaded_by_import("numpy", "dataclasses", "inspect",
                            module="rpoc.bench") == []


def test_oracle_import_loads_no_dataclasses():
    # numpy itself imports inspect, so only dataclasses is checked.
    assert loaded_by_import("numpy", "dataclasses",
                            module="rpoc.oracle") == ["numpy"]


def test_pipeline_and_text_boundary_load_no_numpy(qpe10_file):
    result, numpy_loaded = run_fresh("""
        from rpoc import PipelineOptions, emit_program, parse_program, pipeline
        from rpoc.passes import resolve_coupling
        with open(sys.argv[1]) as f:
            src = parse_program(f.read())
        result = []
        for coupling, on in json.loads(sys.argv[2]):
            out = pipeline(src, PipelineOptions(
                coupling=resolve_coupling(coupling), enable_qbo=on,
                enable_qpo=on))
            text = emit_program(out)
            assert emit_program(parse_program(text)) == text
            result.append(text)
        """, qpe10_file, json.dumps(CONFIGS))
    assert not numpy_loaded
    # The same bytes as in a process that has numpy loaded.
    cmaps = {None: None, "line15": line_coupling(15)}
    assert result == [
        emit_program(pipeline(QPE10, PipelineOptions(
            coupling=cmaps[coupling], enable_qbo=on, enable_qpo=on)))
        for coupling, on in CONFIGS]


def test_cli_optimize_and_stats_load_no_numpy(qpe10_file):
    result, numpy_loaded = run_fresh("""
        import contextlib, io
        from rpoc.cli import main
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            result = [main(["optimize", sys.argv[1]]),
                      main(["optimize", sys.argv[1], "--coupling", "line15"]),
                      main(["optimize", sys.argv[1], "-o",
                            sys.argv[1] + ".out"]),
                      main(["stats", sys.argv[1]])]
        """, qpe10_file)
    assert result == [0, 0, 0, 0] and not numpy_loaded


@pytest.mark.parametrize("command", [
    ["verify", "{path}", "{path}"],
    ["optimize", "{path}", "--blocks"],
], ids=["verify", "optimize_blocks"])
def test_numpy_commands_still_work(qpe10_file, command):
    argv = [arg.format(path=qpe10_file) for arg in command]
    result, _ = run_fresh("""
        import contextlib, io
        from rpoc.cli import main
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(sys.argv[1:])
        result = [code, out.getvalue()]
        """, *argv)
    assert result[0] == 0
    if argv[0] == "verify":
        assert result[1].startswith("EQUIVALENT")
    else:  # block resynthesis leaves qpe10 with no CX
        assert result[1].startswith("qreg") and "cx " not in result[1]


def test_generators_load_no_numpy():
    result, numpy_loaded = run_fresh("""
        from rpoc import emit_program, gen_bv, gen_grover, gen_qpe, gen_vqe_ry
        result = [emit_program(c) for c in (
            gen_bv(5, "10110", "boolean"), gen_qpe(4, 5 / 16),
            gen_grover(4, 11, 1, use_ancilla=True, annotate=True),
            gen_vqe_ry(4, 2, [0.3 * k for k in range(12)]))]
        """)
    assert not numpy_loaded
    assert result == [emit_program(c) for c in (
        gen_bv(5, "10110", "boolean"), gen_qpe(4, 5 / 16),
        gen_grover(4, 11, 1, use_ancilla=True, annotate=True),
        gen_vqe_ry(4, 2, [0.3 * k for k in range(12)]))]


def test_gen_qv_like_still_works():
    result, _ = run_fresh("""
        from rpoc import emit_program, gen_qv_like
        result = emit_program(gen_qv_like(6, 4, seed=3))
        """)
    assert result == emit_program(gen_qv_like(6, 4, seed=3))


def test_public_names_resolve():
    result, _ = run_fresh("""
        import rpoc
        assert set(rpoc.__all__) <= set(dir(rpoc))
        for name in rpoc.__all__:
            getattr(rpoc, name)
        from rpoc import *
        result = rpoc.__all__
        """)
    assert result == PUBLIC_NAMES


def test_readme_library_example_runs(capsys):
    # The example under "Library" imports only public names, and its
    # routed output verifies against its source.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"## Library\n.*?```python\n(.*?)```", readme,
                     re.S).group(1)
    names = re.search(r"from rpoc import \((.*?)\)", code, re.S).group(1)
    assert {name.strip() for name in names.split(",")} <= set(rpoc.__all__)
    exec(code, {})
    report = capsys.readouterr().out.splitlines()[-1]
    assert report.startswith("EquivalenceReport(equivalent=True,")
