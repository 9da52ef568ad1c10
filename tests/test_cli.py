"""Exit codes of the command-line interface: 0 success, 1 verification
failure, 2 input error."""
import pytest

from rpoc.bench import CSV_HEADER
from rpoc.cli import main

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
