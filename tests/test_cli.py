"""Exit codes of the command-line interface: 0 success, 1 verification
failure, 2 input error."""
import pytest

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
