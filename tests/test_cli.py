import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qspecht.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_command(capsys):
    code, out, err = run(capsys, "matrix", "--shape", "3,2", "--gen", "1")
    assert code == 0 and not err
    assert "command: matrix" in out
    assert "domain: generic" in out
    assert "[-1, -q^2, 0, 0, q^4]" in out
    assert out.splitlines()[-1] == "[0, 0, 0, 0, q]"


def test_matrix_single_row(capsys):
    code, out, _ = run(capsys, "matrix", "--shape", "5", "--gen", "2")
    assert code == 0
    assert "[q]" in out


def test_matrix_generator_out_of_range(capsys):
    code, out, err = run(capsys, "matrix", "--shape", "3,2", "--gen", "9")
    assert code != 0
    assert not out
    assert "out of range" in err


def test_malformed_partition(capsys):
    code, out, err = run(capsys, "matrix", "--shape", "3,x", "--gen", "1")
    assert code != 0
    assert "cannot parse partition" in err


def test_matrix_json_roundtrip(capsys):
    code, out, _ = run(capsys, "matrix", "--shape", "3,2", "--gen", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "matrix"
    assert doc["domain"] == {"kind": "generic", "p": None}
    assert doc["matrix"][0] == ["-1", "-q^2", "0", "0", "q^4"]
    # byte-identical determinism
    code2, out2, _ = run(capsys, "matrix", "--shape", "3,2", "--gen", "1", "--json")
    assert out2 == out


def test_verify_large_shape(capsys):
    code, out, _ = run(capsys, "verify", "--shape", "6,3,3,1")
    assert code == 0
    assert "relation-mode: generator-vector" in out
    assert "result: pass" in out
    assert "garnir element a=12 ... pass" in out
    assert "FAIL" not in out


def test_verify_small_shape_specialized(capsys):
    code, out, _ = run(capsys, "verify", "--shape", "3,2", "--p", "3")
    assert code == 0
    assert "relation-mode: matrix" in out
    assert "domain: root-of-unity p=3" in out
    assert "result: pass" in out


def test_verify_full_flag(capsys):
    code, out, _ = run(capsys, "verify", "--shape", "2,2", "--full")
    assert code == 0
    assert "relation-mode: matrix" in out


def test_verify_rejects_p2(capsys):
    code, out, err = run(capsys, "verify", "--shape", "2,2", "--p", "2")
    assert code != 0
    assert "p must be >= 3" in err


@pytest.mark.parametrize("shape,p,expected", [
    ("5,4", "3", "submodule-shape: 6,3"),
    ("8,3", "3", "reducible: false"),
])
def test_decompose_table_rows(capsys, shape, p, expected):
    code, out, _ = run(capsys, "decompose", "--shape", shape, "--p", p)
    assert code == 0
    assert expected in out


def test_decompose_oracle(capsys):
    code, out, _ = run(capsys, "decompose", "--shape", "3,2", "--p", "3", "--oracle")
    assert code == 0
    assert "oracle-kernel-0: (1)*[1,3,5/2,4] + (1)*[1,3,4/2,5]" in out


def test_decompose_rejects_three_rows(capsys):
    code, out, err = run(capsys, "decompose", "--shape", "3,2,1", "--p", "3")
    assert code != 0
    assert "two parts" in err


def test_tableaux_p_root(capsys):
    code, out, _ = run(capsys, "tableaux", "--shape", "7,4", "--p", "3", "--filter", "p-root")
    assert code == 0
    assert "tableau: 1,2,3,4,6,8,10/5,7,9,11" in out
    assert "count: 131" in out


def test_tableaux_standard(capsys):
    code, out, _ = run(capsys, "tableaux", "--shape", "3,2", "--filter", "standard")
    assert code == 0
    assert "count: 5" in out
    assert out.count("tableau: ") == 5


def test_tableaux_count_6_5(capsys):
    code, out, _ = run(capsys, "tableaux", "--shape", "6,5", "--p", "3", "--filter", "p-root")
    assert code == 0
    assert "count: 1" in out


def test_tableaux_p_root_requires_p(capsys):
    code, out, err = run(capsys, "tableaux", "--shape", "3,2", "--filter", "p-root")
    assert code != 0
    assert "requires --p" in err


def test_tableaux_rejects_p2_before_enumerating(capsys, monkeypatch):
    def no_enumeration(shape):
        raise AssertionError("enumerated before checking --p")

    monkeypatch.setattr("qspecht.cli.enumerate_standard", no_enumeration)
    code, out, err = run(capsys, "tableaux", "--shape", "6,6,6", "--p", "2")
    assert code == 2
    assert not out
    assert "p must be >= 3" in err


def test_text_output_deterministic(capsys):
    _, out1, _ = run(capsys, "decompose", "--shape", "9,3", "--p", "5")
    _, out2, _ = run(capsys, "decompose", "--shape", "9,3", "--p", "5")
    assert out1 == out2
    assert "submodule-shape: 12" in out1


def test_closed_stdout_ends_quietly():
    # the output is several times a pipe's buffer, so writing must hit the
    # closed end once the reader has gone
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with subprocess.Popen(
        [sys.executable, "-m", "qspecht", "tableaux", "--shape", "6,3,3,1"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"command: tableaux\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code != 0
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
