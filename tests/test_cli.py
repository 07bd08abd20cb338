import hashlib
import json
import os
import subprocess
import sys
import time
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


# sha256 of the stdout of `qspecht matrix --shape 4,3,2,1 --gen K [--p 3]`,
# text and --json, recorded before generator matrices were stored sparsely
GOLDEN_MATRIX_4321 = {
    (None, 1): ("fa82b9394e54bd44f309bb3c4438d623d5aed68e20fe22c72afd31bed6e41d2e",
                "ac52dd47969bad4ad66e398be36bad9418c455ecac754ad2bae578fd2749de2b"),
    (None, 5): ("67c8186128840781f118dab9b6a9903223a9c113ae5fa36923d4eeb986d6e5b4",
                "33e70fe2f80d80ed3e8ccdffba3f0580c8a53776cea7ca6a3dc32846fc54a126"),
    (None, 9): ("17a099ba65d82818ee9e08018d5d7d65edd8c109e878ee063cca32d54386fe44",
                "0892b797d5c2892cb0095bd940b4147762d4488d114050bda2e5e4e074b0af59"),
    (3, 1): ("844d7a92576fa0562ef87570eeca35c4af09e1134968cdc0e97bdb48d8c5a548",
             "a859ace569d76c9ac2154f1cc269d4169db622ff4514ce6b3f4b1a9317ffcfa9"),
    (3, 5): ("9f88df712f85bcfb225cf3c376f514cc47d8d7189caa3108147a5601c19e26f1",
             "60481d96cfc545a2eb176fb54c3fa788371617420481df90f3202d7213110bc6"),
    (3, 9): ("e0add9985ba1063fddd571acff1fe734fe1c327083eda8b92af27fe95ae7f574",
             "55710a7036be8af1867e1339419dfca0dbee6d809bc285eae05e0fe631dd6676"),
}


@pytest.mark.parametrize("p,gen", sorted(GOLDEN_MATRIX_4321, key=lambda k: (k[0] or 0, k[1])))
def test_matrix_output_is_golden(capsys, p, gen):
    argv = ["matrix", "--shape", "4,3,2,1", "--gen", str(gen)] + (["--p", str(p)] if p else [])
    digests = []
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 0 and not err
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN_MATRIX_4321[(p, gen)]


# sha256 of the stdout of `qspecht verify ...`, recorded before the action
# engine and the echelon shared one multiply-accumulate (`scalar.fold`)
GOLDEN_VERIFY = {
    ("--shape", "5,3,2"): "85c66217408e2e7c87444b467e4f4f4157fcbba52c0f907b7770ccae58f668b8",
    ("--shape", "5,3,2", "--json"):
        "4b11012a689458d9a69081acd876e1318d82743d7dc40fa3f45141ddef9593e6",
    ("--shape", "4,3,2,1", "--full", "--json"):
        "c2285dc58e8373bd00599492d4ab9b051d1decb2877df54dacea496888b0481c",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_VERIFY))
def test_verify_output_is_golden(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[argv]


# sha256 of the stdout of `qspecht decompose ... --oracle`, recorded before
# straightening kept per-module product and sum tables; straightening at a
# root of unity (p = 4 composite) feeds the annihilator-kernel oracle
GOLDEN_DECOMPOSE = {
    ("--shape", "7,6", "--p", "3", "--oracle", "--json"):
        "6ba1572b9b8e5280d9c56e4387caad32ec63d2783326aa8974291f3c3a0f743c",
    ("--shape", "6,4", "--p", "5", "--oracle"):
        "69e0258845795b9c14ea6856daf79789430fb49ddb197a374e0ce781f81fbd50",
    ("--shape", "6,3", "--p", "4", "--oracle", "--json"):
        "62c81b012aba431a4bb2b67a412f780b7d81969d6f9f94203f319d66c38536b6",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_DECOMPOSE))
def test_decompose_output_is_golden(capsys, argv):
    code, out, err = run(capsys, "decompose", *argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DECOMPOSE[argv]


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
    # matrix and decompose refuse the order through the same domain check
    for argv in (["verify", "--shape", "2,2"], ["matrix", "--shape", "3,2", "--gen", "1"],
                 ["decompose", "--shape", "5,4"]):
        code, out, err = run(capsys, *argv, "--p", "2")
        assert code == 2 and not out
        assert "p must be >= 3" in err


def test_verify_refuses_an_order_above_max_order_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--shape", "2,1", "--p", "1000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert err.startswith("error:") and "MAX_ORDER" in err


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
