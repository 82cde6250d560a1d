import os
import subprocess
import sys
import textwrap

import pytest

import lefschetz
from lefschetz import catalog, symplectic
from lefschetz.cli import main
from lefschetz.fileformat import serialize_factorization


def test_check_catalog_entry_exact(capsys):
    assert main(["check", "catalog:chakiris-gamma"]) == 0
    assert capsys.readouterr().out == "identity: exact\n"


def test_check_explicit_level(capsys):
    assert main(["check", "catalog:matsumoto-62", "--level", "homology"]) == 0
    assert capsys.readouterr().out == "identity: homology\n"


def test_check_failure_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text('{"genus": 2, "base_genus": 0, '
                   '"twists": [{"base": "c1", "conj": []}]}')
    assert main(["check", str(bad)]) == 1
    assert "failed" in capsys.readouterr().out


def test_parse_error_exits_two(tmp_path, capsys):
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("not a word file")
    assert main(["check", str(garbled)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path):
    assert main(["check", str(tmp_path / "absent.txt")]) == 2


def test_unknown_catalog_name_exits_two(capsys):
    assert main(["type", "catalog:nothing-here"]) == 2
    assert "no catalog entry" in capsys.readouterr().err


def test_invariants_reports_b1(capsys):
    assert main(["invariants", "catalog:matsumoto-62"]) == 0
    out = capsys.readouterr().out
    assert "b1: 2" in out
    assert "signature: -4" in out


def test_invariants_golden_output(capsys):
    assert main(["invariants", "catalog:matsumoto-62"]) == 0
    assert capsys.readouterr().out == (
        "euler: 4\n"
        "signature: -4\n"
        "h1: Z + Z\n"
        "b0: 1\n"
        "b1: 2\n"
        "b2: 6\n"
        "b3: 2\n"
        "b4: 1\n"
        "b2_plus: 1\n"
        "b2_minus: 5\n"
        "identity_level: homology\n"
    )


def test_type_output(capsys):
    assert main(["type", "catalog:baykur-korkmaz-43"]) == 0
    assert capsys.readouterr().out == "(4, 3)\n"


def test_hurwitz_writes_valid_word(tmp_path, capsys):
    out = tmp_path / "moved.txt"
    code = main(["hurwitz", "catalog:chakiris-gamma",
                 "--index", "2", "--dir", "right", "-o", str(out)])
    assert code == 0
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr().out == "identity: exact\n"


def test_conjugate_and_fibersum(tmp_path, capsys):
    conj = tmp_path / "conj.txt"
    assert main(["conjugate", "catalog:matsumoto-62",
                 "--word", "t1,T3", "-o", str(conj)]) == 0
    total = tmp_path / "sum.txt"
    assert main(["fibersum", str(conj), "catalog:matsumoto-62",
                 "-o", str(total)]) == 0
    assert main(["type", str(total)]) == 0
    assert capsys.readouterr().out == "(12, 4)\n"


def test_sub_chain_expand_then_contract(tmp_path, capsys):
    expanded = tmp_path / "long.txt"
    assert main(["sub", "chain", "catalog:matsumoto-62",
                 "--at", "3", "--dir", "expand", "-o", str(expanded)]) == 0
    assert main(["type", str(expanded)]) == 0
    assert capsys.readouterr().out == "(18, 1)\n"
    back = tmp_path / "short.txt"
    assert main(["sub", "chain", str(expanded),
                 "--at", "3", "--dir", "contract", "-o", str(back)]) == 0
    assert main(["type", str(back)]) == 0
    assert capsys.readouterr().out == "(6, 2)\n"


def test_sub_lantern_builds_lantern_18_1(tmp_path, capsys):
    word = "catalog:hyperelliptic-sq"
    for step, i in enumerate((5, 4, 6, 5, 7, 6)):
        moved = tmp_path / f"moved-{step}.txt"
        assert main(["hurwitz", word, "--index", str(i), "--dir", "left",
                     "-o", str(moved)]) == 0
        word = str(moved)
    out = tmp_path / "lantern.txt"
    assert main(["sub", "lantern", word, "--at", "7", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    expected = serialize_factorization(
        catalog.get_factorization("lantern-18-1"))
    assert out.read_text() == expected


def test_sub_lantern_mismatch_exits_one(capsys):
    assert main(["sub", "lantern", "catalog:chakiris-gamma", "--at", "0"]) == 1
    capsys.readouterr()


def test_transitivity_output(capsys):
    assert main(["transitivity", "catalog:chakiris-gamma",
                 "--primes", "2"]) == 0
    out = capsys.readouterr().out
    assert "p=2: closure order 720 of 720 (full)" in out
    assert "verdict: consistent with transitive" in out


def test_memory_error_exits_two(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(symplectic, "transitivity_certificate", exhausted)
    assert main(["transitivity", "catalog:chakiris-gamma"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_default_transitivity_fits_in_512_mb_without_numpy():
    child = textwrap.dedent("""
        import resource
        import sys

        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (512 * 1024 * 1024, hard))
        from lefschetz.cli import main

        code = main(["transitivity", "catalog:chakiris-gamma"])
        print("numpy imported:", "numpy" in sys.modules)
        sys.exit(code)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lefschetz.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", child], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "p=2: closure order 720 of 720 (full)" in lines
    assert "p=3: closure order 51840 of 51840 (full)" in lines
    assert "p=5: closure order 9360000 of 9360000 (full)" in lines
    assert "numpy imported: False" in lines


def test_feasibility_csv_deterministic(capsys):
    assert main(["feasibility", "--n-max", "8", "--s-max", "6"]) == 0
    first = capsys.readouterr().out
    assert main(["feasibility", "--n-max", "8", "--s-max", "6"]) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "n,s,status,b1_forced,b2_plus"


def test_family_output(capsys):
    assert main(["family", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "type: (4, 3)" in out
    assert "indecomposable: indecomposable" in out


def test_basis_pairs_output(capsys):
    assert main(["basis-pairs", "catalog:matsumoto-62"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    assert all(len(line.split()) == 2 for line in lines)


def test_catalog_commands(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "matsumoto-62" in out

    assert main(["catalog", "show", "lantern-16-2"]) == 0
    out = capsys.readouterr().out
    assert "type: (16, 2)" in out

    assert main(["catalog", "verify", "chakiris-alpha"]) == 0
    out = capsys.readouterr().out
    assert "identity (exact): ok" in out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["hurwitz", "catalog:chakiris-gamma", "--dir", "sideways",
              "--index", "0"])
    assert exc.value.code == 2
