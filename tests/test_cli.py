import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lefschetz
from lefschetz import catalog, symplectic
from lefschetz.cli import main
from lefschetz.fileformat import parse_factorization, serialize_factorization
from lefschetz.monodromy import Curve, Factorization, identity_check


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


def test_check_exact_failure_names_the_level(tmp_path, capsys):
    # The twist about s1 acts trivially on homology but is not inner.
    word = catalog.get_factorization("matsumoto-62")
    semi = tmp_path / "semi.txt"
    semi.write_text(serialize_factorization(
        Factorization(2, word.cycles + (Curve("s1"),))))
    assert main(["check", str(semi), "--level", "exact"]) == 1
    assert capsys.readouterr().out == "identity check failed at level exact\n"
    assert main(["check", str(semi)]) == 0
    assert capsys.readouterr().out == "identity: homology\n"


def test_default_check_runs_only_levels_defined_at_the_genus(tmp_path, capsys):
    # The genus-3 chain relation (c1 ... c7)^8: the exact level needs
    # genus 2, so the default check stops at homology.
    chain = tmp_path / "chain-g3.json"
    chain.write_text(serialize_factorization(
        Factorization(3, tuple(Curve(f"c{i}") for i in range(1, 8)) * 8)))
    assert main(["check", str(chain)]) == 0
    assert capsys.readouterr().out == "identity: homology\n"
    assert main(["check", str(chain), "--level", "exact"]) == 2
    assert capsys.readouterr().err == (
        "error: exact composites are available only at genus 2\n")


def test_parse_error_exits_two(tmp_path, capsys):
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("not a word file")
    assert main(["check", str(garbled)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_input_exits_two_naming_the_decoding_failure(tmp_path,
                                                              capsys):
    latin = tmp_path / "latin-1.json"
    latin.write_bytes(b'{"genus": 2, "note": "\xe9"}')
    assert main(["check", str(latin)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {latin} is not UTF-8 text: invalid continuation byte\n")


def test_missing_file_exits_two(tmp_path):
    assert main(["check", str(tmp_path / "absent.txt")]) == 2


@pytest.mark.parametrize("where", ["under a regular file", "a directory",
                                   "absent"])
@pytest.mark.parametrize("command", ["type", "check"])
def test_unreadable_path_exits_two_naming_it(tmp_path, capsys, command,
                                             where):
    plain = tmp_path / "plain.txt"
    plain.write_text("{}")
    path = str({"under a regular file": plain / "x", "a directory": tmp_path,
                "absent": tmp_path / "absent.txt"}[where])
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and path in err
    assert len(err.splitlines()) == 1


def test_negative_feasibility_window_exits_two(capsys):
    assert main(["feasibility", "--n-max", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: window bounds must be nonnegative\n"


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


def test_invariants_off_genus_two_omits_what_it_does_not_compute(
        tmp_path, capsys):
    # (t1 t2)^6 on the torus is the elliptic surface E(1); the signature
    # and b2+/- are computed at genus 2 only, so their lines are left out.
    word = tmp_path / "e1.json"
    word.write_text(serialize_factorization(
        Factorization(1, (Curve("c1"), Curve("c2")) * 6)))
    assert main(["invariants", str(word)]) == 0
    assert capsys.readouterr().out == (
        "euler: 12\n"
        "h1: 0\n"
        "b0: 1\n"
        "b1: 0\n"
        "b2: 10\n"
        "b3: 0\n"
        "b4: 1\n"
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


@pytest.mark.parametrize("argv, message", [
    pytest.param(["lantern"], "cycle 1 ('c2') does not match the relation's "
                 "'c1' moved by the conjugator of cycle 0", id="lantern"),
    pytest.param(["chain", "--dir", "contract"],
                 "cycle 2 ('c3') does not match the relation's 'c1' moved by "
                 "the conjugator of cycle 0", id="chain-contract"),
    pytest.param(["chain", "--dir", "expand"],
                 "cycle 0 ('c1') does not match the relation's 's1' moved by "
                 "the conjugator of cycle 0", id="chain-expand"),
])
def test_sub_mismatch_exits_one(argv, message, capsys):
    assert main(["sub", argv[0], "catalog:chakiris-gamma", "--at", "0",
                 *argv[1:]]) == 1
    assert capsys.readouterr() == ("", message + "\n")


def test_sub_lantern_names_genus_two_off_genus_two(tmp_path, capsys):
    # The registered lantern is a genus-2 configuration, so a genus-3 word
    # is refused for its genus, not for a changed homology image.
    word = tmp_path / "word.json"
    boundary = (Curve("c1"), Curve("c1"), Curve("c5"), Curve("c5"))
    word.write_text(serialize_factorization(Factorization(3, boundary)))
    assert main(["sub", "lantern", str(word), "--at", "0"]) == 1
    assert capsys.readouterr() == (
        "", "lantern substitution is a genus-2 computation\n")


@pytest.mark.parametrize("command, cycles, code, out", [
    ("invariants", (Curve("c1"),), 1,
     "factorization is not an identity word at the homology level; "
     "invariants of a closed total space are undefined\n"),
    ("invariants", (Curve("s1"),), 1,
     "3n + s = 1 is not divisible by 5; no genus-2 Lefschetz fibration "
     "has type (0, 1)\n"),
    ("invariants", (Curve("s1"),) * 5, 0,
     "euler: 1\nsignature: -1\nh1: Z + Z + Z + Z\nb0: 1\nb1: 4\nb2: 7\n"
     "b3: 4\nb4: 1\nb2_plus: 3\nb2_minus: 4\nidentity_level: homology\n"
     "warning: b2_minus = 4 is below the separating-cycle bound "
     "s + 1 = 6: no such fibration can exist\n"),
    ("basis-pairs", (Curve("c1"), Curve("c1")), 1,
     "no unimodular pair of vanishing-cycle classes\n"),
])
def test_failure_and_warning_lines(tmp_path, capsys, command, cycles, code,
                                   out):
    word = tmp_path / "word.json"
    word.write_text(serialize_factorization(Factorization(2, cycles)))
    assert main([command, str(word)]) == code
    assert capsys.readouterr() == (out, "")


def test_transitivity_output(capsys):
    assert main(["transitivity", "catalog:chakiris-gamma",
                 "--primes", "2"]) == 0
    out = capsys.readouterr().out
    assert "p=2: closure order 720 of 720 (full)" in out
    assert "verdict: consistent with transitive" in out


def test_transitivity_reports_a_repeated_prime_once(capsys):
    assert main(["transitivity", "catalog:chakiris-gamma",
                 "--primes", "3,2,3,2"]) == 0
    assert capsys.readouterr().out == (
        "p=3: closure order 51840 of 51840 (full)\n"
        "p=2: closure order 720 of 720 (full)\n"
        "verdict: consistent with transitive\n")


def _transitivity_lines(f, primes):
    """The ``transitivity`` lines for one transvection per cycle."""
    certificate = symplectic.transitivity_certificate(
        [symplectic.transvection(c) for c in f.classes], primes)
    lines = [f"p={e.prime}: closure order {e.order} of {e.full_group_order}"
             f" ({'full' if e.is_full else 'proper subgroup'})\n"
             for e in certificate.entries]
    return "".join(lines) + f"verdict: {certificate.verdict}\n"


def test_transitivity_takes_each_class_once_up_to_sign(tmp_path, capsys):
    # T_c = T_-c and a null class twists trivially, so the command's one
    # transvection per class up to sign spans the group of all of them.
    null = Factorization(2, (Curve("s1"), Curve("s1", (("c1", -1),))))
    word = tmp_path / "null.json"
    word.write_text(serialize_factorization(null))
    sources = [(f"catalog:{e.name}", catalog.get_factorization(e.name))
               for e in catalog.list_entries()
               if e.kind == "factorization"] + [(str(word), null)]
    for src, f in sources:
        assert main(["transitivity", src, "--primes", "2,3,5"]) == 0
        assert capsys.readouterr() == (
            _transitivity_lines(f, (2, 3, 5)), ""), src


@pytest.mark.parametrize("primes", ["2,,3", "", "abc"])
def test_transitivity_names_a_malformed_primes_list(primes, capsys):
    assert main(["transitivity", "catalog:chakiris-gamma",
                 "--primes", primes]) == 2
    assert capsys.readouterr() == (
        "", "error: --primes takes comma-separated integers, "
        f"got {primes!r}\n")


def test_memory_error_exits_two(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(symplectic, "transitivity_certificate", exhausted)
    assert main(["transitivity", "catalog:chakiris-gamma"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_transitivity_rejects_generators_not_symplectic_mod_p(
        monkeypatch, capsys):
    scaled = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    monkeypatch.setattr(symplectic, "transvection", lambda c: scaled)
    assert main(["transitivity", "catalog:matsumoto-62"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not symplectic mod 2" in err


def _run_under_address_limit(mb, code, *argv):
    """Run ``code`` with ``argv`` in a child interpreter whose address
    space (``RLIMIT_AS``) is capped at ``mb`` megabytes."""
    child = textwrap.dedent(f"""
        import resource
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, ({mb} * 1024 * 1024, hard))
    """) + textwrap.dedent(code)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lefschetz.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_default_transitivity_fits_in_512_mb_without_numpy():
    result = _run_under_address_limit(512, """
        import sys
        from lefschetz.cli import main

        code = main(["transitivity", "catalog:chakiris-gamma"])
        print("numpy imported:", "numpy" in sys.modules)
        sys.exit(code)
    """)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "p=2: closure order 720 of 720 (full)" in lines
    assert "p=3: closure order 51840 of 51840 (full)" in lines
    assert "p=5: closure order 9360000 of 9360000 (full)" in lines
    assert "numpy imported: False" in lines


def test_default_transitivity_counts_a_proper_group_in_256_mb(tmp_path):
    # c1, c2 and c3 span a proper group at every default prime; at p = 5
    # the frame walk that counts it visits all 15,000 of its frames.
    doc = tmp_path / "chain3.json"
    doc.write_text(serialize_factorization(
        Factorization(2, (Curve("c1"), Curve("c2"), Curve("c3")))))
    result = _run_under_address_limit(256, """
        import sys
        from lefschetz.cli import main

        sys.exit(main(["transitivity", sys.argv[1]]))
    """, str(doc))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "p=2: closure order 24 of 720 (proper subgroup)",
        "p=3: closure order 648 of 51840 (proper subgroup)",
        "p=5: closure order 15000 of 9360000 (proper subgroup)",
        "verdict: provably not transitive",
    ]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Together they cost every fresh ``lefschetz`` process about 25 ms.
    result = _run_under_address_limit(512, """
        import sys
        import lefschetz.cli

        print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_importing_the_cli_loads_neither_importlib_resources_nor_tempfile():
    # Catalog data is read with open(); importlib.resources would pull in
    # tempfile, zipfile and pathlib.  -S keeps site's own imports out.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lefschetz.__file__)))
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {src!r})
        import lefschetz.cli

        print(sorted({{"importlib.resources", "tempfile"}} & set(sys.modules)))
    """)
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("pair", [("t1", "T2"), ("t3", "T2")])
def test_exact_check_of_a_long_conjugate_stops_at_the_letter_bound(
        tmp_path, pair):
    # Each t1 T2 pair multiplies the free-group images by about 2.6; without
    # the bound, checking a word that holds this 40-token conjugate beside
    # an unconjugated copy exhausts memory: the conjugator does not cancel
    # cyclically there.  The t3 T2 conjugate goes through the c3 table's
    # inner part.
    conj = tmp_path / "conj.json"
    assert main(["conjugate", "catalog:matsumoto-62",
                 "--word", ",".join(pair * 20), "-o", str(conj)]) == 0
    doc = tmp_path / "long.json"
    assert main(["fibersum", "catalog:matsumoto-62", str(conj),
                 "-o", str(doc)]) == 0
    result = _run_under_address_limit(256, """
        import sys
        from lefschetz.cli import main

        sys.exit(main(sys.argv[1:]))
    """, "check", str(doc))
    assert result.returncode == 2, result.stderr
    assert result.stderr == (
        "error: free-group images exceed the bound of 1000000 letters\n")


@pytest.mark.parametrize("pair", [("t1", "T2"), ("t3", "T2")])
def test_exact_check_folds_the_cyclic_core_of_a_long_conjugate(
        tmp_path, capsys, pair):
    # The 40-token conjugator cancels cyclically, so the check decides the
    # conjugate as it decides the word, with the same witness.
    doc = tmp_path / "long.json"
    assert main(["conjugate", "catalog:matsumoto-62",
                 "--word", ",".join(pair * 20), "-o", str(doc)]) == 0
    capsys.readouterr()
    assert main(["check", str(doc)]) == 0
    assert capsys.readouterr().out == "identity: exact\n"
    word = catalog.get_factorization("matsumoto-62")
    moved = parse_factorization(doc.read_text())
    assert identity_check(moved, "exact") == identity_check(word, "exact")


def test_library_folds_of_a_long_c3_conjugate_stop_at_the_letter_bound(
        tmp_path):
    # composite_endo and curve_word conjugate the fold's four images by its
    # inner part; on the t3 T2 conjugate they stop as the check does.
    doc = tmp_path / "long.json"
    assert main(["conjugate", "catalog:matsumoto-62",
                 "--word", ",".join(["t3", "T2"] * 20), "-o", str(doc)]) == 0
    result = _run_under_address_limit(256, """
        import sys
        from lefschetz.fileformat import parse_factorization
        from lefschetz.monodromy import composite_endo, curve_word

        with open(sys.argv[1]) as fh:
            f = parse_factorization(fh.read())
        for call in (lambda: composite_endo(f),
                     lambda: curve_word(f.cycles[0])):
            try:
                call()
            except ValueError as exc:
                print(exc)
    """, str(doc))
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "free-group images exceed the bound of 1000000 letters\n" * 2)


@pytest.mark.parametrize("command", ["type", "invariants"])
def test_huge_declared_genus_exits_two_in_bounded_memory(tmp_path, command):
    # Run only under the address limit: unbounded, the parse alone would
    # build 3g class vectors of length 2g.
    doc = tmp_path / "huge.json"
    doc.write_text('{"genus": 100000, "twists": [{"base": "c1"}]}')
    result = _run_under_address_limit(256, """
        import sys
        from lefschetz.cli import main

        sys.exit(main(sys.argv[1:]))
    """, command, str(doc))
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: genus above 100 is not supported\n"


def test_feasibility_csv_deterministic(capsys):
    assert main(["feasibility", "--n-max", "8", "--s-max", "6"]) == 0
    first = capsys.readouterr().out
    assert main(["feasibility", "--n-max", "8", "--s-max", "6"]) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "n,s,status,b1_forced,b2_plus"


def test_feasibility_svg_to_file_prints_nothing(tmp_path, capsys):
    chart = tmp_path / "chart.svg"
    assert main(["feasibility", "--n-max", "8", "--s-max", "6",
                 "--format", "svg", "-o", str(chart)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["feasibility", "--n-max", "8", "--s-max", "6",
                 "--format", "svg"]) == 0
    assert chart.read_text() == capsys.readouterr().out
    assert chart.read_text().startswith("<svg ")


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


# Standard output of the commands that read a word's class list, on
# every catalog word: how the classes are computed must not change a
# byte of it.
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "catalog_cli.json").read_text())
GOLDEN_COMMANDS = (["type"], ["invariants"], ["basis-pairs"],
                   ["transitivity", "--primes", "2,3"])


@pytest.mark.parametrize("name", [
    e.name for e in catalog.list_entries() if e.kind == "factorization"])
@pytest.mark.parametrize("command", GOLDEN_COMMANDS, ids=lambda c: c[0])
def test_catalog_word_output_is_pinned(name, command, capsys):
    argv = [command[0], f"catalog:{name}", *command[1:]]
    expected = GOLDEN[" ".join(argv)]
    assert main(argv) == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]
