import re
import subprocess
import sys
from pathlib import Path

import pytest

import lefschetz
from lefschetz.monodromy import Curve, Factorization
from lefschetz.surface import algebraic_intersection, label_classes

SRC = Path(lefschetz.__file__).resolve().parent


def test_algebraic_intersection_bilinear():
    a1 = (1, 0, 0, 0)
    b1 = (0, 1, 0, 0)
    a2 = (0, 0, 1, 0)
    b2 = (0, 0, 0, 1)
    assert algebraic_intersection(a1, b1) == -1
    assert algebraic_intersection(b1, a1) == 1
    assert algebraic_intersection(a2, b2) == -1
    assert algebraic_intersection(b2, a2) == 1
    assert algebraic_intersection((1, 0, 1, 0), (0, 1, 0, 1)) == -2
    basis = (a1, b1, a2, b2)
    for u in basis:
        assert algebraic_intersection(u, u) == 0
        for v in basis:
            assert algebraic_intersection(u, v) == -algebraic_intersection(v, u)
    # the two handles are orthogonal
    for u in (a1, b1):
        for v in (a2, b2):
            assert algebraic_intersection(u, v) == 0


def test_label_classes_genus_two():
    s = label_classes(2)
    assert len(s["c1"]) == 4
    assert tuple(s) == ("c1", "c2", "c3", "c4", "c5", "s1")


def test_label_classes_values():
    s = label_classes(2)
    assert s["c1"] == (1, 0, 0, 0)
    assert s["c2"] == (0, 1, 0, 0)
    assert s["c3"] == (1, 0, 1, 0)
    assert s["c4"] == (0, 0, 0, 1)
    assert s["c5"] == (0, 0, 1, 0)
    assert s["s1"] == (0, 0, 0, 0)


def test_chain_curve_classes_intersect_like_a_chain():
    s = label_classes(2)
    chain = [s[f"c{i}"] for i in range(1, 6)]
    for i, u in enumerate(chain):
        for j, v in enumerate(chain):
            expected = 1 if j == i + 1 else -1 if j == i - 1 else 0
            assert abs(algebraic_intersection(u, v)) == abs(expected)


def test_genus_three_has_seven_chain_curves():
    s = label_classes(3)
    assert tuple(s) == tuple(f"c{i}" for i in range(1, 8)) + ("s1", "s2")
    assert len(s["c1"]) == 6


def test_genus_zero_rejected():
    with pytest.raises(ValueError):
        label_classes(0)


def test_genus_above_one_hundred_rejected():
    assert len(label_classes(100)["c1"]) == 200
    with pytest.raises(ValueError, match="genus above 100"):
        label_classes(101)


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_labels_are_the_class_table_in_label_order(genus):
    chain = tuple(f"c{i}" for i in range(1, 2 * genus + 2))
    separating = tuple(f"s{h}" for h in range(1, genus))
    assert tuple(label_classes(genus)) == chain + separating


def test_the_shared_class_table_cannot_be_changed():
    # One table per genus is cached and shared; a caller that could write
    # to it would make a bad label valid for the rest of the process.
    table = label_classes(2)
    with pytest.raises(TypeError):
        table["c9"] = (0, 0, 0, 0)
    assert label_classes(2) is table and "c9" not in table
    with pytest.raises(ValueError, match="unknown curve label 'c9'"):
        Factorization(2, (Curve("c9"),))


def _package_modules_loaded_by(module: str) -> set[str]:
    # The package's __init__ imports every module, so a stub package with
    # the same path stands in for it: only the named module's own imports
    # then load.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('lefschetz')\n"
        f"pkg.__path__ = [{str(SRC)!r}]\n"
        "sys.modules['lefschetz'] = pkg\n"
        f"import lefschetz.{module}\n"
        "print(*(m for m in sys.modules if m.startswith('lefschetz.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_surface_does_not_import_the_free_group_model():
    assert "lefschetz.freegroup" not in _package_modules_loaded_by("surface")
    # the probe can see an import
    assert "lefschetz.freegroup" in _package_modules_loaded_by("monodromy")


def test_feasibility_is_a_leaf_module():
    # invariants reads the type arithmetic from feasibility, never the
    # reverse, so feasibility loads no other module of the package
    loaded = _package_modules_loaded_by("feasibility")
    assert loaded == {"lefschetz.feasibility"}
    assert "lefschetz.feasibility" in _package_modules_loaded_by("invariants")


def test_removed_wrappers_are_gone_from_the_package():
    removed = re.compile(r"standard_surface|\bSurface\b|\btwist_endo"
                         r"|identity_endo|presentation_h1|abelianize")
    hits = [f"{path.name}:{n}"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text("utf-8").splitlines(), 1)
            if removed.search(line)]
    assert hits == []
