import pytest

from lefschetz.feasibility import (
    admissible,
    b2plus,
    b2plus_one_types,
    emit_chart,
    enumerate_types,
    family_invariants,
    indecomposability_check,
)


def test_admissible_known_points():
    for n, s in ((4, 3), (6, 2), (20, 0), (6, 7)):
        assert admissible(n, s).admissible
    # below the sharp line
    assert not admissible(2, 0).admissible
    # fails the congruence
    assert not admissible(5, 0).admissible
    # 3n + s = 5 is a multiple of 5, but n + 2s = 5 is not one of 10
    assert admissible(1, 2).mod10_ok is False


def test_admissible_status_strings():
    assert admissible(4, 3).status == "known"
    assert admissible(6, 7).status == "unknown"
    assert admissible(2, 0).status == "inadmissible"


def test_b2plus_values():
    assert b2plus(6, 2, 2) == 1
    assert b2plus(20, 0, 0) == 1
    assert b2plus(6, 7, 2) == 3
    with pytest.raises(ValueError):
        b2plus(7, 0, 0)


def test_b2plus_one_types_lists_nine():
    reports = b2plus_one_types()
    assert len(reports) == 9
    table = {(r.n, r.s): r.b1_forced for r in reports}
    assert table == {
        (4, 3): 2,
        (6, 2): 2,
        (8, 6): 0,
        (10, 5): 0,
        (12, 4): 0,
        (14, 3): 0,
        (16, 2): 0,
        (18, 1): 0,
        (20, 0): 0,
    }


def test_family_invariants_on_the_sharp_line():
    r = family_invariants(2)
    assert (r.n, r.s) == (4, 3)
    assert (r.b2, r.b2_plus, r.b2_minus) == (5, 1, 4)
    r = family_invariants(3)
    assert (r.n, r.s) == (6, 7)
    assert (r.b2, r.b2_plus, r.b2_minus) == (11, 3, 8)
    for k in range(2, 11):
        r = family_invariants(k)
        assert 2 * r.n - r.s == 5
        assert r.b1 == 2
        assert r.b2_minus == r.s + 1
    with pytest.raises(ValueError):
        family_invariants(1)


def test_indecomposability_on_and_off_the_line():
    cert = indecomposability_check(4, 3)
    assert cert.verdict == "indecomposable"
    split = indecomposability_check(12, 4)
    assert split.verdict == "inconclusive"
    assert ((6, 2), (6, 2)) in split.splits
    with pytest.raises(ValueError):
        indecomposability_check(2, 0)


def test_enumerate_types_window():
    reports = enumerate_types(20, 15)
    assert all(r.admissible for r in reports)
    known = {(r.n, r.s) for r in reports if r.status == "known"}
    assert (4, 3) in known
    assert (6, 7) not in known
    assert {(r.n, r.s) for r in reports if r.status == "unknown"} >= {(6, 7)}
    with pytest.raises(ValueError):
        enumerate_types(500, 15)
    for n_max, s_max in ((-5, 6), (8, -1), (-1, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_types(n_max, s_max)


def test_admissible_status_matches_the_chart():
    for r in enumerate_types(40, 15):
        assert admissible(r.n, r.s).status == r.status, (r.n, r.s)
    assert admissible(30, 0).status == "known"
    assert admissible(40, 0).status == "known"


def test_emit_chart_csv_and_svg():
    reports = enumerate_types(8, 8)
    csv = emit_chart(reports, "csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "n,s,status,b1_forced,b2_plus"
    assert "4,3,known,2,1" in lines
    svg = emit_chart(reports, "svg")
    assert svg.startswith("<svg")
    # the two reference lines ship as the red and blue strokes
    assert "red" in svg and "blue" in svg
    with pytest.raises(ValueError):
        emit_chart(reports, "png")


def test_emit_chart_is_deterministic():
    reports = enumerate_types(12, 10)
    assert emit_chart(reports, "csv") == emit_chart(list(reversed(reports)), "csv")
