import re

import pytest

from lefschetz.feasibility import (
    admissible,
    b2plus,
    b2plus_one_types,
    emit_chart,
    enumerate_types,
    family_invariants,
    indecomposability_check,
    signature,
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
    with pytest.raises(ValueError) as info:
        b2plus(7, 0, 0)
    assert str(info.value) == (
        "3n + s = 21 is not divisible by 5; "
        "no genus-2 Lefschetz fibration has type (7, 0)")


def test_signature_and_b2plus_match_the_closed_forms():
    # The old closed forms are the oracles: sigma = -(3n + s)/5 and
    # b2+ = (n + 2s)/5 + b1 - 3, both integers exactly where 5 | n + 2s.
    for n in range(101):
        for s in range(101):
            if (n + 2 * s) % 5:
                with pytest.raises(ValueError, match="not divisible by 5"):
                    signature(n, s)
                for b1 in (0, 1, 2):
                    with pytest.raises(ValueError, match="not divisible by 5"):
                        b2plus(n, s, b1)
                continue
            assert signature(n, s) * 5 == -(3 * n + s)
            for b1 in (0, 1, 2):
                assert b2plus(n, s, b1) == (n + 2 * s) // 5 + b1 - 3


def test_sharp_line_is_the_separating_cycle_bound_at_b1_two():
    # b2- >= s + 1 with b2- = b2 - b2+ and b2 = n + s - 6 + 2 b1 at b1 = 2
    for n in range(101):
        for s in range(101):
            if (n + 2 * s) % 5:
                continue
            b2_minus = n + s - 2 - b2plus(n, s, 2)
            assert (b2_minus >= s + 1) == (2 * n - s >= 5), (n, s)


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
    for k in range(2, 61):
        r = family_invariants(k)
        assert 2 * r.n - r.s == 5
        assert r.b2_minus == r.s + 1
        assert (r.euler, r.signature, r.b2, r.b2_plus, r.b2_minus, r.b1) == (
            6 * k - 9, 1 - 2 * k, 6 * k - 7, 2 * k - 3, 4 * k - 4, 2), k
    for k in (1, 2.5):
        with pytest.raises(ValueError, match="^the family starts at k = 2$"):
            family_invariants(k)


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
    csv = emit_chart(reports, 8, 8, "csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "n,s,status,b1_forced,b2_plus"
    assert "4,3,known,2,1" in lines
    svg = emit_chart(reports, 8, 8, "svg")
    assert svg.startswith("<svg")
    # the two reference lines ship as the red and blue strokes
    assert "red" in svg and "blue" in svg
    with pytest.raises(ValueError):
        emit_chart(reports, 8, 8, "png")


def test_svg_frames_the_requested_window():
    svg = emit_chart(enumerate_types(5, 3), 5, 3, "svg")
    assert 'width="200" height="152"' in svg
    # at (1, 0) both reference lines start right of the window: no stroke
    # may run backwards, and none is drawn
    svg = emit_chart(enumerate_types(1, 0), 1, 0, "svg")
    segments = re.findall(r'<line x1="([\d.]+)" y1="[\d.]+" x2="([\d.]+)"',
                          svg)
    assert all(float(x1) <= float(x2) for x1, x2 in segments)
    assert "red" not in svg and "blue" not in svg


def test_emit_chart_is_deterministic():
    reports = enumerate_types(12, 10)
    assert emit_chart(reports, 12, 10, "csv") == emit_chart(
        list(reversed(reports)), 12, 10, "csv")
