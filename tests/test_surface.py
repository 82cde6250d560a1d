import pytest

from lefschetz.surface import algebraic_intersection, standard_surface


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


def test_standard_surface_labels():
    s = standard_surface(2)
    assert len(s.class_of("c1")) == 4
    assert s.labels == ("c1", "c2", "c3", "c4", "c5", "s1")


def test_standard_surface_classes():
    s = standard_surface(2)
    assert s.class_of("c1") == (1, 0, 0, 0)
    assert s.class_of("c2") == (0, 1, 0, 0)
    assert s.class_of("c3") == (1, 0, 1, 0)
    assert s.class_of("c4") == (0, 0, 0, 1)
    assert s.class_of("c5") == (0, 0, 1, 0)
    assert s.class_of("s1") == (0, 0, 0, 0)


def test_chain_curve_classes_intersect_like_a_chain():
    s = standard_surface(2)
    chain = [s.class_of(f"c{i}") for i in range(1, 6)]
    for i, u in enumerate(chain):
        for j, v in enumerate(chain):
            expected = 1 if j == i + 1 else -1 if j == i - 1 else 0
            assert abs(algebraic_intersection(u, v)) == abs(expected)


def test_genus_three_has_seven_chain_curves():
    s = standard_surface(3)
    assert s.labels == tuple(f"c{i}" for i in range(1, 8)) + ("s1", "s2")
    assert len(s.class_of("c1")) == 6


def test_genus_zero_rejected():
    with pytest.raises(ValueError):
        standard_surface(0)


def test_genus_above_one_hundred_rejected():
    assert len(standard_surface(100).class_of("c1")) == 200
    with pytest.raises(ValueError, match="genus above 100"):
        standard_surface(101)


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_labels_are_the_class_table_in_label_order(genus):
    s = standard_surface(genus)
    chain = tuple(f"c{i}" for i in range(1, 2 * genus + 2))
    separating = tuple(f"s{h}" for h in range(1, genus))
    assert s.labels == chain + separating
    assert tuple(s.curve_classes) == s.labels
