import pytest
from hypothesis import given, strategies as st

from tmperc import template as tpl


def relabeled(template, perm):
    """The template with cluster i renamed perm[i]."""
    new = [frozenset()] * template.k
    for i, nbrs in enumerate(template.neighbors):
        new[perm[i]] = frozenset(perm[j] for j in nbrs)
    return tpl.TemplateGraph(template.k, tuple(new))


def test_single_is_one_selfloop_cluster():
    single = tpl.make_single()
    assert single.k == 1
    assert single.k_p == 1
    assert single.k_q == 0
    assert 0 in single.neighbors[0]


def test_ring_examples():
    assert tpl.make_ring(10, 1).k_p == 3
    ring20 = tpl.make_ring(20, 1)
    assert ring20.k_p == 3
    assert ring20.k_q == 17
    assert sorted(tpl.make_ring(3, 1).neighbors[0]) == [0, 1, 2]


def test_ring_rejects_overlapping_reach():
    with pytest.raises(ValueError):
        tpl.make_ring(4, 2)
    with pytest.raises(ValueError):
        tpl.make_ring(2, 1)


def test_cube3():
    cube = tpl.make_cube3()
    assert cube.k == 8
    assert cube.k_p == 4
    assert sorted(cube.neighbors[0]) == [0, 1, 2, 4]


def test_planted():
    planted = tpl.make_planted(5)
    assert planted.k_p == 1
    assert planted.k_q == 4
    assert tpl.make_planted(1) == tpl.make_single()


# construction rejects a broken template, so one never exists


def test_validate_detects_symmetry_violation():
    with pytest.raises(ValueError, match="invalid template: symmetry"):
        tpl.TemplateGraph(2, (frozenset({0, 1}), frozenset({1})))


def test_validate_detects_regularity_violation():
    with pytest.raises(ValueError, match="invalid template: regularity"):
        tpl.TemplateGraph(3, (frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({1, 2})))


def test_validate_detects_missing_self_membership():
    with pytest.raises(ValueError, match="invalid template: self-membership"):
        tpl.TemplateGraph(2, (frozenset({1}), frozenset({0})))


def test_validate_detects_bounds_violations():
    with pytest.raises(ValueError, match="invalid template: bounds"):
        tpl.TemplateGraph(2, (frozenset({0, 2}), frozenset({1})))
    with pytest.raises(ValueError, match="invalid template: bounds"):
        tpl.make_planted(0)


def test_from_neighbors_accepts_valid_and_rejects_invalid():
    custom = tpl.from_neighbors({0: {0, 1}, 1: {0, 1}})
    assert custom.k_p == 2
    with pytest.raises(ValueError):
        tpl.from_neighbors({0: {0, 1}, 1: {1}})
    with pytest.raises(ValueError):
        tpl.from_neighbors({0: {0}, 2: {2}})


@given(st.integers(0, 5), st.integers(0, 30))
def test_ring_degree_property(reach, extra):
    k = 2 * reach + 1 + extra
    ring = tpl.make_ring(k, reach)
    assert ring.k_p == 2 * reach + 1
    # the same neighborhoods without cluster 0's self-membership do not construct
    broken = (ring.neighbors[0] - {0},) + ring.neighbors[1:]
    with pytest.raises(ValueError, match="invalid template"):
        tpl.TemplateGraph(k, broken)


def test_ring_rotation_invariance():
    ring = tpl.make_ring(10, 2)
    rotated = relabeled(ring, {i: (i + 3) % 10 for i in range(10)})
    assert rotated.neighbors == ring.neighbors


def test_cube_bit_permutation_invariance():
    cube = tpl.make_cube3()
    # swap bit 0 and bit 2 of every label
    perm = {}
    for i in range(8):
        b0, b1, b2 = i & 1, (i >> 1) & 1, (i >> 2) & 1
        perm[i] = b2 | (b1 << 1) | (b0 << 2)
    assert relabeled(cube, perm).neighbors == cube.neighbors


def test_every_builder_validates():
    # each builder's neighborhoods survive a fresh construction, which checks every rule
    for built in (
        tpl.make_single(),
        tpl.make_ring(10, 1),
        tpl.make_ring(7, 3),
        tpl.make_cube3(),
        tpl.make_planted(4),
    ):
        assert tpl.TemplateGraph(built.k, built.neighbors) == built


def test_validate_battery_reports_a_builder_that_fails_construction(monkeypatch):
    from tmperc import checks

    assert checks.check_templates() == ("template-builders", True, "5 builders valid")
    monkeypatch.setattr(tpl, "make_cube3", lambda: tpl.TemplateGraph(2, (frozenset({1}), frozenset({0}))))
    name, ok, detail = checks.check_templates()
    assert (name, ok) == ("template-builders", False)
    assert detail.startswith("invalid template: self-membership")
