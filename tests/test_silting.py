from itertools import combinations

import pytest

from silted.arcatalog import knit_catalog
from silted.quivers import b_reversed_quiver, d_linear_quiver, line_quiver
from silted.silting import (
    CompatibilityGraph,
    completions,
    enumerate_tilting_modules,
    enumerate_two_term_silting,
    is_presilting,
    is_silting,
    is_two_term_tilting,
    silting_to_json,
    two_term,
)


def test_all_projectives_and_all_shifts_are_silting():
    cat = knit_catalog(d_linear_quiver(4))
    projs = [cat.proj(v) for v in cat.q.vertices]
    assert is_silting(two_term(projs, []), cat)
    assert is_silting(two_term([], list(cat.q.vertices)), cat)


def test_constructed_presilting_violation():
    cat = knit_catalog(line_quiver(3))
    m = cat.by_dim[(1, 1, 1)]  # P(1), nonzero at vertex 1
    assert not is_presilting(two_term([m], [1]), cat)


def test_silting_needs_full_size():
    cat = knit_catalog(line_quiver(3))
    projs = [cat.proj(v) for v in cat.q.vertices]
    assert is_presilting(two_term(projs[:2], []), cat)
    assert not is_silting(two_term(projs[:2], []), cat)


def test_two_term_object_validation():
    with pytest.raises(ValueError):
        two_term([1, 1], [])
    with pytest.raises(ValueError):
        two_term([], [2, 2])


def test_silting_counts_small():
    assert len(enumerate_two_term_silting(knit_catalog(line_quiver(1)))) == 2
    assert len(enumerate_two_term_silting(knit_catalog(line_quiver(2)))) == 5
    assert len(enumerate_two_term_silting(knit_catalog(d_linear_quiver(4)))) == 50


def test_tilting_counts_catalan():
    for n, want in [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42), (6, 132)]:
        cat = knit_catalog(line_quiver(n))
        assert len(enumerate_tilting_modules(cat)) == want


def test_enumeration_against_subset_oracle_lambda4():
    """Brute force over all size-n candidate subsets must agree exactly."""
    cat = knit_catalog(d_linear_quiver(4))
    n = 4
    candidates = [("m", x) for x in range(len(cat))] + [("s", v) for v in cat.q.vertices]
    oracle = set()
    for combo in combinations(candidates, n):
        mods = [x for (k, x) in combo if k == "m"]
        shifts = [v for (k, v) in combo if k == "s"]
        s = two_term(mods, shifts)
        if is_presilting(s, cat):
            oracle.add(s)
    enumerated = set(enumerate_two_term_silting(cat))
    assert enumerated == oracle


def test_compatibility_symmetric():
    cat = knit_catalog(d_linear_quiver(4))
    g = CompatibilityGraph(cat)
    for i in range(g.size):
        for j in range(g.size):
            assert bool(g.adj[i] >> j & 1) == bool(g.adj[j] >> i & 1)


def test_every_silting_object_has_full_size():
    cat = knit_catalog(d_linear_quiver(5))
    for s in enumerate_two_term_silting(cat):
        assert s.size == 5


def test_tilting_modules_are_ext_rigid():
    # a silting object with empty shifted part is a tilting module
    cat = knit_catalog(d_linear_quiver(4))
    for t in enumerate_tilting_modules(cat):
        for x in t.modules:
            for y in t.modules:
                assert cat.ext1_dim(x, y) == 0


def test_two_term_tilting():
    cat = knit_catalog(d_linear_quiver(4))
    projs = [cat.proj(v) for v in cat.q.vertices]
    assert is_two_term_tilting(two_term(projs, []), cat)
    assert is_two_term_tilting(two_term([], list(cat.q.vertices)), cat)
    with pytest.raises(ValueError):
        is_two_term_tilting(two_term(projs[:2], []), cat)


def test_mutation_two_completions():
    """Removing one summand of a silting object leaves exactly two ways back."""
    for q in (line_quiver(2), line_quiver(3), line_quiver(4), d_linear_quiver(4)):
        cat = knit_catalog(q)
        graph = CompatibilityGraph(cat)
        for s in enumerate_two_term_silting(cat, graph):
            for summand in s.summands():
                comps = completions(cat, graph, s, summand)
                assert len(comps) == 2
                assert s in comps


def test_silting_json():
    cat = knit_catalog(line_quiver(2))
    doc = silting_to_json(cat, enumerate_two_term_silting(cat))
    assert len(doc) == 5
    assert all(set(d) == {"modules", "shifted"} for d in doc)
