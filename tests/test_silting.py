import random
from itertools import combinations

import pytest

from silted.arcatalog import ARCatalog, knit_catalog
from silted.quivers import b_reversed_quiver, d_linear_quiver, d_reversed_quiver, line_quiver
from silted.silting import (
    MOD,
    SHIFT,
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


def _tau_orthogonal_reference(cat, x, y):
    """Hom(X, tau Y) = 0, tau of a projective read as 0, from hom_dim."""
    return cat.is_projective(y) or cat.hom_dim(x, cat.tau(y)) == 0


def _presilting_reference(cat, s):
    """Pairwise presilting test of s, independent of the catalog's table."""
    for x in s.modules:
        for y in s.modules:
            if not _tau_orthogonal_reference(cat, x, y):
                return False
    for v in s.shifted:
        if cat.proj(v) in s.modules:
            return False
        if any(cat.indecs[x].dims[v] != 0 for x in s.modules):
            return False
    return True


FIVE_VERTEX_QUIVERS = [d_linear_quiver(5), d_reversed_quiver(5), b_reversed_quiver(5)]


@pytest.mark.parametrize("q", FIVE_VERTEX_QUIVERS, ids=["lambda5", "gamma5", "b5"])
def test_tau_orthogonality_table_matches_pairwise_oracle(q):
    cat = knit_catalog(q)
    for x in range(len(cat)):
        row = cat.tau_orthogonal(x)
        assert row >> len(cat) == 0
        for y in range(len(cat)):
            assert bool(row >> y & 1) == _tau_orthogonal_reference(cat, x, y), (x, y)


@pytest.mark.parametrize("q", FIVE_VERTEX_QUIVERS, ids=["lambda5", "gamma5", "b5"])
def test_is_presilting_matches_pairwise_reference_on_random_subsets(q):
    cat = knit_catalog(q)
    n = len(cat.q.vertices)
    rng = random.Random(20250905)
    silts = enumerate_two_term_silting(cat)
    seen = {True: 0, False: 0}
    for _ in range(400):
        if rng.random() < 0.5:
            # part of a silting object, sometimes with one summand added
            base = rng.choice(silts)
            mods = rng.sample(base.modules, rng.randint(0, len(base.modules)))
            shifts = rng.sample(base.shifted, rng.randint(0, len(base.shifted)))
            if rng.random() < 0.5:
                if rng.random() < 0.5:
                    mods = sorted(set(mods) | {rng.randrange(len(cat))})
                else:
                    shifts = sorted(set(shifts) | {rng.choice(cat.q.vertices)})
        else:
            mods = rng.sample(range(len(cat)), rng.randint(0, n))
            shifts = rng.sample(list(cat.q.vertices), rng.randint(0, n - len(mods)))
        s = two_term(mods, shifts)
        want = _presilting_reference(cat, s)
        assert is_presilting(s, cat) == want, s
        seen[want] += 1
    assert seen[True] > 50 and seen[False] > 50


@pytest.mark.parametrize(
    "q", [d_linear_quiver(6), d_reversed_quiver(6), b_reversed_quiver(6)],
    ids=["lambda6", "gamma6", "b6"],
)
def test_enumeration_reads_hom_bases_at_most_once_per_pair(q, monkeypatch):
    cat = knit_catalog(q)
    calls = [0]
    orig = ARCatalog.hom_basis

    def counted(self, x, y):
        calls[0] += 1
        return orig(self, x, y)

    monkeypatch.setattr(ARCatalog, "hom_basis", counted)
    enumerate_two_term_silting(cat)
    assert 0 < calls[0] <= len(cat) ** 2


def _graph_with_one_incompatible_clique(cat, include_shifts):
    """A graph whose cliques also include one n-set that is not presilting."""
    graph = CompatibilityGraph(cat, include_shifts=include_shifts)
    n = len(cat.q.vertices)
    bad = next(
        c for c in combinations(range(len(cat)), n)
        if not _presilting_reference(cat, two_term(c))
    )
    bits = sum(1 << x for x in bad)
    real = graph.cliques_of_size
    graph.cliques_of_size = lambda k: real(k) + [bits]
    return graph


def test_silting_enumeration_rejects_an_incompatible_clique():
    cat = knit_catalog(d_linear_quiver(4))
    graph = _graph_with_one_incompatible_clique(cat, include_shifts=True)
    with pytest.raises(AssertionError, match="non-silting"):
        enumerate_two_term_silting(cat, graph)


def test_tilting_enumeration_rejects_an_incompatible_clique():
    cat = knit_catalog(d_linear_quiver(4))
    graph = _graph_with_one_incompatible_clique(cat, include_shifts=False)
    with pytest.raises(AssertionError, match="non-silting"):
        enumerate_tilting_modules(cat, graph)


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


@pytest.mark.parametrize(
    "q", [d_linear_quiver(5), d_reversed_quiver(5), b_reversed_quiver(5), line_quiver(5)]
)
def test_tilting_modules_are_the_silting_objects_without_shifts(q):
    cat = knit_catalog(q)
    want = [s for s in enumerate_two_term_silting(cat) if not s.shifted]
    assert enumerate_tilting_modules(cat) == want


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
        if _presilting_reference(cat, s):
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
        for s in enumerate_two_term_silting(cat):
            for summand in s.summands():
                comps = completions(graph, s, summand)
                assert len(comps) == 2
                assert s in comps


def _completions_by_scan(cat, s, removed):
    """The silting objects holding every summand of s but `removed`, found
    by trying every catalog module and every vertex with is_silting."""
    rest = [t for t in s.summands() if t != removed]
    mods = [x for kind, x in rest if kind == MOD]
    shifts = [v for kind, v in rest if kind == SHIFT]
    cands = [two_term(mods + [x], shifts) for x in range(len(cat)) if x not in mods]
    cands += [two_term(mods, shifts + [v]) for v in cat.q.vertices if v not in shifts]
    return [t for t in cands if is_silting(t, cat)]


@pytest.mark.parametrize(
    "q, checks",
    [
        (d_linear_quiver(5), 910),
        (d_reversed_quiver(5), 910),
        (line_quiver(5), 660),
        (b_reversed_quiver(5), 660),
    ],
    ids=["lambda5", "gamma5", "a5", "b5"],
)
def test_completions_match_the_catalog_scan(q, checks):
    """On every almost-complete object, the common neighbours in the
    compatibility graph are the completions a scan of the catalog finds,
    and there are exactly two of them (Adachi-Iyama-Reiten mutation)."""
    cat = knit_catalog(q)
    graph = CompatibilityGraph(cat)
    seen = 0
    for s in enumerate_two_term_silting(cat, graph):
        for summand in s.summands():
            comps = completions(graph, s, summand)
            assert comps == _completions_by_scan(cat, s, summand)
            assert len(comps) == 2 and s in comps
            seen += 1
    assert seen == checks


def test_silting_json():
    cat = knit_catalog(line_quiver(2))
    doc = silting_to_json(cat, enumerate_two_term_silting(cat))
    assert len(doc) == 5
    assert all(set(d) == {"modules", "shifted"} for d in doc)
