import json
import random
from collections import Counter

import pytest

import silted.quivers
from silted.quivers import (
    Arrow,
    _gldim_by_resolution,
    _ideal_words,
    _pds_from_dimensions,
    _solve_rescaling,
    Path,
    Quiver,
    QuiverWithRelations,
    Relation,
    are_isomorphic,
    b_reversed_quiver,
    connected_components,
    d_linear_quiver,
    d_reversed_quiver,
    global_dimension,
    is_gentle,
    is_string_algebra,
    iso_fingerprint,
    line_quiver,
    monomial_relation,
    paths_between,
    qwr_to_json,
    trivial_path,
    zero_paths,
)
from silted.realization import is_gradable
from fractions import Fraction

from oracles import effective_intersection_count


def path(q, *arrow_ids):
    arrows = [q.arrow_by_id[i] for i in arrow_ids]
    p = Path(arrows[0].src, arrows[0].tgt, (arrows[0].id,))
    for a in arrows[1:]:
        p = p.then(Path(a.src, a.tgt, (a.id,)))
    return p


def square_qwr(diff=True, coef=None):
    """Commutative square 1 -> {2,3} -> 4 with p - q (or p + q, or
    p + coef q) killed."""
    q = Quiver([1, 2, 3, 4], [Arrow(1, 1, 2), Arrow(2, 1, 3), Arrow(3, 2, 4), Arrow(4, 3, 4)])
    p1 = path(q, 1, 3)
    p2 = path(q, 2, 4)
    if coef is None:
        coef = Fraction(-1 if diff else 1)
    rel = Relation(((1, p1), (coef, p2)))
    return QuiverWithRelations(q, [rel])


# ---- paths_between ---------------------------------------------------------


def test_paths_between_unique_composable():
    q = line_quiver(3)  # arrows 2->1 (id 1), 3->2 (id 2)
    qwr = QuiverWithRelations(q)
    assert len(paths_between(qwr, 3, 1)) == 1


def test_paths_between_killed_by_relation():
    q = line_quiver(3)
    rel = monomial_relation(path(q, 2, 1))
    qwr = QuiverWithRelations(q, [rel])
    assert paths_between(qwr, 3, 1) == []


def test_paths_between_commutative_square():
    assert len(paths_between(square_qwr(), 1, 4)) == 1


def test_paths_between_unknown_vertex():
    with pytest.raises(KeyError):
        paths_between(QuiverWithRelations(line_quiver(2)), 1, 9)


# ---- string / gentle -------------------------------------------------------


def overlap_line():
    """4-vertex line with two overlapping quadratic zero relations."""
    q = line_quiver(4)  # arrows i+1 -> i, ids 1..3
    r1 = monomial_relation(path(q, 2, 1))
    r2 = monomial_relation(path(q, 3, 2))
    return QuiverWithRelations(q, [r1, r2])


def test_string_hereditary_line():
    assert is_string_algebra(QuiverWithRelations(line_quiver(4)))


def test_string_overlap_line():
    assert is_string_algebra(overlap_line())


def test_string_fails_at_triple_star():
    q = Quiver([1, 2, 3, 4], [Arrow(1, 1, 4), Arrow(2, 2, 4), Arrow(3, 3, 4)])
    assert not is_string_algebra(QuiverWithRelations(q))


def test_string_fails_on_commutativity_relation():
    assert not is_string_algebra(square_qwr())


def test_gentle():
    assert is_gentle(QuiverWithRelations(line_quiver(5)))
    assert is_gentle(overlap_line())
    q = line_quiver(4)
    cubic = monomial_relation(path(q, 3, 2, 1))
    assert is_string_algebra(QuiverWithRelations(q, [cubic]))
    assert not is_gentle(QuiverWithRelations(q, [cubic]))
    # arrow 1 has two killed continuations
    fork = Quiver([1, 2, 3, 4], [Arrow(1, 1, 2), Arrow(2, 2, 3), Arrow(3, 2, 4)])
    killed = QuiverWithRelations(fork, [monomial_relation(path(fork, 1, 2)), monomial_relation(path(fork, 1, 3))])
    assert is_string_algebra(killed)
    assert not is_gentle(killed)


def test_non_minimal_relations_read_as_their_minimal_words():
    q = line_quiver(4)
    minimal = QuiverWithRelations(q, [monomial_relation(path(q, 3, 2))])
    padded = QuiverWithRelations(q, [monomial_relation(path(q, 3, 2)), monomial_relation(path(q, 3, 2, 1))])
    for qwr in (minimal, padded):
        assert _ideal_words(qwr) == {(3, 2)}
        assert is_string_algebra(qwr)
        assert is_gentle(qwr)
        assert global_dimension(qwr) == _gldim_by_resolution(qwr) == 2


def test_monomial_ideal_from_a_non_monomial_presentation():
    """[p - q, q] on the commutative square kills p and q, as [p, q] does."""
    sq = square_qwr()
    p1, p2 = (term[1] for term in sq.relations[0].terms)
    mixed = QuiverWithRelations(sq.quiver, [sq.relations[0], monomial_relation(p2)])
    zero = QuiverWithRelations(sq.quiver, [monomial_relation(p1), monomial_relation(p2)])
    assert _ideal_words(mixed) == _ideal_words(zero) == {(1, 3), (2, 4)}
    for qwr in (mixed, zero):
        assert is_string_algebra(qwr)
        assert is_gentle(qwr)
        assert global_dimension(qwr) == _gldim_by_resolution(qwr) == 2


def test_gentle_implies_string_sampled():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 6)
        q = line_quiver(n)
        rels = []
        for i in range(1, n - 1):
            if rng.random() < 0.4:
                rels.append(monomial_relation(path(q, i + 1, i)))
        qwr = QuiverWithRelations(q, rels)
        if is_gentle(qwr):
            assert is_string_algebra(qwr)


# ---- global dimension ------------------------------------------------------


def test_gldim_hereditary():
    assert global_dimension(QuiverWithRelations(line_quiver(4))) == 1
    assert global_dimension(QuiverWithRelations(d_linear_quiver(5))) == 1


def test_gldim_no_arrows():
    q = Quiver([1, 2], [])
    assert global_dimension(QuiverWithRelations(q)) == 0


def test_gldim_composite_relation():
    q = line_quiver(3)
    rel = monomial_relation(path(q, 2, 1))
    assert global_dimension(QuiverWithRelations(q, [rel])) == 2


def test_gldim_overlap_line_is_three():
    assert global_dimension(overlap_line()) == 3


def test_gldim_of_hand_built_monomial_ideals():
    line = line_quiver(4)
    d6 = d_linear_quiver(6)  # 3 -> 1 (1), 3 -> 2 (2), then i+1 -> i (i) down the tail
    two = Quiver([1, 2, 3, 4, 5], [Arrow(1, 2, 1), Arrow(2, 3, 2), Arrow(3, 5, 4)])
    cases = [
        (overlap_line(), 3),
        (QuiverWithRelations(line, [monomial_relation(path(line, 3, 2, 1))]), 2),
        # 6 -> 5 -> 4 -> 3 and 5 -> 4 -> 3 -> 1 overlap on 5 -> 4 -> 3
        (QuiverWithRelations(d6, [monomial_relation(path(d6, 5, 4, 3)), monomial_relation(path(d6, 4, 3, 1))]), 3),
        # the same chain continued by 4 -> 3 -> 2: the fork arrows stay apart
        (QuiverWithRelations(d6, [
            monomial_relation(path(d6, 5, 4, 3)),
            monomial_relation(path(d6, 4, 3, 1)),
            monomial_relation(path(d6, 3, 2)),
        ]), 3),
        (QuiverWithRelations(two, [monomial_relation(path(two, 2, 1))]), 2),
        (QuiverWithRelations(two), 1),
        (QuiverWithRelations(Quiver([1], [])), 0),
    ]
    for qwr, want in cases:
        assert _gldim_by_resolution(qwr) == want
        assert global_dimension(qwr) == want


def test_gldim_of_random_monomial_ideals_on_branching_quivers():
    """Random sets of zero paths on the D and B quivers, some holding a
    path and a longer path through it, agree with the full resolution;
    gldim 4 and 5 occur among them."""
    rng = random.Random(25)
    seen = Counter()
    for _ in range(200):
        q = rng.choice((d_linear_quiver, d_reversed_quiver, b_reversed_quiver))(rng.randint(4, 7))
        paths = [p for plist in q.path_table().values() for p in plist if p.length >= 2]
        share = rng.random()
        qwr = QuiverWithRelations(q, [monomial_relation(p) for p in paths if rng.random() < share])
        want = _gldim_by_resolution(qwr)
        assert global_dimension(qwr) == want
        seen[want] += 1
    assert seen[4] > 0 and seen[5] > 0


def test_gldim_commutativity_square_resolves(monkeypatch):
    """The square's gldim is read off dimensions, with no BoundAlgebra."""
    def no_algebra(qwr):
        raise AssertionError("built a BoundAlgebra")

    assert _gldim_by_resolution(square_qwr()) == 2
    assert _pds_from_dimensions(square_qwr()) == {1: 2, 2: 1, 3: 1, 4: 0}
    monkeypatch.setattr(silted.quivers, "BoundAlgebra", no_algebra)
    assert global_dimension(square_qwr()) == 2


def count_covers(monkeypatch):
    """The modules passed to projective_cover from now on."""
    calls = []
    real = silted.quivers.projective_cover

    def counting(alg, mod):
        calls.append(mod)
        return real(alg, mod)

    monkeypatch.setattr(silted.quivers, "projective_cover", counting)
    return calls


def test_square_then_arrow_with_overlapping_zero_relations_resolves_to_three(monkeypatch):
    """1 -> {2,3} -> 4 -> 5 with p - q killed at 1 -> 4 and both paths
    2 -> 4 -> 5 and 3 -> 4 -> 5 killed: Omega^2 S_1 is S_4, so pd S_1 = 3."""
    sq = square_qwr()
    q = Quiver(sq.quiver.vertices + (5,), sq.quiver.arrows + (Arrow(5, 4, 5),))
    qwr = QuiverWithRelations(q, [
        sq.relations[0],
        monomial_relation(path(q, 3, 5)),
        monomial_relation(path(q, 4, 5)),
    ])
    assert _ideal_words(qwr) is None
    assert _pds_from_dimensions(qwr) == {1: None, 2: 2, 3: 2, 4: 1, 5: 0}
    covers = count_covers(monkeypatch)
    assert global_dimension(qwr) == 3
    assert covers
    assert _gldim_by_resolution(qwr) == 3


def test_non_minimal_relations_fall_back_to_the_resolution(monkeypatch):
    """The square's relation twice: the onto map from P(4) + P(4) cannot be
    injective, so S_1 is left open and resolved."""
    sq = square_qwr()
    twice = Relation(tuple((2 * c, p) for c, p in sq.relations[0].terms))
    qwr = QuiverWithRelations(sq.quiver, [sq.relations[0], twice])
    assert _pds_from_dimensions(qwr) == {1: None, 2: 1, 3: 1, 4: 0}
    covers = count_covers(monkeypatch)
    assert global_dimension(qwr) == 2
    assert covers
    assert _gldim_by_resolution(qwr) == 2


# ---- effective intersections ----------------------------------------------


def interval_qwr(n, intervals):
    """Line on n+1 vertices (n arrows) with [i, j] interval relations.

    Positions are 1-based along the arrow flow; the line quiver used here
    runs n+1 -> n -> ... -> 1, so position k is vertex n + 2 - k.
    """
    q = line_quiver(n + 1)
    rels = []
    for (i, j) in intervals:
        arrow_ids = [n + 1 - k for k in range(i, j)]
        rels.append(monomial_relation(path(q, *arrow_ids)))
    return QuiverWithRelations(q, rels)


def test_effective_intersections_examples():
    assert effective_intersection_count(interval_qwr(4, [])) == 0
    one = interval_qwr(3, [(1, 3)])
    assert effective_intersection_count(one) == 1
    assert global_dimension(one) == 2
    two = interval_qwr(4, [(1, 3), (2, 4)])
    assert effective_intersection_count(two) == 2
    assert global_dimension(two) == 3


def test_effective_intersections_chain_membership_is_local():
    # p3 also meets p1, but the chain {p2, p3, p4} still acts effectively
    qwr = interval_qwr(9, [(1, 4), (2, 5), (3, 8), (6, 9)])
    n = effective_intersection_count(qwr)
    assert n == 3
    assert global_dimension(qwr) == n + 1


def test_effective_intersections_chain_may_skip_relations():
    # the maximal chain {p1, p2, p4} skips p3
    qwr = interval_qwr(8, [(1, 4), (2, 6), (3, 7), (4, 8)])
    n = effective_intersection_count(qwr)
    assert n == 3
    assert global_dimension(qwr) == n + 1


def test_effective_intersections_random_against_resolutions():
    rng = random.Random(11)
    for _ in range(80):
        arrows = rng.randint(2, 7)
        n_rel = rng.randint(1, 3)
        starts = sorted(rng.sample(range(1, arrows), min(n_rel, arrows - 1)))
        intervals = []
        last_end = 0
        for s in starts:
            e = rng.randint(s + 2, arrows + 1)
            if intervals and e <= intervals[-1][1]:
                continue
            intervals.append((s, e))
        if not intervals:
            continue
        qwr = interval_qwr(arrows, intervals)
        want = effective_intersection_count(qwr) + 1
        assert _gldim_by_resolution(qwr) == want
        assert global_dimension(qwr) == want


def test_effective_intersections_rejects_bad_input():
    with pytest.raises(ValueError):
        effective_intersection_count(QuiverWithRelations(d_linear_quiver(4)))
    with pytest.raises(ValueError):
        effective_intersection_count(square_qwr())


# ---- isomorphism -----------------------------------------------------------


def test_iso_reflexive_and_relabelled():
    a = QuiverWithRelations(line_quiver(3))
    assert are_isomorphic(a, a)
    q2 = Quiver([7, 8, 9], [Arrow(5, 8, 9), Arrow(6, 7, 8)])
    assert are_isomorphic(a, QuiverWithRelations(q2))


def test_iso_opposite_orientation_of_line():
    q = Quiver([1, 2, 3], [Arrow(1, 1, 2), Arrow(2, 2, 3)])
    assert are_isomorphic(QuiverWithRelations(line_quiver(3)), QuiverWithRelations(q))


def test_iso_detects_relation_difference():
    q = line_quiver(3)
    with_rel = QuiverWithRelations(q, [monomial_relation(path(q, 2, 1))])
    assert not are_isomorphic(QuiverWithRelations(q), with_rel)


def test_iso_up_to_arrow_rescaling():
    assert are_isomorphic(square_qwr(diff=True), square_qwr(diff=False))
    # int coefficients: rescaling ratios such as 2 and -3/2 stay exact
    assert are_isomorphic(square_qwr(coef=2), square_qwr(diff=True))
    assert are_isomorphic(square_qwr(coef=-3), square_qwr(coef=2))


def test_solve_rescaling_hand_made_systems():
    # w^2 = -1 has no sign, w^2 = 2 no 2-adic exponent
    assert _solve_rescaling([1], [([2], Fraction(-1))]) is None
    assert _solve_rescaling([1], [([2], Fraction(2))]) is None
    assert _solve_rescaling([1], [([2], Fraction(4))])[1] in (2, -2)
    # w1 w2 = -1 cannot hold with w1 = w2 = 1
    pinned = [([1, 1], Fraction(-1)), ([1, 0], Fraction(1)), ([0, 1], Fraction(1))]
    assert _solve_rescaling([1, 2], pinned) is None
    assert _solve_rescaling([1, 2], []) == {1: 1, 2: 1}


def test_solve_rescaling_weights_satisfy_every_constraint():
    rng = random.Random(11)
    for _ in range(30):
        ids = [3, 5, 8, 9]
        truth = {
            aid: rng.choice([-1, 1]) * Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 7]))
            for aid in ids
        }
        constraints = []
        for _ in range(rng.randint(1, 4)):
            exps = [rng.randint(-1, 1) for _ in ids]
            ratio = Fraction(1)
            for aid, e in zip(ids, exps):
                ratio *= truth[aid] ** e
            constraints.append((exps, ratio))
        weights = _solve_rescaling(ids, constraints)
        assert weights is not None
        for exps, ratio in constraints:
            got = Fraction(1)
            for aid, e in zip(ids, exps):
                got *= Fraction(weights[aid]) ** e
            assert got == ratio


def test_arrow_product_on_both_sides_of_a_commutativity_relation():
    # the square 1 -> {2, 3} -> 4 with an arrow 0 -> 1 before it and 4 -> 5 after it
    q = Quiver(
        range(6),
        [Arrow(1, 1, 2), Arrow(2, 1, 3), Arrow(3, 2, 4), Arrow(4, 3, 4), Arrow(5, 0, 1), Arrow(6, 4, 5)],
    )
    qwr = QuiverWithRelations(q, [Relation(((1, path(q, 1, 3)), (-1, path(q, 2, 4))))])
    vec = q.relation_vector(qwr.relations[0])
    left = q.arrow_product(vec, 1, 4, q.arrow_by_id[5], left=True)
    right = q.arrow_product(vec, 1, 4, q.arrow_by_id[6], left=False)
    assert left == q.relation_vector(Relation(((1, path(q, 5, 1, 3)), (-1, path(q, 5, 2, 4)))))
    assert right == q.relation_vector(Relation(((1, path(q, 1, 3, 6)), (-1, path(q, 2, 4, 6)))))
    spans = qwr.ideal_spans()
    assert spans[(0, 4)].contains(left) and spans[(1, 5)].contains(right)


def test_iso_rejects_parallel_arrows():
    kronecker = QuiverWithRelations(Quiver([1, 2], [Arrow(1, 1, 2), Arrow(2, 1, 2)]))
    with pytest.raises(ValueError, match="parallel"):
        are_isomorphic(kronecker, kronecker)
    with pytest.raises(ValueError, match="parallel"):
        are_isomorphic(QuiverWithRelations(line_quiver(2)), kronecker)


def octahedron(sign, kill_top=False):
    """The octahedron 1 -> {2, 3} -> {4, 5} -> 6 with four square relations
    p - q, the (3, 6) square written p + sign q; kill_top also kills the
    four paths 1 -> 6."""
    q = Quiver(
        range(1, 7),
        [(1, 1, 2), (2, 1, 3), (3, 2, 4), (4, 3, 4), (5, 2, 5), (6, 3, 5), (7, 4, 6), (8, 5, 6)],
    )
    squares = [
        (1, 4, (1, 3), (2, 4), -1),
        (1, 5, (1, 5), (2, 6), -1),
        (2, 6, (3, 7), (5, 8), -1),
        (3, 6, (4, 7), (6, 8), sign),
    ]
    rels = [Relation(((1, Path(s, t, p)), (c, Path(s, t, r)))) for s, t, p, r, c in squares]
    if kill_top:
        rels += [monomial_relation(p) for p in q.paths(1, 6)]
    return QuiverWithRelations(q, rels)


def test_zero_paths_certify_the_commutative_form():
    assert zero_paths(octahedron(-1)) == frozenset()
    assert zero_paths(square_qwr(coef=2)) == frozenset()
    q = square_qwr().quiver
    both_zero = QuiverWithRelations(
        q, [monomial_relation(path(q, 1, 3)), monomial_relation(path(q, 2, 4))]
    )
    assert zero_paths(both_zero) == {(1, 3), (2, 4)}
    # anti-commuting: Schurian, with 1 -> 6 zero, but no arrow weights make
    # all four squares commute
    anti = octahedron(1)
    spans = anti.ideal_spans()
    assert all(len(plist) - spans[key].dim <= 1 for key, plist in anti.quiver.path_table().items())
    assert spans[(1, 6)].dim == 4
    assert zero_paths(anti) is None
    # its commutative form kills the same paths
    top = {p.arrows for p in anti.quiver.paths(1, 6)}
    assert zero_paths(octahedron(-1, kill_top=True)) == top
    # the square without a relation is not Schurian
    assert zero_paths(QuiverWithRelations(q)) is None


def test_zero_paths_weigh_a_scalar_other_than_one():
    # the census components show only the scalars +-1, whose ratio -1/c
    # stays an int; p - 2q asks for the Fraction 1/2, and is p - q after
    # a weight 2 on one arrow
    sq = square_qwr(coef=-2)
    assert zero_paths(sq) == frozenset()
    assert are_isomorphic(sq, square_qwr())
    # the octahedron with its (3, 6) square written p - 2q kills its top,
    # and its squares ask for the ratios 1, 1, 1 and 1/2; the squares'
    # exponent rows satisfy e1 - e2 = e3 - e4, so no weights give 1 = 2
    twisted = octahedron(-2)
    assert twisted.ideal_spans()[(1, 6)].dim == 4
    assert zero_paths(twisted) is None


def test_iso_rejects_presentations_outside_their_commutative_form():
    anti = octahedron(1)
    with pytest.raises(ValueError, match="commutative form"):
        are_isomorphic(anti, octahedron(-1))
    # the commutative form of anti has its zero paths and fingerprint, but
    # anti is not isomorphic to it: matching zero paths alone would say so
    form = octahedron(-1, kill_top=True)
    assert iso_fingerprint(form) == iso_fingerprint(anti)
    with pytest.raises(ValueError, match="commutative form"):
        are_isomorphic(form, anti)
    with pytest.raises(ValueError, match="Schurian"):
        are_isomorphic(QuiverWithRelations(square_qwr().quiver), square_qwr())


def test_iso_square_vs_double_zero_differs():
    q = square_qwr().quiver
    both_zero = QuiverWithRelations(
        q, [monomial_relation(path(q, 1, 3)), monomial_relation(path(q, 2, 4))]
    )
    assert not are_isomorphic(square_qwr(), both_zero)


def test_iso_symmetric_transitive_sampled():
    rng = random.Random(5)
    pool = [
        QuiverWithRelations(line_quiver(3)),
        square_qwr(True),
        square_qwr(False),
        overlap_line(),
        QuiverWithRelations(d_linear_quiver(4)),
    ]
    for _ in range(30):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert are_isomorphic(a, b) == are_isomorphic(b, a)
        if are_isomorphic(a, b) and are_isomorphic(b, c):
            assert are_isomorphic(a, c)


# ---- components, gradability, serialization --------------------------------


def test_connected_components():
    assert len(connected_components(QuiverWithRelations(d_linear_quiver(5)))) == 1
    q = Quiver([1, 2, 3], [Arrow(1, 2, 1)])
    comps = connected_components(QuiverWithRelations(q))
    assert len(comps) == 2
    assert sum(len(c.quiver.vertices) for c in comps) == 3
    assert sum(len(c.quiver.arrows) for c in comps) == 1


def parallel_and_diamond_quivers():
    """Parallel arrows 1 => 2 continued by 2 => 3, a diamond 1 -> {2, 3}
    -> 4 whose arrow ids run against the path order, and both in one
    quiver."""
    parallel = Quiver([1, 2, 3], [Arrow(4, 1, 2), Arrow(1, 1, 2), Arrow(3, 2, 3), Arrow(2, 2, 3)])
    diamond = Quiver([1, 2, 3, 4], [Arrow(5, 1, 3), Arrow(2, 1, 2), Arrow(1, 3, 4), Arrow(7, 2, 4)])
    both = Quiver(
        [1, 2, 3, 4, 5],
        [Arrow(1, 1, 2), Arrow(9, 1, 2), Arrow(2, 2, 3), Arrow(3, 2, 4), Arrow(4, 3, 5), Arrow(8, 4, 5)],
    )
    return [parallel, diamond, both]


def assert_path_table_sorted(q):
    for (u, v), plist in q.path_table().items():
        assert plist == sorted(plist, key=lambda p: (p.length, p.arrows))
        assert all(type(p) is Path and (p.source, p.target) == (u, v) for p in plist)
        assert q.path_index(u, v) == {p: i for i, p in enumerate(plist)}


def test_path_table_sorted_on_parallel_arrows_and_diamonds():
    for q in parallel_and_diamond_quivers():
        assert_path_table_sorted(q)
    parallel, diamond, both = parallel_and_diamond_quivers()
    assert [p.arrows for p in parallel.paths(1, 3)] == [(1, 2), (1, 3), (4, 2), (4, 3)]
    assert [p.arrows for p in diamond.paths(1, 4)] == [(2, 7), (5, 1)]
    assert len(both.paths(1, 5)) == 4


def test_path_table_sorted_on_every_lambda5_end():
    from silted.arcatalog import knit_catalog
    from silted.endo import TwoTermHomCalc, end_algebra
    from silted.silting import enumerate_two_term_silting

    cat = knit_catalog(d_linear_quiver(5))
    calc = TwoTermHomCalc(cat)
    for s in enumerate_two_term_silting(cat):
        assert_path_table_sorted(end_algebra(s, cat, calc).qwr.quiver)


def test_path_is_a_named_tuple():
    p = Path(1, 3, (1, 2))
    assert p == (1, 3, (1, 2)) and p.length == 2
    assert trivial_path(2).length == 0
    assert Path(1, 2, (1,)).then(Path(2, 3, (2,))) == p
    with pytest.raises(ValueError):
        Path(1, 2, (1,)).then(Path(3, 4, (3,)))


def test_connected_presentation_is_its_own_component():
    qwr = square_qwr()
    assert connected_components(qwr)[0] is qwr and len(connected_components(qwr)) == 1
    plain = QuiverWithRelations(d_linear_quiver(5))
    assert connected_components(plain) == [plain]


def test_components_share_a_built_ideal():
    q = Quiver([1, 2, 3, 4, 5], [Arrow(1, 2, 1), Arrow(2, 3, 2), Arrow(3, 5, 4)])
    qwr = QuiverWithRelations(q, [monomial_relation(path(q, 2, 1))])
    lazy = connected_components(qwr)
    assert all(c._ideal is None for c in lazy)
    assert [c.algebra_dimension() for c in lazy] == [5, 3]
    qwr.ideal_spans()
    built = connected_components(qwr)
    assert [c.algebra_dimension() for c in built] == [5, 3]
    assert built[0].ideal_spans()[(3, 1)] is qwr.ideal_spans()[(3, 1)]
    assert built[0].quiver.paths(3, 1) is q.paths(3, 1)
    assert built[1].quiver.paths(5, 4) == [path(q, 3)]


def test_components_carry_relations():
    q = Quiver(
        [1, 2, 3, 4, 5],
        [Arrow(1, 2, 1), Arrow(2, 3, 2), Arrow(3, 5, 4)],
    )
    rel = monomial_relation(path(q, 2, 1))
    comps = connected_components(QuiverWithRelations(q, [rel]))
    assert len(comps) == 2
    assert sum(len(c.relations) for c in comps) == 1


def test_gradable():
    assert is_gradable(line_quiver(5))
    assert is_gradable(square_qwr().quiver)
    q = Quiver([1, 2], [Arrow(1, 1, 2), Arrow(2, 2, 1)])
    assert not is_gradable(q)


def test_oriented_cycle_has_no_path_space():
    q = Quiver([1, 2], [Arrow(1, 1, 2), Arrow(2, 2, 1)])
    with pytest.raises(ValueError, match="acyclic"):
        q.paths(1, 2)
    with pytest.raises(ValueError, match="acyclic"):
        QuiverWithRelations(q).ideal_spans()
    with pytest.raises(ValueError, match="acyclic"):
        global_dimension(QuiverWithRelations(q))


def test_gradable_unbalanced_cycle():
    q = Quiver([1, 2, 3], [Arrow(1, 1, 2), Arrow(2, 2, 3), Arrow(3, 1, 3)])
    assert not is_gradable(q)


def test_json_roundtrip():
    qwr = square_qwr()
    doc = qwr_to_json(qwr)
    assert json.loads(json.dumps(doc)) == doc


def test_relation_validation():
    q = line_quiver(3)
    with pytest.raises(ValueError):
        Relation(((Fraction(1), path(q, 1)),))  # length-1 path
    with pytest.raises(ValueError):
        Relation(((Fraction(0), path(q, 2, 1)),))  # zero coefficient
    with pytest.raises(ValueError, match="empty"):
        Relation(())
    q = line_quiver(4)
    with pytest.raises(ValueError, match="parallel"):
        Relation(((Fraction(1), path(q, 2, 1)), (Fraction(1), path(q, 3, 2))))


def test_quiver_value_classes_are_frozen_values():
    a = Arrow(1, 2, 3)
    p = Path(3, 1, (2, 1))
    rel = Relation(((Fraction(1), p),))
    assert repr(a) == "Arrow(id=1, src=2, tgt=3)"
    assert repr(p) == "Path(source=3, target=1, arrows=(2, 1))"
    assert repr(rel) == "Relation(terms=((Fraction(1, 1), Path(source=3, target=1, arrows=(2, 1))),))"
    # equal values compare and hash equal: relation tuples key the census's
    # component memo
    twin = monomial_relation(Path(3, 1, (2, 1)))
    assert twin == rel and twin is not rel and hash(twin) == hash(rel)
    assert {(rel,): "memo"}[(twin,)] == "memo"
    assert a == Arrow(1, 2, 3) and a != Arrow(1, 2, 4)
    assert hash(a) == hash((1, 2, 3)) and hash(rel) == hash((rel.terms,))
    for value, field in ((a, "src"), (p, "arrows"), (rel, "terms")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver([1], [Arrow(1, 1, 1)])  # loop
    with pytest.raises(ValueError):
        Quiver([1, 2], [Arrow(1, 1, 2), Arrow(1, 2, 1)])  # duplicate id


def test_algebra_dimension():
    assert QuiverWithRelations(line_quiver(3)).algebra_dimension() == 6
    assert square_qwr().algebra_dimension() == 9
    assert overlap_line().algebra_dimension() == 7
