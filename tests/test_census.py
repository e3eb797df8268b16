import json
import math
import random
import weakref
from fractions import Fraction

import pytest

from silted import formulas as F
from silted.census import (
    AlgebraSpec,
    ClassificationRecord,
    ComponentInfo,
    _ComponentMemo,
    _iso_key,
    census_records,
    census_summary,
    classify_family,
    get_catalog,
    lambda_family_label,
    records_to_json,
)
from silted.endo import TwoTermHomCalc, end_algebra
from silted.papertables import (
    TableReport,
    delta_enumerated,
    star_crosscheck,
    star_map,
    tm_lambda_enumerated,
    verify_tables,
)
from silted.quivers import (
    Arrow,
    Path,
    Quiver,
    BoundAlgebra,
    QuiverWithRelations,
    Relation,
    _pd_by_resolution,
    _pds_from_dimensions,
    _span_words,
    are_isomorphic,
    connected_components,
    iso_fingerprint,
    qwr_to_json,
    zero_paths,
)
from silted.realization import expected_realization_end, is_gradable, realization_complex
from silted.silting import enumerate_tilting_modules, enumerate_two_term_silting, is_silting, two_term


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec("d-linear", 3)
    with pytest.raises(ValueError):
        AlgebraSpec("x", 5)
    with pytest.raises(ValueError):
        AlgebraSpec("a", 0)


def test_classify_lambda4():
    records, summary = classify_family(AlgebraSpec("d-linear", 4))
    assert summary.n_silting == 50
    assert summary.a_s == 13
    assert summary.a_t == 7
    assert summary.a_ss == 1
    assert summary.a_ht == 4
    assert summary.a_nht == 3
    # the documented rank-4 identifications show up as label overlaps
    overlap_labels = {tuple(o["labels"]) for o in summary.overlaps}
    assert ("B1", "B2") in overlap_labels
    assert ("B4", "B6") in overlap_labels


def test_classify_lambda5_family_split():
    records, summary = classify_family(AlgebraSpec("d-linear", 5))
    assert summary.a_s == 62 and summary.a_t == 35 and summary.a_ss == 4
    counts = summary.label_class_counts
    assert counts["B1"] == 35
    assert counts["B2"] + counts["B4"] + counts["B7"] == 13
    assert counts["B3"] == 7
    assert counts["B5"] == 4
    assert counts["B6"] == 3
    assert not summary.overlaps


def test_classify_gamma():
    _, s4 = classify_family(AlgebraSpec("d-reversed", 4))
    assert s4.a_s == 11 and s4.a_ss == 0
    _, s5 = classify_family(AlgebraSpec("d-reversed", 5))
    assert s5.a_s == 65 and s5.a_ss == 2


def test_classify_b3_line():
    _, summary = classify_family(AlgebraSpec("b", 3))
    assert summary.a_t == 3


def test_records_structure_and_dichotomy():
    records, summary = classify_family(AlgebraSpec("d-linear", 4))
    for rec in records:
        assert rec.gldim <= 3
        for comp in rec.components:
            assert comp.gldim <= 3
            assert (comp.label == "strictly-shod") == (comp.gldim == 3)
            if comp.gldim == 3:
                assert comp.is_string
        if rec.is_tilting_complex:
            assert rec.gldim <= 2
        if rec.gldim == 3:
            assert rec.family_label == "B7"
        # component decomposition preserves vertex and arrow counts
        assert sum(len(c.qwr.quiver.vertices) for c in rec.components) == 4
        assert sum(len(c.qwr.quiver.arrows) for c in rec.components) == len(
            rec.end.qwr.quiver.arrows
        )


def test_case_ia_end_splits_into_blocks():
    """A shifted fork vertex next to a tail tilting module gives a product."""
    cat = get_catalog(AlgebraSpec("d-linear", 5))
    records, _ = classify_family(AlgebraSpec("d-linear", 5))
    found = 0
    for rec in records:
        if rec.family_label == "B4":
            assert len(rec.components) >= 2
            found += 1
    assert found > 0


def test_classes_agree_on_gldim():
    records, _ = classify_family(AlgebraSpec("d-linear", 5))
    byclass = {}
    for rec in records:
        byclass.setdefault(rec.iso_class, set()).add(rec.gldim)
    assert all(len(v) == 1 for v in byclass.values())


def whole_end_partition(records):
    """Class of each record under whole-End are_isomorphic, numbered by first
    occurrence.  are_isomorphic rejects unequal fingerprints first, so only
    representatives with the record's fingerprint need a test."""
    reps = {}
    out = []
    n_classes = 0
    for rec in records:
        bucket = reps.setdefault(iso_fingerprint(rec.end.qwr), [])
        cls = next((c for c, q in bucket if are_isomorphic(rec.end.qwr, q)), None)
        if cls is None:
            cls = n_classes
            n_classes += 1
            bucket.append((cls, rec.end.qwr))
        out.append(cls)
    return out


@pytest.mark.parametrize("family", ["d-linear", "d-reversed", "b"])
def test_component_classes_give_the_whole_end_partition(family):
    records, summary = classify_family(AlgebraSpec(family, 6))
    assert [rec.iso_class for rec in records] == whole_end_partition(records)
    assert summary.a_s == max(rec.iso_class for rec in records) + 1


@pytest.mark.parametrize("family,n", [("d-linear", 5), ("d-reversed", 5), ("d-linear", 6)])
def test_strictly_shod_class_count_is_a_ss(family, n):
    records, summary = classify_family(AlgebraSpec(family, n))
    ss_classes = {rec.iso_class for rec in records if rec.gldim == 3}
    assert len(ss_classes) == summary.a_ss
    assert all(rec.gldim == 3 for rec in records if rec.iso_class in ss_classes)


def square(signs):
    """Square 1 -> {2, 3} -> 4 with paths p = 1 -> 2 -> 4 and q = 1 -> 3 -> 4;
    one relation with the given coefficients on p and q (0 leaves a path out)."""
    q = Quiver([1, 2, 3, 4], [Arrow(1, 1, 2), Arrow(2, 1, 3), Arrow(3, 2, 4), Arrow(4, 3, 4)])
    p_path, q_path = Path(1, 4, (1, 3)), Path(1, 4, (2, 4))
    terms = tuple((Fraction(c), pth) for c, pth in zip(signs, (p_path, q_path)) if c)
    return QuiverWithRelations(q, [Relation(terms)])


def test_component_classes_of_hand_built_squares():
    memo = _ComponentMemo()
    (minus,) = memo.classify(square((1, -1)))
    (plus,) = memo.classify(square((1, 1)))
    (zero,) = memo.classify(square((1, 0)))
    assert minus.iso_class == plus.iso_class
    assert zero.iso_class not in (minus.iso_class, plus.iso_class)
    assert memo.n_classes == 2
    # a block decomposition is unique, so the order of the blocks is not seen
    point_then_square = Quiver(
        [1, 2, 3, 4, 5], [Arrow(1, 2, 3), Arrow(2, 2, 4), Arrow(3, 3, 5), Arrow(4, 4, 5)]
    )
    rel = Relation(((Fraction(1), Path(2, 5, (1, 3))), (Fraction(-1), Path(2, 5, (2, 4)))))
    mixed = memo.classify(QuiverWithRelations(point_then_square, [rel]))
    point = memo.classify(QuiverWithRelations(Quiver([1], [])))
    assert _iso_key(mixed) == _iso_key([plus] + point)
    assert _iso_key(mixed) != _iso_key([zero] + point)


def test_isomorphic_components_disagreeing_on_gldim_name_the_object(monkeypatch):
    import silted.census

    # the one-vertex components at vertices 1 and 2 are isomorphic
    monkeypatch.setattr(silted.census, "global_dimension", lambda qwr: min(qwr.quiver.vertices) % 2)
    with pytest.raises(
        AssertionError,
        match=r"disagree on gldim \(family d-linear, n=4, silting object .+\)",
    ):
        classify_family(AlgebraSpec("d-linear", 4))


def test_strictly_shod_census_lambda():
    records, summary = classify_family(AlgebraSpec("d-linear", 5))
    assert summary.a_ss == 4
    cat = get_catalog(AlgebraSpec("d-linear", 5))
    flagged = [rec for rec in records if rec.gldim == 3]
    assert flagged
    for rec in flagged:
        assert rec.family_label == lambda_family_label(cat, rec.silting) == "B7"


def test_strictly_shod_census_gamma():
    records, summary = classify_family(AlgebraSpec("d-reversed", 5))
    assert summary.a_ss == 2
    assert {rec.family_label for rec in records if rec.gldim == 3} == {"C14"}


def test_gldim_resolved_once_per_presentation(monkeypatch):
    import silted.census

    seen = {}
    for name in ("global_dimension", "is_string_algebra", "is_gentle"):
        calls = seen[name] = []

        def counting(qwr, calls=calls, fn=getattr(silted.census, name)):
            calls.append(json.dumps(qwr_to_json(qwr), sort_keys=True))
            return fn(qwr)

        monkeypatch.setattr(silted.census, name, counting)
    records, _ = classify_family(AlgebraSpec("d-linear", 5))
    distinct = {
        json.dumps(qwr_to_json(c.qwr), sort_keys=True) for rec in records for c in rec.components
    }
    for calls in seen.values():
        assert len(calls) == len(set(calls))
        assert set(calls) == distinct
    assert len(distinct) < sum(len(rec.components) for rec in records)


def test_fingerprint_computed_once_per_component_presentation(monkeypatch):
    import silted.census
    import silted.quivers

    computed = []
    census_calls = []
    compute = silted.quivers._fingerprint
    lookup = silted.census.iso_fingerprint
    monkeypatch.setattr(silted.quivers, "_fingerprint", lambda q: computed.append(q) or compute(q))
    monkeypatch.setattr(silted.census, "iso_fingerprint", lambda q: census_calls.append(q) or lookup(q))
    records, _ = classify_family(AlgebraSpec("d-linear", 6))
    distinct = {
        json.dumps(qwr_to_json(c.qwr), sort_keys=True) for rec in records for c in rec.components
    }
    # are_isomorphic reads the fingerprints the census already bucketed by
    assert len(computed) == len(census_calls) == len(distinct) == 375


def test_path_table_built_once_per_end_presentation(monkeypatch):
    import silted.census

    builds = []
    per_end = []
    table = Quiver.path_table
    end = silted.census.end_algebra

    def counting_end(*args, **kwargs):
        before = len(builds)
        ep = end(*args, **kwargs)
        per_end.append(len(builds) - before)
        # the relation terms are the paths of the table the End was built on
        for rel in ep.qwr.relations:
            for _, p in rel.terms:
                assert any(p is q for q in ep.qwr.quiver.paths(rel.source, rel.target))
        return ep

    def counting_table(q):
        if q._paths is None:
            builds.append(q)
        return table(q)

    monkeypatch.setattr(Quiver, "path_table", counting_table)
    monkeypatch.setattr(silted.census, "end_algebra", counting_end)
    spec = AlgebraSpec("d-linear", 5)
    records, _ = classify_family(spec)
    assert per_end == [1] * len(records) == [1] * 182
    # components, gldim and dedup reuse the End's table; the one other
    # build is the base algebra's, when the catalog is not yet memoised
    assert len(builds) - sum(per_end) <= 1
    ends = {id(rec.end.qwr.quiver) for rec in records}
    assert all(id(q) in ends or q is get_catalog(spec).rq for q in builds)


def census_components(family, n):
    """Every component of every End of a census, in census order."""
    cat = get_catalog(AlgebraSpec(family, n))
    calc = TwoTermHomCalc(cat)
    for s in enumerate_two_term_silting(cat):
        yield from connected_components(end_algebra(s, cat, calc).qwr)


@pytest.mark.parametrize(
    "family, n, a_ss",
    [("d-linear", 5, 4), ("d-linear", 6, 14), ("d-reversed", 5, 2), ("d-reversed", 6, 9), ("b", 6, 0)],
)
def test_census_resolves_one_simple_per_distinct_gldim_3_presentation(monkeypatch, family, n, a_ss):
    """global_dimension settles every simple of pd <= 2 from dimensions, so
    a census resolves only the one simple of pd 3 of each distinct gldim-3
    component presentation, as many as the strictly shod classes."""
    import silted.quivers

    resolved = []
    real = silted.quivers._pd_by_resolution

    def counting(alg, v):
        resolved.append(v)
        return real(alg, v)

    monkeypatch.setattr(silted.quivers, "_pd_by_resolution", counting)
    spec = AlgebraSpec(family, n)
    records = list(census_records(spec))
    gldim_3 = {
        json.dumps(qwr_to_json(c.qwr), sort_keys=True)
        for rec in records
        for c in rec.components
        if c.gldim == 3
    }
    assert len(resolved) == len(gldim_3) == census_summary(spec, records).a_ss == a_ss


def test_pds_from_dimensions_match_resolution_on_censuses():
    """Each simple the dimension rule decides has the resolution's pd, and
    each it leaves open has pd >= 3, on every distinct component.  Every
    non-monomial component here has gldim 2, so the simples left open
    lie on monomial components."""
    for family, n in (("d-linear", 5), ("d-reversed", 5), ("b", 6)):
        distinct = {}
        for cq in census_components(family, n):
            distinct.setdefault(json.dumps(qwr_to_json(cq), sort_keys=True), cq)
        undecided = 0
        for cq in distinct.values():
            alg = BoundAlgebra(cq)
            for v, pd in _pds_from_dimensions(cq).items():
                resolved = _pd_by_resolution(alg, v)
                if pd is None:
                    assert resolved >= 3
                    undecided += 1
                else:
                    assert pd == resolved
        if family == "d-linear":
            assert undecided > 0


def _relation_words(qwr):
    """The relation words that contain no other relation word; exact when
    every relation is a single path, since they then generate I.  The
    oracle for `_span_words` on monomial census components."""
    words = {rel.terms[0][1].arrows for rel in qwr.relations}
    return frozenset(
        w for w in words
        if not any(
            w[i:j] in words
            for i in range(len(w))
            for j in range(i + 2, len(w) + 1)
            if j - i < len(w)
        )
    )


def test_relation_words_match_the_ideal_spans_on_censuses():
    for family, n in (("d-linear", 5), ("d-reversed", 5), ("b", 6)):
        distinct = {}
        for cq in census_components(family, n):
            distinct.setdefault(json.dumps(qwr_to_json(cq), sort_keys=True), cq)
        monomial = non_monomial = 0
        for cq in distinct.values():
            if all(rel.is_monomial() for rel in cq.relations):
                assert _relation_words(cq) == _span_words(cq)
                monomial += 1
            else:
                assert _span_words(cq) is None
                non_monomial += 1
        assert monomial > 0
        assert (non_monomial > 0) == (family != "b")


def test_relabelled_rescaled_components_keep_their_class_and_zero_paths():
    """Each distinct Gamma_6 component against a copy with random vertex and
    arrow ids, each arrow scaled by a random nonzero rational w: a term
    c p of a relation becomes (c / w(p)) sigma(p)."""
    rng = random.Random(28)
    distinct = {}
    for cq in census_components("d-reversed", 6):
        distinct.setdefault(json.dumps(qwr_to_json(cq), sort_keys=True), cq)
    for cq in distinct.values():
        q = cq.quiver
        vmap = dict(zip(q.vertices, rng.sample(range(100), len(q.vertices))))
        amap = dict(zip((a.id for a in q.arrows), rng.sample(range(100), len(q.arrows))))
        weight = {
            a.id: rng.choice([-1, 1]) * Fraction(rng.randint(1, 6), rng.randint(1, 6))
            for a in q.arrows
        }
        arrows = [Arrow(amap[a.id], vmap[a.src], vmap[a.tgt]) for a in q.arrows]
        rng.shuffle(arrows)
        image = lambda p: Path(vmap[p.source], vmap[p.target], tuple(amap[i] for i in p.arrows))
        rels = [
            Relation(tuple((c / math.prod(weight[i] for i in p.arrows), image(p)) for c, p in rel.terms))
            for rel in cq.relations
        ]
        copy = QuiverWithRelations(Quiver(rng.sample(list(vmap.values()), len(vmap)), arrows), rels)
        assert are_isomorphic(cq, copy)
        assert zero_paths(copy) == {tuple(amap[i] for i in w) for w in zero_paths(cq)}
    assert len(distinct) > 100


def test_components_inherit_the_end_ideal():
    for family, n in (("d-linear", 5), ("b", 5)):
        for cq in census_components(family, n):
            assert cq._ideal is not None
            fresh = QuiverWithRelations(Quiver(cq.quiver.vertices, cq.quiver.arrows), cq.relations)
            spans = fresh.ideal_spans()
            assert cq.quiver._paths == fresh.quiver._paths
            assert cq.quiver._pathindex == fresh.quiver._pathindex
            assert cq.ideal_spans().keys() == spans.keys()
            for key, span in spans.items():
                got = cq.ideal_spans()[key]
                assert (got.ambient, got.rows, got.pivots) == (span.ambient, span.rows, span.pivots)


def test_connected_ends_are_their_own_component_and_the_rest_split():
    for family, n in (("d-linear", 5), ("b", 5)):
        cat = get_catalog(AlgebraSpec(family, n))
        calc = TwoTermHomCalc(cat)
        connected = split = 0
        for s in enumerate_two_term_silting(cat):
            qwr = end_algebra(s, cat, calc).qwr
            comps = connected_components(qwr)
            if len(comps) == 1:
                assert comps[0] is qwr
                connected += 1
                continue
            split += 1
            assert sum(len(c.quiver.vertices) for c in comps) == len(qwr.quiver.vertices)
            for cq in comps:
                for key, span in cq.ideal_spans().items():
                    assert span is qwr.ideal_spans()[key]
                    assert cq.quiver.paths(*key) is qwr.quiver.paths(*key)
        assert connected > 0 and split > 0


def d_silting_lists(n):
    """The silting objects of the reversed-source and the linear D_n."""
    return [
        enumerate_two_term_silting(get_catalog(AlgebraSpec(family, n)))
        for family in ("d-reversed", "d-linear")
    ]


def test_star_crosscheck_failure_names_the_object(monkeypatch):
    import silted.papertables

    def broken(s, cat):
        raise AssertionError("broken silting check")

    gs, ls = d_silting_lists(4)
    monkeypatch.setattr(silted.papertables, "is_silting", broken)
    with pytest.raises(AssertionError, match=r"\(family d-reversed, n=4, silting object .+\)"):
        star_crosscheck(4, gs, ls)


def test_strictly_shod_census_failure_names_the_object(monkeypatch):
    import silted.census

    monkeypatch.setattr(silted.census, "global_dimension", lambda qwr: 4)
    with pytest.raises(AssertionError, match=r"\(family d-reversed, n=4, silting object .+\)"):
        classify_family(AlgebraSpec("d-reversed", 4))


def test_tilted_of_linear_family_embeds_into_reversed_census():
    """Every tilted class of the linear family appears in the reversed census."""
    for n in (4, 5):
        lrec, _ = classify_family(AlgebraSpec("d-linear", n))
        grec, _ = classify_family(AlgebraSpec("d-reversed", n))
        l_tilted = {}
        for rec in lrec:
            if rec.is_tilting_module and rec.iso_class not in l_tilted:
                l_tilted[rec.iso_class] = rec.end.qwr
        g_classes = {}
        for rec in grec:
            if rec.iso_class not in g_classes:
                g_classes[rec.iso_class] = rec.end.qwr
        for qwr in l_tilted.values():
            assert any(are_isomorphic(qwr, g) for g in g_classes.values())


def catalog_and_tilts(family, n):
    cat = get_catalog(AlgebraSpec(family, n))
    return cat, enumerate_tilting_modules(cat)


def test_tm_lambda_enumerated_matches_reference():
    cat4, tilts4 = catalog_and_tilts("d-linear", 4)
    cat5, tilts5 = catalog_and_tilts("d-linear", 5)
    assert tm_lambda_enumerated(cat4, tilts4, 1) == 5
    assert tm_lambda_enumerated(cat4, tilts4, 2) == 1
    assert tm_lambda_enumerated(cat4, tilts4, 3) == 0
    assert tm_lambda_enumerated(cat5, tilts5, 1) == 21
    assert tm_lambda_enumerated(cat5, tilts5, 2) == 6


def test_tm_lambda_6_1_gap_is_documented():
    enum = tm_lambda_enumerated(*catalog_and_tilts("d-linear", 6), 1)
    assert (enum, F.tm_lambda(6, 1)) == (84, 83)
    rep = TableReport()
    rep.add("tm_lambda_enum", (6, 1), enum=enum, formula=F.tm_lambda(6, 1))
    assert rep.entries[0]["status"] == "documented"
    assert rep.ok()


def test_delta_enumerated():
    assert delta_enumerated(*catalog_and_tilts("a", 4)) == [1, 3, 5, 5]
    assert delta_enumerated(*catalog_and_tilts("a", 5)) == [1, 4, 9, 14, 14]


def test_star_bijection():
    for n in (4, 5):
        chk = star_crosscheck(n, *d_silting_lists(n))
        assert chk["ok"]
        assert chk["gammaCount"] == chk["lambdaCount"] == chk["matched"]


def test_tables_report_enumerates_each_catalog_once(monkeypatch):
    """Every row reads the census or enumeration the report already ran:
    A_1-A_6 tilting, the four D censuses of ranks 4 and 5, and B_3."""
    import silted.census
    import silted.silting

    calls = []
    enumerate_silting = silted.silting.enumerate_two_term_silting

    def counting(cat, graph=None):
        calls.append((cat, graph is None))
        return enumerate_silting(cat, graph)

    monkeypatch.setattr(silted.silting, "enumerate_two_term_silting", counting)
    monkeypatch.setattr(silted.census, "enumerate_two_term_silting", counting)
    assert verify_tables(enum_max_d=5).ok()
    assert len(calls) == len(set(calls)) == 11


def test_star_images_are_silting():
    gcat, lcat, star = star_map(4)
    for s in enumerate_two_term_silting(gcat):
        assert is_silting(star(s), lcat)


def test_realization_linear():
    s, ep, report = realization_complex("linear", 5)
    assert report["hypothesesVerified"]
    assert report["relationCount"] == 1
    assert report["relationLengths"] == [3]
    assert is_gradable(ep.qwr.quiver)
    assert are_isomorphic(ep.qwr, expected_realization_end(5))


def test_realization_reversed():
    s, ep, report = realization_complex("reversed", 5)
    assert report["hypothesesVerified"]
    assert report["relationLengths"] == [3]


def test_realization_rejects_small_n():
    with pytest.raises(ValueError):
        realization_complex("linear", 4)
    with pytest.raises(ValueError):
        realization_complex("sideways", 5)


def test_records_json_roundtrip():
    spec = AlgebraSpec("d-linear", 4)
    records, summary = classify_family(spec)
    doc = records_to_json(spec, records, summary)
    blob = json.dumps(doc)
    parsed = json.loads(blob)
    assert parsed["summary"]["a_s"] == 13
    assert len(parsed["records"]) == 50
    assert parsed["records"][0]["gldim"] in (0, 1, 2, 3)


def test_n_cap():
    with pytest.raises(ValueError):
        classify_family(AlgebraSpec("d-linear", 6), n_cap=5)


@pytest.mark.parametrize("family", ["d-linear", "d-reversed", "b"])
def test_streamed_summary_matches_classify_family(family):
    spec = AlgebraSpec(family, 5)
    records, summary = classify_family(spec)
    streamed = [rec.iso_class for rec in census_records(spec)]
    assert streamed == [rec.iso_class for rec in records]
    assert -1 not in streamed
    assert census_summary(spec, census_records(spec)).to_json() == summary.to_json()


@pytest.mark.parametrize("family", ["d-linear", "d-reversed", "b"])
def test_classify_family_keeps_no_record_when_given_keep(family):
    spec = AlgebraSpec(family, 5)
    records, summary = classify_family(spec)
    refs, streamed = classify_family(spec, keep=lambda rec: weakref.ref(rec.end))
    assert len(refs) == streamed.n_silting == len(records)
    assert all(ref() is None for ref in refs)
    assert streamed.to_json() == summary.to_json()
    objs, _ = classify_family(spec, keep=lambda rec: rec.silting)
    assert objs == [rec.silting for rec in records]
    assert objs == list(enumerate_two_term_silting(get_catalog(spec)))


@pytest.mark.parametrize("family", ["d-linear", "d-reversed"])
def test_only_component_class_representatives_keep_built_presentations(monkeypatch, family):
    import silted.census

    memos = []

    class RecordingMemo(_ComponentMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(silted.census, "_ComponentMemo", RecordingMemo)
    spec = AlgebraSpec(family, 5)
    records = list(census_records(spec))
    (memo,) = memos
    reps = {id(info) for bucket in memo.buckets.values() for info in bucket}
    others = [info for info in memo.infos.values() if id(info) not in reps]
    assert len(reps) == memo.n_classes and others
    assert all(info.qwr is None for info in others)
    # each record's components are its own End's split
    assert any(len(rec.components) == 1 for rec in records)
    for rec in records:
        split = connected_components(rec.end.qwr)
        assert [qwr_to_json(c.qwr) for c in rec.components] == [qwr_to_json(c) for c in split]
        if len(rec.components) == 1:
            assert rec.components[0].qwr is rec.end.qwr


def test_census_value_classes():
    with pytest.raises(ValueError, match="unknown family"):
        AlgebraSpec("e", 6)
    with pytest.raises(ValueError, match="needs n >= 4"):
        AlgebraSpec("d-linear", 3)
    spec = AlgebraSpec("a", 3)
    assert repr(spec) == "AlgebraSpec(family='a', n=3)"
    assert spec == AlgebraSpec("a", 3) and hash(spec) == hash(("a", 3))
    info = ComponentInfo(None, 1, "hereditary-tilted", True, True, 0)
    assert repr(info) == (
        "ComponentInfo(qwr=None, gldim=1, label='hereditary-tilted', is_string=True, "
        "is_gentle=True, iso_class=0)"
    )
    assert hash(info) == hash((None, 1, "hereditary-tilted", True, True, 0))
    for value, field in ((spec, "n"), (info, "iso_class")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))

    # a record is numbered when built; its component list keeps it unhashable
    rec = ClassificationRecord(two_term([1], [2]), None, [], 0, "x", False, True, -1)
    assert repr(rec) == (
        "ClassificationRecord(silting=TwoTermObject(modules=(1,), shifted=(2,)), end=None, "
        "components=[], gldim=0, family_label='x', is_tilting_module=False, "
        "is_tilting_complex=True, iso_class=-1)"
    )
    assert rec == ClassificationRecord(two_term([1], [2]), None, [], 0, "x", False, True, -1)
    with pytest.raises(AttributeError):
        rec.iso_class = 4
    with pytest.raises(TypeError):
        hash(rec)

    _, summary = classify_family(spec)
    assert repr(summary).startswith("CensusSummary(family='a', n=3, n_silting=14, n_tilting=5, ")
    assert summary == census_summary(spec, census_records(spec))
