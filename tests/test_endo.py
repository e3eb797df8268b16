import json
import random

import pytest

from silted.arcatalog import knit_catalog
from silted.census import AlgebraSpec, get_catalog
from silted.endo import MOD, SHIFT, EndPresentation, TwoTermHomCalc, end_algebra
from silted.linalg import F0, F1, Mat, Subspace, nullspace
from silted.quivers import (
    Arrow,
    Quiver,
    QuiverWithRelations,
    Relation,
    are_isomorphic,
    b_reversed_quiver,
    d_linear_quiver,
    d_reversed_quiver,
    line_quiver,
    monomial_relation,
    Path,
)
from silted.realization import realization_complex
from silted.silting import enumerate_two_term_silting, two_term


def calc_for(q):
    cat = knit_catalog(q)
    return cat, TwoTermHomCalc(cat)


# ---- hom spaces of 2-term objects -------------------------------------------


def test_shift_to_module_is_zero():
    cat, calc = calc_for(d_linear_quiver(4))
    for v in cat.q.vertices:
        for m in range(len(cat)):
            assert calc.space((SHIFT, v), (MOD, m)).dim == 0


def test_module_to_shift_matches_ar_duality():
    """dim Hom(M, P(v)[1]) = dim Hom(P(v), tau M), both sides independent."""
    cat, calc = calc_for(d_linear_quiver(4))
    for m in range(len(cat)):
        for v in cat.q.vertices:
            sp = calc.space((MOD, m), (SHIFT, v))
            if cat.is_projective(m):
                assert sp.dim == 0
            else:
                assert sp.dim == cat.hom_dim(cat.proj(v), cat.tau(m))


def test_shift_to_shift_is_projective_hom():
    cat, calc = calc_for(d_linear_quiver(4))
    for v in cat.q.vertices:
        for w in cat.q.vertices:
            sp = calc.space((SHIFT, v), (SHIFT, w))
            assert sp.dim == cat.hom_dim(cat.proj(v), cat.proj(w))


def test_hom_injective_to_shifted_projective_lambda():
    # over the linear D family, Hom(I(i-1), P(i)[1]) is nonzero for i >= 4
    for n in (5, 6):
        cat, calc = calc_for(d_linear_quiver(n))
        for i in range(4, n + 1):
            sp = calc.space((MOD, cat.inj(i - 1)), (SHIFT, i))
            assert sp.dim >= 1


# ---- composition -------------------------------------------------------------


def test_composition_associative_on_silting_end():
    cat, calc = calc_for(d_linear_quiver(4))
    rng = random.Random(2)
    silts = enumerate_two_term_silting(cat)
    for s in rng.sample(silts, 6):
        summands = s.summands()
        spaces = {
            (i, j): calc.space(summands[i], summands[j])
            for i in range(len(summands))
            for j in range(len(summands))
        }
        idx = range(len(summands))
        for i in idx:
            for j in idx:
                for k in idx:
                    for l in idx:
                        if len({i, j, k, l}) < 3:
                            continue
                        if not (
                            spaces[(i, j)].dim
                            and spaces[(j, k)].dim
                            and spaces[(k, l)].dim
                        ):
                            continue
                        for f in spaces[(i, j)].basis():
                            for g in spaces[(j, k)].basis():
                                for h in spaces[(k, l)].basis():
                                    gf = calc.compose(summands[i], summands[j], summands[k], f, g)
                                    left = calc.compose(summands[i], summands[k], summands[l], gf, h)
                                    hg = calc.compose(summands[j], summands[k], summands[l], g, h)
                                    right = calc.compose(summands[i], summands[j], summands[l], f, hg)
                                    lc = calc.coords(spaces[(i, l)], left)
                                    rc = calc.coords(spaces[(i, l)], right)
                                    assert lc == rc
                        # the same law on the structure-constant table
                        c_ijk = calc.mult(summands[i], summands[j], summands[k])
                        c_ikl = calc.mult(summands[i], summands[k], summands[l])
                        c_jkl = calc.mult(summands[j], summands[k], summands[l])
                        c_ijl = calc.mult(summands[i], summands[j], summands[l])
                        dim_il = spaces[(i, l)].dim
                        for a in range(spaces[(i, j)].dim):
                            for b in range(spaces[(j, k)].dim):
                                for c in range(spaces[(k, l)].dim):
                                    left = [
                                        sum(c_ijk[a][b][d] * c_ikl[d][c][t] for d in range(len(c_ikl)))
                                        for t in range(dim_il)
                                    ]
                                    right = [
                                        sum(c_jkl[b][c][e] * c_ijl[a][e][t] for e in range(len(c_ijl[a])))
                                        for t in range(dim_il)
                                    ]
                                    assert left == right


@pytest.mark.parametrize(
    "q,expected_cases",
    [(d_linear_quiver(5), 37), (d_reversed_quiver(5), 35), (b_reversed_quiver(5), 29)],
)
def test_shift_composition_kills_syzygy_maps(q, expected_cases):
    """Post-composing Hom(M, P(v)[1]) with P(v)[1] -> P(w)[1] is well defined.

    Every vector of the subspace that Hom(M, P(v)[1]) is a quotient by
    (the maps factoring through the syzygy inclusion of M) composes with
    every basis map P(v)[1] -> P(w)[1] to zero coordinates, so the
    structure-constant table may compose class representatives.
    """
    cat, calc = calc_for(q)
    cases = 0
    for m in range(len(cat)):
        for v in cat.q.vertices:
            src, mid = (MOD, m), (SHIFT, v)
            sp = calc.space(src, mid)
            for w in cat.q.vertices:
                tgt = (SHIFT, w)
                out = calc.space(src, tgt)
                for vec in sp.sub.basis():
                    for g in calc.space(mid, tgt).basis():
                        comp = calc.compose(src, mid, tgt, vec, g)
                        assert all(x == 0 for x in calc.coords(out, comp))
                        cases += 1
    assert cases == expected_cases


def test_ext_composition_cross_oracle_a3():
    """Composite into a shifted projective vs the stable-hom prediction.

    Over the 3-vertex line take the simple S(2), its injective envelope
    I(2) and the projective P(3): all three of Hom(S(2), I(2)),
    Hom(I(2), P(3)[1]) and Hom(S(2), P(3)[1]) are one-dimensional, and the
    inclusion S(2) -> I(2) does not factor through a projective, so the
    composite must be nonzero.
    """
    cat, calc = calc_for(line_quiver(3))
    s2 = cat.by_dim[(0, 1, 0)]
    i2 = cat.inj(2)
    assert cat.hom_dim(s2, i2) == 1
    sp_f = calc.space((MOD, s2), (MOD, i2))
    sp_eta = calc.space((MOD, i2), (SHIFT, 3))
    sp_out = calc.space((MOD, s2), (SHIFT, 3))
    assert sp_eta.dim == 1 and sp_out.dim == 1
    f = sp_f.basis()[0]
    eta = sp_eta.basis()[0]
    comp = calc.compose((MOD, s2), (MOD, i2), (SHIFT, 3), f, eta)
    assert calc.coords(sp_out, comp) != [0]


def test_composition_through_zero_space_vanishes():
    cat, calc = calc_for(line_quiver(4))
    # P(4) -> P(1) and P(1) -> P(1)[1]? the latter is zero-dimensional;
    # composites into zero spaces must reduce to zero coordinates
    sp = calc.space((MOD, cat.proj(1)), (SHIFT, 4))
    assert sp.dim == 0


# ---- end presentations ---------------------------------------------------------


def test_end_of_all_projectives_is_base_algebra():
    for q in (line_quiver(4), d_linear_quiver(4), d_linear_quiver(5)):
        cat = knit_catalog(q)
        projs = [cat.proj(v) for v in cat.q.vertices]
        ep = end_algebra(two_term(projs, []), cat)
        assert are_isomorphic(ep.qwr, QuiverWithRelations(q))


def test_end_of_all_shifts_is_base_algebra():
    q = d_linear_quiver(4)
    cat = knit_catalog(q)
    ep = end_algebra(two_term([], list(cat.q.vertices)), cat)
    assert are_isomorphic(ep.qwr, QuiverWithRelations(q))


def test_end_total_dimension_audit_runs():
    # the audit raises on any inconsistency; sweep a whole census
    cat = knit_catalog(d_linear_quiver(4))
    calc = TwoTermHomCalc(cat)
    for s in enumerate_two_term_silting(cat):
        ep = end_algebra(s, cat, calc)
        assert ep.total_dim == sum(sum(row) for row in ep.hom_dims)


def test_end_deterministic():
    cat = knit_catalog(d_linear_quiver(5))
    s = enumerate_two_term_silting(cat)[17]
    a = end_algebra(s, cat).to_json()
    b = end_algebra(s, cat).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_strictly_shod_shape_end_lambda5():
    """The shifted-fork construction yields the overlapping-relation line."""
    from silted.census import AlgebraSpec, lambda_family_label, _staggered_overlap
    from silted.quivers import connected_components, global_dimension

    cat = knit_catalog(d_linear_quiver(5))
    calc = TwoTermHomCalc(cat)
    found = 0
    for s in enumerate_two_term_silting(cat):
        if lambda_family_label(cat, s) != "B7":
            continue
        found += 1
        ep = end_algebra(s, cat, calc)
        assert _staggered_overlap(ep.qwr)
        g = max(global_dimension(c) for c in connected_components(ep.qwr))
        assert g == 3
    assert found > 0


def test_end_provenance():
    cat = knit_catalog(d_linear_quiver(4))
    s = two_term([cat.proj(3), cat.proj(4)], [1, 2])
    ep = end_algebra(s, cat)
    doc = ep.to_json()
    assert doc["vertexSummands"]["1"] == {"dim": list(cat.dim_vector(cat.proj(3)))}
    assert doc["vertexSummands"]["3"] == {"shifted": 1}


@pytest.mark.parametrize("q", [d_linear_quiver(5), d_reversed_quiver(5), b_reversed_quiver(5)])
def test_end_relation_coefficients_stay_integral(q):
    cat, calc = calc_for(q)
    coefs = [
        c
        for s in enumerate_two_term_silting(cat)
        for rel in end_algebra(s, cat, calc).qwr.relations
        for c, _ in rel.terms
    ]
    assert coefs and all(type(c) is int for c in coefs)


# ---- the general presentation as an oracle -------------------------------------


def span_nullspace_end_algebra(silt, cat, calc):
    """End(S) presented for hom spaces of any dimension: rad^2 as the span
    of the composites through a third summand, arrows as the basis maps
    outside it, and relations from the nullspace of the h x m evaluation
    matrix per vertex pair.  end_algebra reads one scalar per composite
    instead; the two must agree wherever End(S) is Schurian."""
    summands = silt.summands()
    n = len(summands)
    h = [[calc.space(summands[i], summands[j]).dim for j in range(n)] for i in range(n)]
    arrows = []
    witnesses = {}
    for i in range(n):
        for j in range(n):
            if i == j or h[i][j] == 0:
                continue
            span = Subspace(h[i][j])
            for k in range(n):
                if k == i or k == j or h[i][k] == 0 or h[k][j] == 0:
                    continue
                for row in calc.mult(summands[i], summands[k], summands[j]):
                    for vec in row:
                        span.add(vec)
            for t in range(h[i][j]):
                e = [F0] * h[i][j]
                e[t] = F1
                if span.add(e):
                    arrows.append(Arrow(len(arrows) + 1, i + 1, j + 1))
                    witnesses[len(arrows)] = t
    gq = Quiver(range(1, n + 1), arrows)
    pairs = sorted(key for key in gq.path_table() if key[0] != key[1])
    evals = {}
    for p in sorted((p for key in pairs for p in gq.paths(*key)), key=lambda p: p.length):
        a = gq.arrow_by_id[p.arrows[-1]]
        t = witnesses[a.id]
        out = [F0] * h[p.source - 1][p.target - 1]
        if p.length == 1:
            out[t] = F1
        else:
            table = calc.mult(summands[p.source - 1], summands[a.src - 1], summands[a.tgt - 1])
            for x, row in zip(evals[p.arrows[:-1]], table):
                if x:
                    for d, c in enumerate(row[t]):
                        out[d] += x * c
        evals[p.arrows] = out
    kernels = {}
    for (u, v) in pairs:
        plist = gq.paths(u, v)
        kernels[(u, v)] = nullspace(Mat.from_columns([evals[p.arrows] for p in plist], h[u - 1][v - 1]))
    relations = []
    for (u, v) in pairs:
        plist = gq.paths(u, v)
        boundary = Subspace(len(plist))
        for a in gq.out_arrows[u]:
            for kv in kernels.get((a.tgt, v), []):
                boundary.add(gq.arrow_product(kv, a.tgt, v, a, left=True))
        for a in gq.in_arrows[v]:
            for kv in kernels.get((u, a.src), []):
                boundary.add(gq.arrow_product(kv, u, a.src, a, left=False))
        for kv in kernels[(u, v)]:
            if boundary.add(kv):
                relations.append(Relation(tuple((c, p) for c, p in zip(kv, plist) if c != 0)))
    provenance = {
        idx + 1: {"dim": list(cat.dim_vector(s[1]))} if s[0] == MOD else {"shifted": s[1]}
        for idx, s in enumerate(summands)
    }
    total = sum(sum(row) for row in h)
    return EndPresentation(QuiverWithRelations(gq, relations), summands, provenance, h, total)


def assert_matches_oracle(s, cat, calc):
    ep = end_algebra(s, cat, calc)
    ref = span_nullspace_end_algebra(s, cat, calc)
    assert ep.to_json() == ref.to_json()
    assert ep.hom_dims == ref.hom_dims
    assert ep.total_dim == ref.total_dim


@pytest.mark.parametrize("family,n", [("d-linear", 5), ("d-reversed", 5), ("a", 5), ("b", 6)])
def test_scalar_end_matches_the_span_nullspace_oracle(family, n):
    cat = get_catalog(AlgebraSpec(family, n))
    calc = TwoTermHomCalc(cat)
    for s in enumerate_two_term_silting(cat):
        assert_matches_oracle(s, cat, calc)


@pytest.mark.parametrize("orientation,family", [("linear", "d-linear"), ("reversed", "d-reversed")])
def test_realization_end_matches_the_span_nullspace_oracle(orientation, family):
    s, _, _ = realization_complex(orientation, 5)
    cat = get_catalog(AlgebraSpec(family, 5))
    assert_matches_oracle(s, cat, TwoTermHomCalc(cat))

