import hashlib

import pytest

from silted.arcatalog import DynkinTypeError, TauUndefinedError, knit_catalog
from silted.endo import TwoTermHomCalc
from silted.quivers import (
    Arrow,
    Quiver,
    b_reversed_quiver,
    d_linear_quiver,
    d_reversed_quiver,
    line_quiver,
)
from silted.silting import MOD, SHIFT


def dimvec(cat, x):
    return cat.dim_vector(x)


def find(cat, dims):
    return cat.by_dim[tuple(dims)]


# ---- knitting: counts and flags ---------------------------------------------


@pytest.mark.parametrize(
    "quiver,expected",
    [
        (line_quiver(1), 1),
        (line_quiver(2), 3),
        (line_quiver(3), 6),
        (line_quiver(6), 21),
        (d_linear_quiver(4), 12),
        (d_linear_quiver(5), 20),
        (d_reversed_quiver(5), 20),
        (b_reversed_quiver(4), 10),
    ],
)
def test_root_counts(quiver, expected):
    assert len(knit_catalog(quiver)) == expected


def test_projective_injective_flags_lambda5():
    cat = knit_catalog(d_linear_quiver(5))
    projs = [x for x in range(len(cat)) if cat.is_projective(x)]
    injs = [x for x in range(len(cat)) if cat.is_injective(x)]
    assert len(projs) == 5 and len(injs) == 5


def test_rejects_non_dynkin():
    e6 = Quiver(
        [1, 2, 3, 4, 5, 6],
        [Arrow(1, 2, 1), Arrow(2, 3, 2), Arrow(3, 4, 3), Arrow(4, 5, 4), Arrow(5, 6, 3)],
    )
    with pytest.raises(DynkinTypeError):
        knit_catalog(e6)
    cycle = Quiver([1, 2, 3], [Arrow(1, 1, 2), Arrow(2, 2, 3), Arrow(3, 3, 1)])
    with pytest.raises(DynkinTypeError):
        knit_catalog(cycle)


def orientations(n, edges):
    """Every quiver on vertices 1..n whose underlying graph has these edges."""
    for bits in range(2 ** len(edges)):
        arrows = [
            Arrow(k + 1, *((v, u) if bits >> k & 1 else (u, v))) for k, (u, v) in enumerate(edges)
        ]
        yield Quiver(range(1, n + 1), arrows)


def line_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def fork_edges(n):
    """D_n: the leaves 1 and 2 on the branch vertex 3, then the line 3..n."""
    return [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]


def test_every_orientation_of_types_a_and_d_knits():
    quivers = [(q, n * (n + 1) // 2) for n in range(1, 7) for q in orientations(n, line_edges(n))]
    quivers += [(q, n * (n - 1)) for n in range(4, 8) for q in orientations(n, fork_edges(n))]
    assert len(quivers) == 183
    for q, roots in quivers:
        assert len(knit_catalog(q)) == roots


@pytest.mark.parametrize(
    "n,edges",
    [
        (6, line_edges(5) + [(3, 6)]),  # E_6
        (7, line_edges(6) + [(3, 7)]),  # E_7
        (8, line_edges(7) + [(3, 8)]),  # E_8
        (5, [(1, 2), (1, 3), (1, 4), (1, 5)]),  # D~_4
        (6, [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)]),  # D~_5
        (7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)]),  # E~_6
        (3, [(1, 2), (2, 3), (3, 1)]),  # 3-cycle
        (2, [(1, 2), (1, 2)]),  # Kronecker
        (4, [(1, 2), (2, 3), (3, 1)]),  # disconnected: a 3-cycle and a point
    ],
)
def test_rejects_quivers_off_types_a_and_d(n, edges):
    for q in orientations(n, edges):
        with pytest.raises(DynkinTypeError):
            knit_catalog(q)


# ---- the right-module convention on A_2 -------------------------------------


def test_a2_convention():
    # arrows 2 -> 1: P(1) is the full interval, P(2) = S(2), I(2) = P(1)
    cat = knit_catalog(line_quiver(2))
    assert dimvec(cat, cat.proj(1)) == (1, 1)
    assert dimvec(cat, cat.proj(2)) == (0, 1)
    assert dimvec(cat, cat.inj(1)) == (1, 0)
    assert dimvec(cat, cat.inj(2)) == (1, 1)
    s1, s2 = find(cat, (1, 0)), find(cat, (0, 1))
    # the almost split sequence is 0 -> S(2) -> P(1) -> S(1) -> 0
    assert cat.tau(s1) == s2
    assert cat.tau_inv(s2) == s1
    with pytest.raises(TauUndefinedError):
        cat.tau(cat.proj(2))
    with pytest.raises(TauUndefinedError):
        cat.tau_inv(cat.inj(1))


def test_a2_presentation_and_ext():
    cat = knit_catalog(line_quiver(2))
    s1 = find(cat, (1, 0))
    pres = cat.min_projective_presentation(s1)
    assert list(pres.p0.slots) == [1]
    assert list(pres.p1.slots) == [2]
    s2 = find(cat, (0, 1))
    assert cat.ext1_dim(s1, s2) == 1
    assert cat.ext1_dim(s2, s1) == 0


def test_presentation_trivial_for_projectives():
    cat = knit_catalog(d_linear_quiver(4))
    for v in cat.q.vertices:
        pres = cat.min_projective_presentation(cat.proj(v))
        assert list(pres.p0.slots) == [v]
        assert list(pres.p1.slots) == []


def test_presentation_dimension_exactness():
    cat = knit_catalog(d_linear_quiver(4))
    for x in range(len(cat)):
        pres = cat.min_projective_presentation(x)
        for u in cat.q.vertices:
            assert pres.p1.P.dims[u] + cat.indecs[x].dims[u] == pres.p0.P.dims[u]


# ---- hom spaces --------------------------------------------------------------


def test_hom_projective_property():
    cat = knit_catalog(d_linear_quiver(4))
    for v in cat.q.vertices:
        for m in range(len(cat)):
            assert cat.hom_dim(cat.proj(v), m) == cat.indecs[m].dims[v]


def test_hom_p4_p1_lambda4():
    cat = knit_catalog(d_linear_quiver(4))
    assert cat.hom_dim(cat.proj(4), cat.proj(1)) == 1


def test_bricks():
    for q in (line_quiver(4), d_linear_quiver(4), d_reversed_quiver(5)):
        cat = knit_catalog(q)
        for x in range(len(cat)):
            assert cat.hom_dim(x, x) == 1


def test_hom_intertwiner_commutes():
    cat = knit_catalog(d_linear_quiver(4))
    x, y = 0, find(cat, (1, 1, 2, 1))
    for phi in cat.hom_basis(x, y):
        for a in cat.rq.arrows:
            lhs = phi[a.tgt].mul(cat.indecs[x].mats[a.id])
            rhs = cat.indecs[y].mats[a.id].mul(phi[a.src])
            assert lhs == rhs


# ---- tau structure ------------------------------------------------------------


def test_tau_inverse_pairs():
    cat = knit_catalog(d_linear_quiver(5))
    for x in range(len(cat)):
        if not cat.is_projective(x):
            assert cat.tau_inv(cat.tau(x)) == x
        if not cat.is_injective(x):
            assert cat.tau(cat.tau_inv(x)) == x


def test_tau_orbits_cover_catalog():
    cat = knit_catalog(d_linear_quiver(5))
    seen = set()
    for v in cat.q.vertices:
        x = cat.proj(v)
        while True:
            assert x not in seen
            seen.add(x)
            if cat.is_injective(x):
                break
            x = cat.tau_inv(x)
    assert len(seen) == len(cat)


def test_slices():
    cat = knit_catalog(line_quiver(3))
    by_slice = {}
    for x in range(len(cat)):
        by_slice.setdefault(cat.indecs[x].slice, []).append(x)
    assert sorted(len(v) for v in by_slice.values()) == [1, 2, 3]


def test_mesh_exactness():
    cat = knit_catalog(d_linear_quiver(4))
    for z, x in cat.tau_of.items():
        middles = [t for (t, _) in cat.arrows_out[x]]
        for u in cat.q.vertices:
            total = sum(cat.indecs[t].dims[u] for t in middles)
            assert cat.indecs[x].dims[u] + cat.indecs[z].dims[u] == total


# ---- ext --------------------------------------------------------------------


def test_ext_vanishes_on_projectives():
    cat = knit_catalog(d_linear_quiver(4))
    for v in cat.q.vertices:
        for m in range(len(cat)):
            assert cat.ext1_dim(cat.proj(v), m) == 0


def test_ext_rigidity_catalogwide():
    cat = knit_catalog(d_linear_quiver(5))
    for x in range(len(cat)):
        assert cat.ext1_dim(x, x) == 0


def test_ar_duality_small():
    for q in (line_quiver(4), d_linear_quiver(4)):
        cat = knit_catalog(q)
        for m in range(len(cat)):
            for n in range(len(cat)):
                e = cat.ext1_dim(m, n)
                if cat.is_projective(m):
                    assert e == 0
                else:
                    assert e == cat.hom_dim(n, cat.tau(m))


def test_hom_bases_stay_integral():
    """Every hom-basis entry of the Lambda_5 catalog is an int: the linear
    algebra only meets unit pivots there, so no Fraction is made."""
    cat = knit_catalog(d_linear_quiver(5))
    entries = [
        c
        for x in range(len(cat))
        for y in range(len(cat))
        for phi in cat.hom_basis(x, y)
        for m in phi.values()
        for row in m.a
        for c in row
    ]
    assert entries and all(type(c) is int for c in entries)


def test_dim_vector_is_stored_once():
    cat = knit_catalog(d_reversed_quiver(5))
    for x, ind in enumerate(cat.indecs):
        assert cat.dim_vector(x) is cat.dim_vector(x)
        assert cat.dim_vector(x) == tuple(ind.dims[v] for v in cat.q.vertices)


# ---- hom dimensions are the Euler form ---------------------------------------


def euler_form(cat, x, y):
    """<x, y> = sum_v x_v y_v - sum over arrows a of x_tgt(a) y_src(a)."""
    dx, dy = cat.indecs[x].dims, cat.indecs[y].dims
    return sum(dx[v] * dy[v] for v in cat.q.vertices) - sum(
        dx[a.tgt] * dy[a.src] for a in cat.q.arrows
    )


@pytest.mark.parametrize(
    "quiver", [d_linear_quiver(7), d_reversed_quiver(7), line_quiver(7), b_reversed_quiver(7)]
)
def test_hom_dims_are_the_euler_form(quiver):
    # <x, y> = dim Hom(X, Y) - dim Ext^1(X, Y), and over a Dynkin quiver at
    # most one of the two is nonzero for indecomposables X, Y, so
    # dim Hom = max(0, <x, y>) (Ringel 1984); through the 2-term calc,
    # dim Hom(M, P(v)[1]) = (tau M)_v and dim Hom(P(v)[1], P(w)[1]) = P(w)_v
    cat = knit_catalog(quiver)
    calc = TwoTermHomCalc(cat)
    verts = cat.q.vertices
    for x in range(len(cat)):
        for y in range(len(cat)):
            assert cat.hom_dim(x, y) == max(0, euler_form(cat, x, y)), (x, y)
        tau = None if cat.is_projective(x) else cat.indecs[cat.tau(x)].dims
        for v in verts:
            want = 0 if tau is None else tau[v]
            assert calc.space((MOD, x), (SHIFT, v)).dim == want, (x, v)
    for v in verts:
        for w in verts:
            assert calc.space((SHIFT, v), (SHIFT, w)).dim == cat.indecs[cat.proj(w)].dims[v]


# ---- knitting is byte-stable ---------------------------------------------------


def catalog_digest(cat):
    """sha256 over every indecomposable's AR data, matrices and irreducible
    maps, entries as their str (an int and the equal Fraction agree)."""
    h = hashlib.sha256()
    for ind in cat.indecs:
        h.update(repr((ind.id, ind.dim_vector, ind.slice, ind.proj_vertex, ind.inj_vertex)).encode())
        for aid in sorted(ind.mats):
            h.update(repr((aid, [list(map(str, r)) for r in ind.mats[aid].a])).encode())
        h.update(repr(cat.tau_of.get(ind.id)).encode())
        for tgt, maps in cat.arrows_out[ind.id]:
            h.update(repr(tgt).encode())
            for u in sorted(maps):
                m = maps[u]
                h.update(repr((u, m.rows, m.cols, [list(map(str, r)) for r in m.a])).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "quiver,digest",
    [
        (d_linear_quiver(7), "788446413c19e8ef1b5e5efad7aa516925dc93e25b343e4a4206f6452a19865b"),
        (d_reversed_quiver(7), "c57b5de629a73eb1fd9065065f76c249d6ee2fd2ee87801c266348c226d385cf"),
        (b_reversed_quiver(7), "3f8ba8b66674a3a40574d7ecd1cc678ca787b34338866fa707c118cbe9e8fe42"),
        (d_linear_quiver(9), "bd4f13799bc0bd828014ed2d69bb9ad83e98bb3527845d11a4ee86ee58b9359a"),
    ],
)
def test_knitted_catalogs_are_unchanged(quiver, digest):
    # the mesh reads its cokernel projection off the reduced rows and its
    # section off the free columns; the digests were taken when both were
    # matrix products, over every unit vector and a 0/1 matrix
    assert catalog_digest(knit_catalog(quiver)) == digest
