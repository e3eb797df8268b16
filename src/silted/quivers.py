"""Quivers, paths, admissible relations and bound quiver algebras.

A quiver with relations is the presentation format for every algebra in
this package: the Dynkin path algebras we enumerate over and the
endomorphism algebras the census produces.  A `Path` is a named tuple
(source, target, arrows); paths compose left to right (`p.then(q)` walks
p first).  The paths of kQ depend on Q alone: each `Quiver` builds its
`path_table` once, and every presentation over it (the End, its bound
algebra, a component) indexes that one table.  Linear algebra is exact.

`projective_cover` is the package's one projective-resolution engine: a
single cover/kernel step 0 -> K -> P -> M -> 0 over a bound quiver
algebra.  The AR catalog builds its minimal presentations from two steps
over the hereditary base.

`_ideal_words` decides once per presentation, from its ideal spans,
whether the ideal is monomial and which paths generate it.  String and
gentle read those words: the (S1)-(S3) and gentle conditions are
conditions on the length-2 words (Butler-Ringel).

`global_dimension` takes one rule for every ideal, monomial or not; its
docstring states the rule.

`zero_paths` reads once, from the ideal spans, which paths a presentation
kills, and certifies that the presentation is Schurian and isomorphic to
its commutative form.  That is the domain of `are_isomorphic`, which then
only matches zero paths under quiver isomorphisms.
"""

from collections import namedtuple
from functools import lru_cache

from .linalg import F0, F1, Mat, Subspace, block_diag, fraction, integer_solve, kernel


Arrow = namedtuple("Arrow", "id src tgt")


class Quiver:
    """A finite directed multigraph without loops."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        ids = [a.id for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate arrow ids")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.src not in vset or a.tgt not in vset:
                raise ValueError(f"arrow {a.id} touches unknown vertex")
            if a.src == a.tgt:
                raise ValueError(f"arrow {a.id} is a loop")
        self.arrow_by_id = {a.id: a for a in self.arrows}
        self.out_arrows = {v: [] for v in self.vertices}
        self.in_arrows = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.out_arrows[a.src].append(a)
            self.in_arrows[a.tgt].append(a)
        for v in self.vertices:
            self.out_arrows[v].sort(key=lambda a: a.id)
            self.in_arrows[v].sort(key=lambda a: a.id)
        self._paths = None
        self._pathindex = None

    def path_table(self):
        """Per vertex pair (u, v) joined by a path, the paths u -> v sorted
        by (length, arrow id sequence): the diagonal first, then the pairs
        as lengthwise extension reaches them.  A round of extension holds
        one length, and Paths u -> w compare by arrows, so each round is
        sorted as tuples.  Built on first use and kept; raises ValueError
        on an oriented cycle."""
        if self._paths is not None:
            return self._paths
        if not self.is_acyclic():
            raise ValueError("path-space computations need an acyclic quiver")
        table = {(v, v): [trivial_path(v)] for v in self.vertices}
        frontier = dict(table)
        while frontier:
            nxt = {}
            for (u, v), plist in frontier.items():
                for a in self.out_arrows[v]:
                    w, tail = a.tgt, (a.id,)
                    nxt.setdefault((u, w), []).extend(Path(u, w, p.arrows + tail) for p in plist)
            for key, plist in nxt.items():
                plist.sort()
                table.setdefault(key, []).extend(plist)
            frontier = nxt
        self._pathindex = {key: {p: i for i, p in enumerate(plist)} for key, plist in table.items()}
        self._paths = table
        return table

    def paths(self, u, v):
        """All paths u -> v, sorted by (length, arrow id sequence)."""
        return self.path_table().get((u, v), [])

    def path_index(self, u, v):
        self.path_table()
        return self._pathindex.get((u, v), {})

    def relation_vector(self, rel):
        """Coefficient vector of a relation in the (source,target) path basis."""
        u, v = rel.source, rel.target
        idx = self.path_index(u, v)
        vec = [F0] * len(idx)
        for c, p in rel.terms:
            if p not in idx:
                raise ValueError("relation path not in quiver")
            vec[idx[p]] += c
        return vec

    def arrow_product(self, vec, u, v, a, left):
        """The product a.x (left) or x.a of the arrow a with x = vec over the
        paths u -> v, as a vector over the paths of the product."""
        src, tgt = (a.src, v) if left else (u, a.tgt)
        idx = self.path_index(src, tgt)
        out = [F0] * len(idx)
        for x, p in zip(vec, self.paths(u, v)):
            if x != 0:
                out[idx[Path(src, tgt, (a.id,) + p.arrows if left else p.arrows + (a.id,))]] += x
        return out

    def opposite(self):
        return Quiver(self.vertices, [Arrow(a.id, a.tgt, a.src) for a in self.arrows])

    def is_acyclic(self):
        indeg = {v: len(self.in_arrows[v]) for v in self.vertices}
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for a in self.out_arrows[v]:
                indeg[a.tgt] -= 1
                if indeg[a.tgt] == 0:
                    queue.append(a.tgt)
        return seen == len(self.vertices)

    def __repr__(self):
        return f"Quiver({list(self.vertices)}, {[(a.id, a.src, a.tgt) for a in self.arrows]})"


class Path(namedtuple("Path", "source target arrows")):
    """A composable arrow sequence; length 0 is the trivial path at a vertex.
    arrows holds the arrow ids in traversal order."""

    __slots__ = ()

    @property
    def length(self):
        return len(self.arrows)

    def then(self, other):
        if self.target != other.source:
            raise ValueError("paths do not compose")
        return Path(self.source, other.target, self.arrows + other.arrows)


def trivial_path(v):
    return Path(v, v, ())


def arrow_path(a):
    return Path(a.src, a.tgt, (a.id,))


class Relation(namedtuple("Relation", "terms")):
    """An exact-rational combination of parallel paths of length >= 2:
    terms is a tuple of (coefficient, Path)."""

    __slots__ = ()

    def __new__(cls, terms):
        if not terms:
            raise ValueError("empty relation")
        src = terms[0][1].source
        tgt = terms[0][1].target
        for c, p in terms:
            if c == 0:
                raise ValueError("zero coefficient in relation")
            if p.source != src or p.target != tgt:
                raise ValueError("relation terms are not parallel")
            if p.length < 2:
                raise ValueError("relation contains a path of length < 2")
        return super().__new__(cls, terms)

    @property
    def source(self):
        return self.terms[0][1].source

    @property
    def target(self):
        return self.terms[0][1].target

    def is_monomial(self):
        return len(self.terms) == 1


def monomial_relation(path):
    return Relation(((F1, path),))


_UNSET = object()


class QuiverWithRelations:
    """A quiver plus admissible relations; the bound algebra is kQ/I.

    The paths of kQ depend on the quiver alone, so they live in its
    `Quiver.path_table`, shared by every presentation over that quiver;
    the ideal spans, ideal words, zero paths and fingerprint are cached
    here.
    """

    def __init__(self, quiver, relations=()):
        self.quiver = quiver
        self.relations = tuple(relations)
        self._ideal = None
        self._words = _UNSET
        self._zeros = _UNSET
        self._fingerprint = None

    def ideal_spans(self):
        """Per (u,v) pair, the subspace of the path space spanned by the ideal."""
        if self._ideal is not None:
            return self._ideal
        q = self.quiver
        spans = {key: Subspace(len(plist)) for key, plist in q.path_table().items()}
        todo = []
        for rel in self.relations:
            if spans[(rel.source, rel.target)].add(q.relation_vector(rel)):
                todo.append((rel.source, rel.target))
        # close under multiplication by arrows on both sides
        while todo:
            (u, v) = todo.pop()
            base = spans[(u, v)].basis()
            for a in q.in_arrows[u]:
                for row in base:
                    if spans[(a.src, v)].add(q.arrow_product(row, u, v, a, left=True)):
                        todo.append((a.src, v))
            for a in q.out_arrows[v]:
                for row in base:
                    if spans[(u, a.tgt)].add(q.arrow_product(row, u, v, a, left=False)):
                        todo.append((u, a.tgt))
        self._ideal = spans
        return spans

    def algebra_dimension(self):
        """Dimension of kQ/I = total path count minus ideal dimension."""
        spans = self.ideal_spans()
        return sum(len(plist) - spans[key].dim for key, plist in self.quiver.path_table().items())


# ---- spec operations ----------------------------------------------------


def paths_between(qwr, u, v):
    """Basis of the path space from u to v in kQ/I, as representative paths.

    Representatives are the canonical complement of the ideal span in the
    (length, arrow-id) ordered path basis.
    """
    if u not in qwr.quiver.vertices or v not in qwr.quiver.vertices:
        raise KeyError(f"unknown vertex in ({u}, {v})")
    plist = qwr.quiver.paths(u, v)
    if not plist:
        return []
    span = qwr.ideal_spans()[(u, v)]
    return [plist[j] for j in span.complement_indices()]


def _ideal_words(qwr):
    """The minimal generating paths of I, as a frozenset of arrow-id
    tuples, when I is monomial; None when it is not.  Read off the ideal
    spans (`_span_words`) and cached on qwr."""
    if qwr._words is _UNSET:
        qwr._words = _span_words(qwr)
    return qwr._words


def _span_words(qwr):
    """The minimal generating paths of I read off the ideal spans, or None.

    I is monomial exactly when each span, kept in reduced row echelon form,
    has only unit-vector rows; the paths in I are then those at the pivots,
    and the minimal ones are those whose two longest proper subpaths lie
    outside I.
    """
    in_ideal = set()
    for (u, v), span in qwr.ideal_spans().items():
        plist = qwr.quiver.paths(u, v)
        for row, piv in zip(span.rows, span.pivots):
            if any(x != 0 for j, x in enumerate(row) if j != piv):
                return None
            in_ideal.add(plist[piv].arrows)
    return frozenset(w for w in in_ideal if w[1:] not in in_ideal and w[:-1] not in in_ideal)


def is_string_algebra(qwr):
    """Conditions (S1)-(S3): at most two arrows in/out per vertex, a monomial
    ideal, and at most one continuation outside the ideal on each side of
    an arrow.  A length-2 path lies in a monomial ideal exactly when it is
    a minimal generator."""
    q = qwr.quiver
    for v in q.vertices:
        if len(q.out_arrows[v]) > 2 or len(q.in_arrows[v]) > 2:
            return False
    words = _ideal_words(qwr)
    if words is None:
        return False
    for a in q.arrows:
        if sum((a.id, b.id) not in words for b in q.out_arrows[a.tgt]) > 1:
            return False
        if sum((c.id, a.id) not in words for c in q.in_arrows[a.src]) > 1:
            return False
    return True


def is_gentle(qwr):
    """String algebra with at most one killed continuation per arrow on each
    side (S2') whose ideal is generated by paths of length 2 (S3')."""
    if not is_string_algebra(qwr):
        return False
    q = qwr.quiver
    words = _ideal_words(qwr)
    for a in q.arrows:
        if sum((a.id, b.id) in words for b in q.out_arrows[a.tgt]) > 1:
            return False
        if sum((c.id, a.id) in words for c in q.in_arrows[a.src]) > 1:
            return False
    return all(len(w) == 2 for w in words)


def connected_components(qwr):
    """Split along underlying undirected connectivity; relations follow
    the component containing their support.  A connected qwr is its own
    component.  Otherwise, when the path table of qwr's quiver is built,
    each component's quiver takes its entries for the vertex pairs inside
    it, and when qwr's ideal is built, the component takes its spans there
    (shared, not copied).  That is exact: the paths between two vertices
    of a component are the same in both quivers and sorted alike, closing
    the ideal under arrows never leaves a component, and a subspace has
    one reduced row echelon form.
    """
    q = qwr.quiver
    parent = {v: v for v in q.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in q.arrows:
        ra, rb = find(a.src), find(a.tgt)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in q.vertices:
        groups.setdefault(find(v), []).append(v)
    if len(groups) == 1:
        return [qwr]
    comps = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        verts = sorted(groups[root])
        vset = set(verts)
        arrows = [a for a in q.arrows if a.src in vset]
        rels = [r for r in qwr.relations if r.source in vset]
        sub = Quiver(verts, arrows)
        if q._paths is not None:
            sub._paths = {k: v for k, v in q._paths.items() if k[0] in vset}
            sub._pathindex = {k: v for k, v in q._pathindex.items() if k[0] in vset}
        comp = QuiverWithRelations(sub, rels)
        if qwr._ideal is not None:
            comp._ideal = {k: v for k, v in qwr._ideal.items() if k[0] in vset}
        comps.append(comp)
    return comps


# ---- bound quiver algebra modules and global dimension -------------------


class BoundAlgebra:
    """kQ/I with a canonical path basis, enough structure to resolve modules.

    Modules are kept as representations of Q (a space per vertex, a matrix
    per arrow) that satisfy the relations.
    """

    def __init__(self, qwr):
        self.qwr = qwr
        self.q = qwr.quiver
        # (u,v) -> list of representative paths
        self.basis = {key: paths_between(qwr, *key) for key in self.q.path_table()}
        self._projectives = {}

    def reduce_path(self, path):
        """Coordinates of a path in the canonical basis of its path space."""
        u, v = path.source, path.target
        idx = self.q.path_index(u, v)
        vec = [F0] * len(idx)
        vec[idx[path]] = F1
        span = self.qwr.ideal_spans()[(u, v)]
        return span.quotient_coords(vec)

    def projective(self, i):
        """P(i) as a representation: basis of P(i)_u is the reduced paths i->u."""
        if i in self._projectives:
            return self._projectives[i]
        dims = {u: len(self.basis.get((i, u), [])) for u in self.q.vertices}
        mats = {}
        for a in self.q.arrows:
            src_basis = self.basis.get((i, a.src), [])
            m = Mat(dims[a.tgt], dims[a.src])
            for col, p in enumerate(src_basis):
                coords = self.reduce_path(p.then(arrow_path(a)))
                for row, x in enumerate(coords):
                    m.a[row][col] = x
            mats[a.id] = m
        P = RepModule(self.q, dims, mats)
        self._projectives[i] = P
        return P


class RepModule:
    """A finite-dimensional representation of a quiver (module over kQ/I)."""

    def __init__(self, q, dims, mats):
        self.q = q
        self.dims = dict(dims)
        self.mats = mats

    def is_zero(self):
        return all(d == 0 for d in self.dims.values())

    def radical_subspaces(self):
        rad = {v: Subspace(self.dims[v]) for v in self.q.vertices}
        for a in self.q.arrows:
            m = self.mats[a.id]
            for j in range(m.cols):
                rad[a.tgt].add(m.column(j))
        return rad


def simple_module(q, v):
    dims = {u: (1 if u == v else 0) for u in q.vertices}
    mats = {a.id: Mat(dims[a.tgt], dims[a.src]) for a in q.arrows}
    return RepModule(q, dims, mats)


class CoverStep:
    """One step of a minimal projective resolution: 0 -> K -> P -> M -> 0.

    P is the sum of P(v) over `slots`; the basis of P at u concatenates,
    slot by slot, the reduced paths v -> u, so slot k's generator (the
    trivial path) sits at position `gen_positions[k]` of P at its vertex.
    `cover` maps the k-th generator to `gens[k]` in M; `incl` is the
    inclusion of K as the columns of the kernel basis of `cover`.

    A map from P to a module Y is given by its generator images, laid out
    as one vector of Hom(P, Y)-coordinates: slot by slot, a vector of
    Y at the slot's vertex.  `split` and `gather` read that layout, and
    `pull_back` precomposes such a map with a map into P.
    """

    __slots__ = ("slots", "gens", "gen_positions", "P", "cover", "K", "incl")

    def __init__(self, slots, gens, gen_positions, P, cover, K, incl):
        self.slots = slots
        self.gens = gens
        self.gen_positions = gen_positions
        self.P = P
        self.cover = cover
        self.K = K
        self.incl = incl

    def split(self, vec, target):
        """The generator images, slot by slot, of the map P -> target with
        Hom(P, target)-coordinates `vec`."""
        out = []
        off = 0
        for v in self.slots:
            out.append(vec[off:off + target.dims[v]])
            off += target.dims[v]
        return out

    def gather(self, mats):
        """The Hom(P, Y)-coordinates of the map P -> Y with per-vertex
        matrices `mats`: its columns at the slot generators."""
        out = []
        for v, pos in zip(self.slots, self.gen_positions):
            out.extend(mats[v].column(pos))
        return out

    def pull_back(self, alg, vec, target, maps, onto):
        """The Hom(onto.P, target)-coordinates of the map P -> target with
        coordinates vec composed with `maps`, per-vertex matrices of a map
        from onto.P into P."""
        images = expand(alg, self.slots, self.split(vec, target), target)
        return onto.gather({u: images[u].mul(maps[u]) for u in images})


def expand(alg, slots, gen_images, target):
    """Per-vertex matrices of the map from the sum of P(v), v in slots, to
    `target` (anything with .dims and .mats) sending the k-th slot
    generator to gen_images[k]."""
    cols = {u: [] for u in alg.q.vertices}
    for v, g in zip(slots, gen_images):
        for u in alg.q.vertices:
            for p in alg.basis.get((v, u), []):
                cols[u].append(_act_along_path(target, g, p))
    return {u: Mat.from_columns(cols[u], target.dims[u]) for u in alg.q.vertices}


def projective_cover(alg, mod):
    """The projective cover of `mod` and its kernel, as a CoverStep."""
    q = alg.q
    rad = mod.radical_subspaces()
    slots = []
    gens = []
    for v in q.vertices:
        for j in rad[v].complement_indices():
            e = [F0] * mod.dims[v]
            e[j] = F1
            slots.append(v)
            gens.append(e)
    cover = expand(alg, slots, gens, mod)
    # P is block diagonal in the projectives P(v), one block per slot
    P_dims = {u: 0 for u in q.vertices}
    offsets = []
    for v in slots:
        offsets.append(dict(P_dims))
        for u in q.vertices:
            P_dims[u] += alg.projective(v).dims[u]
    P_mats = {a.id: block_diag([alg.projective(v).mats[a.id] for v in slots]) for a in q.arrows}
    P = RepModule(q, P_dims, P_mats)
    # the kernel basis is the identity on the free columns, so a kernel
    # vector's coordinates are its entries there
    kbasis = {}
    free = {}
    for u in q.vertices:
        kbasis[u], free[u] = kernel(cover[u])
        if P_dims[u] - len(free[u]) != mod.dims[u]:
            raise AssertionError("projective cover is not surjective")
    K_mats = {}
    for a in q.arrows:
        cols = []
        for kv in kbasis[a.src]:
            img = P_mats[a.id].apply(kv)
            if any(x != 0 for x in cover[a.tgt].apply(img)):
                raise AssertionError("kernel not arrow-stable; relation bookkeeping broken")
            cols.append([img[f] for f in free[a.tgt]])
        K_mats[a.id] = Mat.from_columns(cols, len(free[a.tgt]))
    K = RepModule(q, {u: len(free[u]) for u in q.vertices}, K_mats)
    incl = {u: Mat.from_columns(kbasis[u], P_dims[u]) for u in q.vertices}
    gen_positions = [offs[v] for v, offs in zip(slots, offsets)]
    return CoverStep(tuple(slots), gens, gen_positions, P, cover, K, incl)


def _act_along_path(mod, vec, path):
    out = list(vec)
    for aid in path.arrows:
        out = mod.mats[aid].apply(out)
    return out


def global_dimension(qwr):
    """Max over simples S_v of the projective dimension pd S_v, by one rule
    for every ideal.

    Each simple is settled up to pd 2 from the dimensions of its first two
    syzygies (`_pds_from_dimensions`):
      pd S_v = 0 when Omega^1 S_v = 0;
      pd S_v = 1 when Omega^1 S_v != 0 and Omega^2 S_v = 0;
      pd S_v = 2 when Omega^2 S_v != 0 and dim Omega^2 S_v is the sum of
        dim P(t(rho)) over the relations rho with source v.
    As kQ is free, Omega^2 S_v is e_v I / (sum over the arrows a: v -> w
    of a I), and e_v I is that sum plus the rho A over the relations rho
    with source v.  So for any set of relations generating I, the sum of
    those P(t(rho)) maps onto Omega^2 S_v (Bongartz 1983, Algebras and
    quadratic forms), and in the third case the map is an isomorphism and
    Omega^2 S_v projective.  Only the simples the rule leaves open are
    resolved (`_pd_by_resolution`); with minimal relations the map is a
    projective cover, so they are exactly the simples of pd >= 3.
    """
    pds = _pds_from_dimensions(qwr)
    best = max((pd for pd in pds.values() if pd is not None), default=0)
    undecided = [v for v, pd in pds.items() if pd is None]
    if undecided:
        alg = BoundAlgebra(qwr)
        best = max(best, *(_pd_by_resolution(alg, v) for v in undecided))
    return best


def _pds_from_dimensions(qwr):
    """Per vertex v, pd S_v when global_dimension's rule settles it, else
    None.

    dim P(x) is the number of paths out of x less the dimension of I
    there.  Every relation has length >= 2, so I lies in rad^2 and the top
    of Omega^1 S_v = rad P(v) is spanned by the arrows a: v -> w.  Hence
      dim Omega^1 S_v = dim P(v) - 1,
      dim Omega^2 S_v = (sum over a: v -> w of dim P(w)) - dim Omega^1 S_v.
    """
    q = qwr.quiver
    spans = qwr.ideal_spans()
    dim = {v: 0 for v in q.vertices}
    for (x, u), plist in q.path_table().items():
        dim[x] += len(plist) - spans[(x, u)].dim
    onto = {v: 0 for v in q.vertices}
    for rel in qwr.relations:
        onto[rel.source] += dim[rel.target]
    pds = {}
    for v in q.vertices:
        omega1 = dim[v] - 1
        omega2 = sum(dim[a.tgt] for a in q.out_arrows[v]) - omega1
        if omega1 == 0:
            pds[v] = 0
        elif omega2 == 0:
            pds[v] = 1
        elif omega2 == onto[v]:
            pds[v] = 2
        else:
            pds[v] = None
    return pds


def _gldim_by_resolution(qwr):
    """Global dimension from the minimal projective resolution of each simple."""
    alg = BoundAlgebra(qwr)
    return max((_pd_by_resolution(alg, v) for v in qwr.quiver.vertices), default=0)


def _pd_by_resolution(alg, v):
    """pd S_v: the length of the minimal projective resolution of the
    simple at v, iterating projective_cover."""
    cap = len(alg.q.vertices) + 1
    mod = simple_module(alg.q, v)
    pd = 0
    while True:
        mod = projective_cover(alg, mod).K
        if mod.is_zero():
            return pd
        pd += 1
        if pd > cap:
            raise AssertionError("projective resolution did not terminate")


# ---- isomorphism ----------------------------------------------------------


def _degree_profile(qwr):
    q = qwr.quiver
    return {v: (len(q.in_arrows[v]), len(q.out_arrows[v])) for v in q.vertices}


def _pair_dims(qwr):
    """(path count, ideal dim) per ordered vertex pair; an iso invariant."""
    spans = qwr.ideal_spans()
    return {
        (u, v): (len(plist), spans[(u, v)].dim)
        for (u, v), plist in qwr.quiver.path_table().items()
        if u != v
    }


def iso_fingerprint(qwr):
    """Cheap invariant used to bucket presentations before exact matching.
    Cached on qwr."""
    if qwr._fingerprint is None:
        qwr._fingerprint = _fingerprint(qwr)
    return qwr._fingerprint


def _fingerprint(qwr):
    q = qwr.quiver
    prof = _degree_profile(qwr)
    pd = _pair_dims(qwr)
    per_vertex = []
    for v in q.vertices:
        outs = sorted(val for (u, w), val in pd.items() if u == v)
        ins = sorted(val for (u, w), val in pd.items() if w == v)
        per_vertex.append((prof[v], tuple(outs), tuple(ins)))
    return (
        len(q.vertices),
        len(q.arrows),
        tuple(sorted(per_vertex)),
        qwr.algebra_dimension(),
    )


def _arrow_map(qa, qb, vmap):
    """The one arrow bijection over vmap between quivers without parallel arrows, or None."""
    ids_b = {(b.src, b.tgt): b.id for b in qb.arrows}
    amap = {a.id: ids_b.get((vmap[a.src], vmap[a.tgt])) for a in qa.arrows}
    return None if None in amap.values() else amap


def are_isomorphic(a, b):
    """A quiver isomorphism carrying the zero paths of one presentation
    onto those of the other.

    The domain is Schurian presentations isomorphic to their commutative
    form (`zero_paths`); anything else, parallel arrows included, raises
    ValueError.  On it the test is exact: an isomorphism of Schurian
    algebras rescales the arrows of a quiver isomorphism, so it keeps zero
    paths zero, and two commutative forms with matching zero paths are
    isomorphic.  Without parallel arrows a vertex bijection allows at most
    one arrow bijection (`_arrow_map`).
    """
    za, zb = zero_paths(a), zero_paths(b)
    if za is None or zb is None:
        raise ValueError(
            "are_isomorphic needs Schurian presentations (no parallel arrows) "
            "isomorphic to their commutative form"
        )
    if iso_fingerprint(a) != iso_fingerprint(b):
        return False
    qa, qb = a.quiver, b.quiver
    prof_a, prof_b = _degree_profile(a), _degree_profile(b)
    pda, pdb = _pair_dims(a), _pair_dims(b)
    if len(pda) != len(pdb):
        return False

    verts_a = list(qa.vertices)

    def extend(vmap):
        if len(vmap) == len(verts_a):
            amap = _arrow_map(qa, qb, vmap)
            return amap is not None and {tuple(amap[i] for i in w) for w in za} == zb
        v = verts_a[len(vmap)]
        for w in qb.vertices:
            if prof_b[w] != prof_a[v] or w in vmap.values() or any(
                u == v and x in vmap and pdb.get((w, vmap[x])) != val
                or x == v and u in vmap and pdb.get((vmap[u], w)) != val
                for (u, x), val in pda.items()
            ):
                continue
            vmap[v] = w
            if extend(vmap):
                return True
            del vmap[v]
        return False

    return extend({})


def zero_paths(qwr):
    """The paths that are zero in kQ/I, as a frozenset of arrow-id tuples,
    when qwr is Schurian and isomorphic to its commutative form; None when
    it is not.  Read off the ideal spans and cached on qwr.

    The commutative form has qwr's quiver, its zero paths as monomial
    relations and p - q for every two parallel nonzero paths.  Schurian
    means each pair (u, v) has at most one free column; each row of its
    span, in reduced row echelon form, is then a unit row (a zero path) or
    p + c b, with b the pair's free path.  Arrow weights w rescale qwr onto
    its commutative form exactly when w(p)/w(b) = -1/c for every such row
    (`_solve_rescaling`).
    """
    if qwr._zeros is _UNSET:
        qwr._zeros = _certified_zero_paths(qwr)
    return qwr._zeros


def _certified_zero_paths(qwr):
    arrow_ids = [a.id for a in qwr.quiver.arrows]
    spans = qwr.ideal_spans()
    zeros, constraints = set(), []
    for key, plist in qwr.quiver.path_table().items():
        span = spans[key]
        if len(plist) - span.dim > 1:
            return None
        if not span.rows:
            continue
        free = span.complement_indices()
        for row, piv in zip(span.rows, span.pivots):
            p = plist[piv].arrows
            c = row[free[0]] if free else 0
            if c == 0:
                zeros.add(p)
            else:
                b = plist[free[0]].arrows
                # -1/c; the census components have shown only c = +-1
                ratio = -c if c == 1 or c == -1 else fraction(-1) / c
                constraints.append(([p.count(i) - b.count(i) for i in arrow_ids], ratio))
    if _solve_rescaling(arrow_ids, constraints) is None:
        return None
    return frozenset(zeros)


def _factor_small(n):
    """Prime factorization by trial division (relation coefficients are small)."""
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _solve_rescaling(arrow_ids, constraints):
    """Weights w_alpha in Q* with prod w^e = ratio per constraint, or None.

    Q* is {+-1} x (sum over primes p of Z), so the constraints split into
    one integer system per part: the sign part E x = s (mod 2), solved as
    [E | 2I] (x, y) = s, and E x = v_p(ratio) for each prime p; ratios of
    +-1 have no prime part, and only a prime part makes a Fraction.
    """
    weights = {aid: F1 for aid in arrow_ids}
    if not constraints:
        return weights
    emat = [c[0] for c in constraints]
    # the sign part: one slack column 2 e_i per constraint
    sign_mat = [row + [2 if i == j else 0 for j in range(len(emat))] for i, row in enumerate(emat)]
    sol = integer_solve(sign_mat, [0 if ratio > 0 else 1 for _, ratio in constraints])
    if sol is None:
        return None
    for aid, x in zip(arrow_ids, sol):
        if x % 2:
            weights[aid] = -1
    primes = set()
    for _, ratio in constraints:
        primes.update(_factor_small(ratio.numerator))
        primes.update(_factor_small(ratio.denominator))
    for p in sorted(primes):
        target = [
            _factor_small(ratio.numerator).get(p, 0) - _factor_small(ratio.denominator).get(p, 0)
            for _, ratio in constraints
        ]
        sol = integer_solve(emat, target)
        if sol is None:
            return None
        for aid, x in zip(arrow_ids, sol):
            weights[aid] *= fraction(p) ** x
    return weights


# ---- serialization --------------------------------------------------------


def qwr_to_json(qwr):
    return {
        "vertices": list(qwr.quiver.vertices),
        "arrows": [{"id": a.id, "src": a.src, "tgt": a.tgt} for a in qwr.quiver.arrows],
        "relations": [
            [{"coef": f"{c.numerator}/{c.denominator}", "path": list(p.arrows)} for c, p in rel.terms]
            for rel in qwr.relations
        ],
    }


# ---- standard quiver builders --------------------------------------------


@lru_cache(maxsize=None)
def line_quiver(n):
    """Linearly oriented A_n with arrows (i+1) -> i, vertices 1..n."""
    return Quiver(range(1, n + 1), [Arrow(i, i + 1, i) for i in range(1, n)])


@lru_cache(maxsize=None)
def d_linear_quiver(n):
    """D_n with linear orientation: 3 -> 1, 3 -> 2, and (i+1) -> i down the tail."""
    if n < 3:
        raise ValueError("D-type quivers need n >= 3")
    arrows = [Arrow(1, 3, 1), Arrow(2, 3, 2)]
    arrows += [Arrow(i, i + 1, i) for i in range(3, n)]
    return Quiver(range(1, n + 1), arrows)


@lru_cache(maxsize=None)
def d_reversed_quiver(n):
    """D_n with the arrow at the unique source of the linear orientation reversed."""
    if n < 4:
        raise ValueError("the reversed-source D quiver needs n >= 4")
    arrows = [Arrow(1, 3, 1), Arrow(2, 3, 2)]
    arrows += [Arrow(i, i + 1, i) for i in range(3, n - 1)]
    arrows.append(Arrow(n - 1, n - 1, n))
    return Quiver(range(1, n + 1), arrows)


@lru_cache(maxsize=None)
def b_reversed_quiver(n):
    """A_n line with the arrow at its unique source reversed."""
    if n < 2:
        raise ValueError("needs n >= 2")
    arrows = [Arrow(i, i + 1, i) for i in range(1, n - 1)]
    arrows.append(Arrow(n - 1, n - 1, n))
    return Quiver(range(1, n + 1), arrows)
