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
whether the ideal is monomial and which paths generate it.  Global dimension, string and
gentle all read those words: a monomial ideal's global dimension comes
from overlapping them (Green-Happel-Zacharia), and the string (S1)-(S3)
and gentle conditions are conditions on the length-2 words
(Butler-Ringel).

Any other ideal settles each simple's projective dimension up to 2 from
dimensions read off the same spans.  Every relation has length >= 2, so
I lies in rad^2, the first syzygy of S_v is rad P(v), and the second is
covered by the sum of P(w) over the arrows v -> w.  The rule is: pd S_v
is 0 when the first syzygy is 0; it is 1 when the second is 0; and it
is 2 when the second is nonzero and its dimension equals the sum of
dim P(t(rho)) over the relations rho starting at v.  That sum maps onto
the second syzygy for any generating set of I (Bongartz 1983), so equal
dimensions make the second syzygy projective.  Global dimension iterates
the cover step only on the simples this leaves open, which with minimal
relations are exactly those of projective dimension >= 3.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from .linalg import F0, F1, Mat, Subspace, block_diag, integer_solve, kernel, nullspace


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
    the ideal spans, ideal words and fingerprint are cached here.
    """

    def __init__(self, quiver, relations=()):
        self.quiver = quiver
        self.relations = tuple(relations)
        self._ideal = None
        self._words = _UNSET
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


def _relation_words(qwr):
    """The relation words that contain no other relation word; exact when
    every relation is a single path, since they then generate I.

    A test oracle: no code in the package calls it.
    test_relation_words_match_the_ideal_spans_on_censuses compares it with
    `_span_words` on every monomial census component.
    """
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


def is_gradable(q):
    """True iff a vertex grading exists raising degree by 1 along every arrow
    (equivalently every undirected closed walk has signed degree zero)."""
    deg = {}
    for start in q.vertices:
        if start in deg:
            continue
        deg[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            steps = [(a.tgt, 1) for a in q.out_arrows[v]] + [(a.src, -1) for a in q.in_arrows[v]]
            for w, step in steps:
                if w not in deg:
                    deg[w] = deg[v] + step
                    stack.append(w)
                elif deg[w] != deg[v] + step:
                    return False
    return True


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
    inclusion of K as the columns of the nullspace basis of `cover`.

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
    # the nullspace basis is the identity on the free columns, so a kernel
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
    """Max over simples S_v of the projective dimension pd S_v.

    A monomial ideal reads it off its minimal generating words.  Any other
    settles each simple from the dimensions of its first two syzygies
    (`_pds_from_dimensions`):
      pd S_v = 0 when Omega^1 S_v = 0;
      pd S_v = 1 when Omega^1 S_v != 0 and Omega^2 S_v = 0;
      pd S_v = 2 when Omega^2 S_v != 0 and dim Omega^2 S_v is the sum of
        dim P(t(rho)) over the relations rho with source v.
    For any set of relations generating I, the sum of those P(t(rho)) maps
    onto Omega^2 S_v (Bongartz 1983, Algebras and quadratic forms), so in
    the third case the map is an isomorphism and Omega^2 S_v projective.
    Only the simples the rule leaves open are resolved with
    projective_cover; with minimal relations they are exactly the simples
    of pd >= 3.
    """
    words = _ideal_words(qwr)
    if words is not None:
        return _gldim_from_words(qwr.quiver, words)
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
    As kQ is free, Omega^2 S_v is e_v I / (sum over those a of a I), and
    e_v I is that sum plus the rho A over the relations rho with source v,
    which is why the P(t(rho)) map onto it.  With minimal relations that
    map is a projective cover, so a simple left open has pd S_v >= 3.
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


def _gldim_from_words(q, words):
    """Global dimension of kQ/I for I generated by the paths `words`, as
    arrow-id tuples (Green, Happel and Zacharia 1985), with paths read left
    to right.

    Omega(S_v) is the sum of the alpha A over the arrows alpha leaving v.
    For a nonzero path p, Omega(pA) is the sum of the qA over the paths q
    out of t(p) with q not in I and pq in I such that no proper prefix q'
    of q has pq' in I; pA is projective when there is no such q.  A word
    lies in I exactly when it contains a word of `words` as a subword.
    """
    longest = max((len(w) for w in words), default=0)
    cap = len(q.vertices) + 1
    pds = {}

    def shortest_relation_suffix(word):
        for k in range(2, min(longest, len(word)) + 1):
            if word[-k:] in words:
                return k
        return 0

    def syzygy(p, v):
        """The generators q of Omega(pA), as (arrow ids, target) pairs;
        p is a nonzero path ending at v."""
        gens = []
        stack = [((), v)]
        while stack:
            qw, u = stack.pop()
            for a in q.out_arrows[u]:
                qa = qw + (a.id,)
                # p + qw is nonzero, so a word of `words` in p + qa is a suffix
                k = shortest_relation_suffix(p + qa)
                if k == 0:
                    stack.append((qa, a.tgt))
                elif k > len(qa):
                    gens.append((qa, a.tgt))
        return gens

    def pd(p, v):
        if p not in pds:
            gens = syzygy(p, v)
            pds[p] = 1 + max(pd(qw, u) for qw, u in gens) if gens else 0
            if pds[p] > cap:
                raise AssertionError("projective resolution did not terminate")
        return pds[p]

    return max((1 + pd((a.id,), a.tgt) for a in q.arrows), default=0)


# ---- effective intersections on a line -----------------------------------


def _line_vertex_order(q):
    """Vertex order along a linearly oriented A-type quiver, or None."""
    if len(q.arrows) != len(q.vertices) - 1:
        return None
    starts = [v for v in q.vertices if not q.in_arrows[v]]
    if len(starts) != 1:
        return None
    order = [starts[0]]
    while q.out_arrows[order[-1]]:
        outs = q.out_arrows[order[-1]]
        if len(outs) != 1:
            return None
        order.append(outs[0].tgt)
    return order if len(order) == len(q.vertices) else None


def effective_intersection_count(qwr):
    """Maximum size N of an effective chain of interval relations.

    Relations on a linearly oriented line are intervals [i, j] in the
    position order.  An effective chain is a subset which, ordered by
    start, has consecutive members intersecting (i < r < j < s) and no
    other intersections among its members.  The caller may then assert
    gldim = N + 1 (checked against resolution-based global dimension in
    the test suite, including chains that skip intermediate relations).
    """
    order = _line_vertex_order(qwr.quiver)
    if order is None:
        raise ValueError("effective_intersection_count needs a linearly oriented line")
    if not all(rel.is_monomial() for rel in qwr.relations):
        raise ValueError("effective_intersection_count needs monomial relations")
    pos = {v: k for k, v in enumerate(order)}
    arrow = qwr.quiver.arrow_by_id
    # on a line a word is its interval, and a subword a subinterval
    minimal = sorted((pos[arrow[w[0]].src], pos[arrow[w[-1]].tgt]) for w in _ideal_words(qwr))
    if not minimal:
        return 0

    def intersects(p, q):
        (i, j), (r, s) = sorted([p, q])
        if (i, j) == (r, s):
            return False
        return i < r < j < s

    best = 0
    m = len(minimal)

    def extend(chain, start):
        nonlocal best
        best = max(best, len(chain))
        for k in range(start, m):
            q = minimal[k]
            if chain:
                if not intersects(chain[-1], q):
                    continue
                if any(intersects(p, q) for p in chain[:-1]):
                    continue
            extend(chain + [q], k + 1)

    extend([], 0)
    return best


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


def _arrow_map_candidates(qa, qb, vmap):
    """All arrow bijections compatible with a vertex bijection."""
    groups = {}
    for a in qa.arrows:
        groups.setdefault((a.src, a.tgt), []).append(a)
    bgroups = {}
    for b in qb.arrows:
        bgroups.setdefault((b.src, b.tgt), []).append(b)
    choices = []
    for key in sorted(groups):
        tgt = bgroups.get((vmap[key[0]], vmap[key[1]]), [])
        if len(tgt) != len(groups[key]):
            return
        choices.append([[(a.id, b.id) for a, b in zip(groups[key], perm)] for perm in permutations(tgt)])
    for combo in product(*choices):
        yield {aid: bid for pairs in combo for aid, bid in pairs}


def are_isomorphic(a, b):
    """Vertex/arrow bijection matching quivers and carrying the relation
    ideal of one presentation onto the other, up to rescaling of arrows.

    The torus of arrow rescalings acts on relation coefficients; a
    presentation with a commutativity relation p - q and one with p + q
    present the same algebra.  Feasibility of a rescaling is decided
    exactly (per prime, plus signs) and then verified against every pair
    of vertices.
    """
    if iso_fingerprint(a) != iso_fingerprint(b):
        return False
    qa, qb = a.quiver, b.quiver
    prof_a, prof_b = _degree_profile(a), _degree_profile(b)
    pda, pdb = _pair_dims(a), _pair_dims(b)
    if len(pda) != len(pdb):
        return False
    spans_a, spans_b = a.ideal_spans(), b.ideal_spans()

    verts_a = list(qa.vertices)
    cands = {
        v: [w for w in qb.vertices if prof_b[w] == prof_a[v]]
        for v in verts_a
    }

    def extend(i, vmap, used):
        if i == len(verts_a):
            yield dict(vmap)
            return
        v = verts_a[i]
        for w in cands[v]:
            if w in used:
                continue
            ok = True
            for (u, x), val in pda.items():
                if u == v and x in vmap and pdb.get((w, vmap[x])) != val:
                    ok = False
                    break
                if x == v and u in vmap and pdb.get((vmap[u], w)) != val:
                    ok = False
                    break
            if not ok:
                continue
            vmap[v] = w
            used.add(w)
            yield from extend(i + 1, vmap, used)
            del vmap[v]
            used.discard(w)

    for vmap in extend(0, {}, set()):
        for amap in _arrow_map_candidates(qa, qb, vmap):
            if _ideal_matches_up_to_rescaling(a, b, vmap, amap, spans_a, spans_b):
                return True
    return False


def _sigma_path(vmap, amap, p):
    return Path(vmap[p.source], vmap[p.target], tuple(amap[i] for i in p.arrows))


def _ideal_matches_up_to_rescaling(a, b, vmap, amap, spans_a, spans_b):
    arrow_ids = [ar.id for ar in a.quiver.arrows]
    arrow_pos = {aid: i for i, aid in enumerate(arrow_ids)}
    constraints = []  # (integer exponent vector over a-arrows, ratio in Q*)
    pair_data = []
    # the pairs joined by a path, in the (u, v) order of a's vertex tuple
    rank = {v: i for i, v in enumerate(a.quiver.vertices)}
    pairs = sorted(a.quiver.path_table().items(), key=lambda kv: [rank[x] for x in kv[0]])
    for (u, v), plist in pairs:
        span_a = spans_a[(u, v)]
        key_b = (vmap[u], vmap[v])
        span_b = spans_b[key_b]
        if span_a.dim != span_b.dim:
            return False
        if span_a.dim == 0:
            continue
        idx_b = b.quiver.path_index(*key_b)
        nb = len(idx_b)
        pair_data.append((u, v, plist, key_b, idx_b, nb, span_a, span_b))
        for row in span_a.basis():
            supp = [(p, c) for c, p in zip(row, plist) if c != 0]
            # solution space of sum_t y_t e_{sigma p_t} in span_b
            rems = []
            for p, _c in supp:
                e = [F0] * nb
                e[idx_b[_sigma_path(vmap, amap, p)]] = F1
                rems.append(span_b.reduce(e))
            sols = nullspace(Mat.from_columns(rems, nb))
            if not sols:
                return False
            if len(sols) == 1:
                kappa = sols[0]
                if any(k == 0 for k in kappa):
                    return False
                p0, c0 = supp[0]
                sp0 = set(_sigma_path(vmap, amap, p0).arrows)
                for t in range(1, len(supp)):
                    pt, ct = supp[t]
                    spt = set(_sigma_path(vmap, amap, pt).arrows)
                    exps = [0] * len(arrow_ids)
                    for aid, i in arrow_pos.items():
                        bid = amap[aid]
                        exps[i] = (1 if bid in spt else 0) - (1 if bid in sp0 else 0)
                    ratio = Fraction(kappa[t] * c0) / (kappa[0] * ct)
                    constraints.append((exps, ratio))
            # solution spaces of dimension >= 2 impose no chain constraint;
            # the final verification below covers them
    weights = _solve_rescaling(arrow_ids, constraints)
    if weights is None:
        return False
    for (u, v, plist, key_b, idx_b, nb, span_a, span_b) in pair_data:
        for row in span_a.basis():
            vec = [F0] * nb
            for c, p in zip(row, plist):
                if c != 0:
                    w = F1
                    for aid in p.arrows:
                        w *= weights[aid]
                    vec[idx_b[_sigma_path(vmap, amap, p)]] += c * w
            if not span_b.contains(vec):
                return False
    return True


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
    [E | 2I] (x, y) = s, and E x = v_p(ratio) for each prime p.
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
            weights[aid] *= Fraction(p) ** x
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
