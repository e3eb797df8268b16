"""Endomorphism presentations of 2-term objects.

A 2-term object is a set of module summands plus shifted projectives
P(v)[1].  Hom spaces in the homotopy category reduce to module data over a
hereditary base:

  Hom(M, N)        = module homomorphisms,
  Hom(M, P(v)[1])  = coker( Hom(P0, P(v)) -> Hom(P1, P(v)) )  (= Ext^1(M, P(v))),
  Hom(P(v)[1], M)  = 0,
  Hom(P(v)[1], P(w)[1]) = Hom(P(v), P(w)).

Compositions through the shifted part are chain-level: module maps are
lifted to presentations and composed on the P1 component.  Each
composite of two basis maps is computed once per calc object and stored
as coordinates: `TwoTermHomCalc.mult(src, mid, tgt)` is the table of
structure constants C[a][b] = coords(g_b . f_a).  `end_algebra` works
on coordinate vectors and this table alone.  That is exact because
composition is bilinear and `coords` is linear, and because a class in
Hom(M, P(v)[1]) has a well-defined composite with any map P(v)[1] ->
P(w)[1]: post-composition sends maps that factor through the syzygy
inclusion of M into maps that factor through it, so the composite of any
representative lands in the same class.  The output is a quiver with
relations (the Gabriel quiver with a minimal generating set of the kernel
ideal), audited against the total hom dimension.

The paths of the Gabriel quiver come from one `QuiverWithRelations` path
table: the evaluation map, the kernels and the relation terms are indexed
by it, and the presented algebra is bound over the same table
(`with_relations`), so the audit does not enumerate the paths again.
Every linear solve (hom-space coordinates, cover and syzygy lifts) is
`linalg.solve`, and the ms spaces are cokernels of the catalog's
`restriction_image`.
"""

from .linalg import F0, F1, Mat, Subspace, nullspace, solve
from .quivers import Arrow, Quiver, QuiverWithRelations, Relation, arrow_path, expand


MOD = "m"
SHIFT = "s"


class HomSpace:
    """One Hom(X, Y) with a fixed canonical basis and coordinatization."""

    def __init__(self, kind, dim, data):
        self.kind = kind  # "mm" | "ms" | "ss" | "sm"
        self.dim = dim
        self.data = data

    def basis(self):
        return self.data["basis"] if self.data else []


class TwoTermHomCalc:
    """Hom/compose engine for 2-term objects over a fixed catalog."""

    def __init__(self, catalog):
        self.cat = catalog
        self._space_cache = {}
        self._mult_cache = {}

    # ---- space constructors -------------------------------------------

    def space(self, src, tgt):
        key = (src, tgt)
        if key in self._space_cache:
            return self._space_cache[key]
        if src[0] == MOD and tgt[0] == MOD:
            sp = self._mm_space(src[1], tgt[1])
        elif src[0] == MOD and tgt[0] == SHIFT:
            sp = self._ms_space(src[1], tgt[1])
        elif src[0] == SHIFT and tgt[0] == SHIFT:
            sp = self._mm_space(self.cat.proj(src[1]), self.cat.proj(tgt[1]), kind="ss")
        else:
            sp = HomSpace("sm", 0, None)
        self._space_cache[key] = sp
        return sp

    def _mm_space(self, x, y, kind="mm"):
        basis = self.cat.hom_basis(x, y)
        return HomSpace(kind, len(basis), {"basis": basis})

    def _ms_space(self, x, v):
        sub = self.cat.restriction_image(x, self.cat.proj(v))
        reps = []
        for j in sub.complement_indices():
            e = [F0] * sub.ambient
            e[j] = F1
            reps.append(e)
        return HomSpace("ms", sub.ambient - sub.dim, {"sub": sub, "basis": reps})

    # ---- coordinates ----------------------------------------------------

    def coords(self, space, concrete):
        if space.kind == "sm":
            return []
        if space.kind == "ms":
            return space.data["sub"].quotient_coords(concrete)
        # module-style spaces; only the zero map lies in a zero space
        vec = self._flatten_mm(concrete)
        cols = [self._flatten_mm(b) for b in space.data["basis"]]
        out = solve(Mat.from_columns(cols, len(vec)), vec)
        if out is None:
            raise AssertionError("map does not lie in its hom space")
        return out

    def _flatten_mm(self, mats):
        out = []
        for u in self.cat.q.vertices:
            out.extend(mats[u].flatten())
        return out

    # ---- composition -----------------------------------------------------

    def mult(self, src, mid, tgt):
        """Structure constants C[a][b] = coords of (basis b) . (basis a).

        a runs over the basis of Hom(src, mid), b over that of Hom(mid, tgt);
        each entry is a coordinate vector in Hom(src, tgt).  Filled on first
        use of the triple and kept for the life of the calc.
        """
        key = (src, mid, tgt)
        table = self._mult_cache.get(key)
        if table is None:
            out_space = self.space(src, tgt)
            gs = self.space(mid, tgt).basis()
            table = [
                [self.coords(out_space, self.compose(src, mid, tgt, f, g)) for g in gs]
                for f in self.space(src, mid).basis()
            ]
            self._mult_cache[key] = table
        return table

    def compose(self, src, mid, tgt, f, g):
        """Concrete composite g . f for f: src -> mid, g: mid -> tgt."""
        sig = (src[0], mid[0], tgt[0])
        if sig == (MOD, MOD, MOD) or sig == (SHIFT, SHIFT, SHIFT):
            return {u: g[u].mul(f[u]) for u in self.cat.q.vertices}
        if sig == (MOD, MOD, SHIFT):
            lift = self._lift_p1(src[1], mid[1], f)
            return self._postcompose_p1(tgt[1], g, lift)
        if sig == (MOD, SHIFT, SHIFT):
            pres = self.cat.min_projective_presentation(src[1])
            P_mid = self.cat.indecs[self.cat.proj(mid[1])]
            out = []
            off = 0
            for u in pres.p1.slots:
                chunk = f[off:off + P_mid.dims[u]]
                off += P_mid.dims[u]
                out.extend(g[u].apply(chunk))
            return out
        raise AssertionError(f"unsupported composition signature {sig}")

    def _lift_p1(self, x, y, f):
        """P1-component of a chain lift of the module map f: X -> Y."""
        pres_x = self.cat.min_projective_presentation(x)
        pres_y = self.cat.min_projective_presentation(y)
        gens0 = []
        for k, w in enumerate(pres_x.p0.slots):
            y0 = solve(pres_y.p0.cover[w], f[w].apply(pres_x.p0.gens[k]))
            if y0 is None:
                raise AssertionError("projective cover factorization failed")
            gens0.append(y0)
        f0 = expand(self.cat.alg, pres_x.p0.slots, gens0, pres_y.p0.P)
        f1 = {}
        for u in self.cat.q.vertices:
            m = f0[u].mul(pres_x.iota[u])
            out = Mat(pres_y.p1.P.dims[u], pres_x.p1.P.dims[u])
            for j in range(m.cols):
                sol = solve(pres_y.iota[u], m.column(j))
                if sol is None:
                    raise AssertionError("chain lift does not preserve syzygies")
                for i in range(out.rows):
                    out.a[i][j] = sol[i]
            f1[u] = out
        return (pres_x, pres_y, f1)

    def _postcompose_p1(self, v, eta, lift):
        """(eta: Y -> P(v)[1]) composed with a chain lift of f: X -> Y."""
        pres_x, pres_y, f1 = lift
        P = self.cat.indecs[self.cat.proj(v)]
        gens = []
        off = 0
        for u in pres_y.p1.slots:
            gens.append(eta[off:off + P.dims[u]])
            off += P.dims[u]
        eta_mats = expand(self.cat.alg, pres_y.p1.slots, gens, P)
        comp = {u: eta_mats[u].mul(f1[u]) for u in self.cat.q.vertices}
        out = []
        for k, u in enumerate(pres_x.p1.slots):
            out.extend(comp[u].column(pres_x.p1.gen_positions[k]))
        return out


class EndPresentation:
    """Gabriel quiver + minimal relations of End(S), with provenance."""

    def __init__(self, qwr, summands, provenance, hom_dims, total_dim):
        self.qwr = qwr
        self.summands = summands
        self.provenance = provenance   # vertex id -> descriptor dict
        self.hom_dims = hom_dims
        self.total_dim = total_dim

    def to_json(self):
        from .quivers import qwr_to_json

        doc = qwr_to_json(self.qwr)
        doc["vertexSummands"] = {str(v): self.provenance[v] for v in self.qwr.quiver.vertices}
        doc["totalDim"] = self.total_dim
        return doc


def end_algebra(silt, cat, calc=None):
    """Quiver-with-relations presentation of End(S) for a 2-term silting S.

    Vertices are numbered 1..n in summand order (modules ascending, then
    shifted vertices ascending); arrows are canonical rad/rad^2 witnesses;
    relations are a minimal generating set of the kernel of the path
    evaluation map onto the hom algebra.  The dimension of the presented
    algebra is checked against the total hom dimension.
    """
    if calc is None:
        calc = TwoTermHomCalc(cat)
    summands = [(MOD, x) for x in sorted(silt.modules)] + [
        (SHIFT, v) for v in sorted(silt.shifted)
    ]
    n = len(summands)
    h = [[calc.space(summands[i], summands[j]).dim for j in range(n)] for i in range(n)]
    for i in range(n):
        if h[i][i] != 1:
            raise AssertionError("summand is not a brick; End extraction invalid")
        for j in range(n):
            if i != j and h[i][j] and h[j][i]:
                raise AssertionError("hom spaces both ways; End is not directed")

    # The arrows i -> j are the basis maps of Hom(i, j) that leave the span
    # of rad^2 (composites through a third summand), taken greedily; an
    # arrow's witness is the index of its basis map.
    arrows = []
    witnesses = {}
    arrow_id = 1
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
                    arrows.append(Arrow(arrow_id, i + 1, j + 1))
                    witnesses[arrow_id] = t
                    arrow_id += 1

    gq = Quiver(range(1, n + 1), arrows)
    if not gq.is_acyclic():
        raise AssertionError("Gabriel quiver of End is not acyclic")

    # Every path of length >= 1 is evaluated, in order of length, from its
    # prefix's coordinates and the mult table of its last arrow.
    free = QuiverWithRelations(gq)
    pairs = [(u, v) for u in gq.vertices for v in gq.vertices if u != v and free.paths(u, v)]
    evals = {}
    for p in sorted((p for key in pairs for p in free.paths(*key)), key=lambda p: p.length):
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

    # kernels of the evaluation, per ordered vertex pair
    kernels = {}
    for (u, v) in pairs:
        plist = free.paths(u, v)
        emat = Mat.from_columns([evals[p.arrows] for p in plist], h[u - 1][v - 1])
        kvecs = nullspace(emat)
        for kv in kvecs:
            for c, p in zip(kv, plist):
                if c != 0 and p.length == 1:
                    raise AssertionError("kernel meets the arrow span")
        kernels[(u, v)] = kvecs

    # a kernel vector is a minimal relation when it leaves the span of the
    # kernels one arrow shorter, extended by that arrow on either side
    relations = []
    for (u, v) in pairs:
        kvecs = kernels[(u, v)]
        if not kvecs:
            continue
        plist = free.paths(u, v)
        pindex = free.path_index(u, v)
        boundary = Subspace(len(plist))
        for a in gq.out_arrows[u]:
            for kv in kernels.get((a.tgt, v), []):
                vec = [F0] * len(plist)
                for c, p in zip(kv, free.paths(a.tgt, v)):
                    if c != 0:
                        vec[pindex[arrow_path(a).then(p)]] += c
                boundary.add(vec)
        for a in gq.in_arrows[v]:
            for kv in kernels.get((u, a.src), []):
                vec = [F0] * len(plist)
                for c, p in zip(kv, free.paths(u, a.src)):
                    if c != 0:
                        vec[pindex[p.then(arrow_path(a))]] += c
                boundary.add(vec)
        for kv in kvecs:
            if boundary.add(kv):
                relations.append(Relation(tuple((c, p) for c, p in zip(kv, plist) if c != 0)))

    qwr = free.with_relations(relations)
    total = sum(sum(row) for row in h)
    if qwr.algebra_dimension() != total:
        raise AssertionError("presentation audit failed: ideal does not match kernels")
    provenance = {}
    for idx, s in enumerate(summands):
        if s[0] == MOD:
            provenance[idx + 1] = {"dim": list(cat.dim_vector(s[1]))}
        else:
            provenance[idx + 1] = {"shifted": s[1]}
    return EndPresentation(qwr, summands, provenance, h, total)

