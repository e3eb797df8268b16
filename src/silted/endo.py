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
structure constants C[a][b] = coords(g_b . f_a).  That is exact because
composition is bilinear and `coords` is linear, and because a class in
Hom(M, P(v)[1]) has a well-defined composite with any map P(v)[1] ->
P(w)[1]: post-composition sends maps that factor through the syzygy
inclusion of M into maps that factor through it, so the composite of any
representative lands in the same class.

End(S) is Schurian: a hom space between distinct summands has dimension
<= 1.  mod End(S) is the heart of the t-structure S induces (Buan-Zhou
2016), inside D^[-1,0](H) with finitely many indecomposables for Dynkin
H, so End(S) is representation-finite, and so is eEnd(S)e for e = e_i +
e_j (Auslander-Reiten-Smalo 1995): a directed Kronecker algebra with
dim Hom(i, j) arrows, hence one arrow at most.  `end_algebra` asserts it
(it holds on every object of Lambda_4,7,8, Gamma_4,7,8, A_8 and B_7,8)
and reads one scalar per composite.  The output is the Gabriel quiver
with a minimal generating set of the kernel ideal, audited against the
total hom dimension; its one `Quiver.path_table` indexes the evaluations,
the kernels and the relation terms.  Every linear solve (hom-space
coordinates, cover and syzygy lifts) is `linalg.solve`, and the spaces
Hom(M, P(v)[1]) are cokernels of the catalog's `restriction_image`.
"""

from .linalg import F0, F1, Mat, Subspace, nullspace, solve
from .quivers import Arrow, Quiver, QuiverWithRelations, Relation, expand
from .silting import MOD, SHIFT


class HomSpace:
    """One Hom(X, Y) as a fixed basis, with dim = len(basis).

    Hom(M, P(v)[1]) carries `sub`, the restriction image it is the quotient
    of: its basis is the unit vectors at the canonical complement of `sub`
    and coordinates are quotient coordinates.  Every other space is one of
    module maps (Hom(P(v)[1], P(w)[1]) = Hom(P(v), P(w)), and
    Hom(P(v)[1], M) = 0), whose coordinates are solved for in its basis.
    """

    def __init__(self, basis, sub=None):
        self._basis = basis
        self.sub = sub
        self.dim = len(basis)

    def basis(self):
        return self._basis


class TwoTermHomCalc:
    """Hom/compose engine for 2-term objects over a fixed catalog."""

    def __init__(self, catalog):
        self.cat = catalog
        self._space_cache = {}
        self._dim_cache = {}
        self._mult_cache = {}

    # ---- space constructors -------------------------------------------

    def space(self, src, tgt):
        key = (src, tgt)
        if key in self._space_cache:
            return self._space_cache[key]
        if src[0] == MOD and tgt[0] == MOD:
            sp = HomSpace(self.cat.hom_basis(src[1], tgt[1]))
        elif src[0] == MOD and tgt[0] == SHIFT:
            sp = self._ms_space(src[1], tgt[1])
        elif src[0] == SHIFT and tgt[0] == SHIFT:
            sp = HomSpace(self.cat.hom_basis(self.cat.proj(src[1]), self.cat.proj(tgt[1])))
        else:
            sp = HomSpace([])
        self._space_cache[key] = sp
        return sp

    def dim(self, src, tgt):
        """dim Hom(src, tgt), kept in a per-calc table."""
        if (src, tgt) not in self._dim_cache:
            self._dim_cache[(src, tgt)] = self.space(src, tgt).dim
        return self._dim_cache[(src, tgt)]

    def _ms_space(self, x, v):
        sub = self.cat.restriction_image(x, self.cat.proj(v))
        reps = []
        for j in sub.complement_indices():
            e = [F0] * sub.ambient
            e[j] = F1
            reps.append(e)
        return HomSpace(reps, sub)

    # ---- coordinates ----------------------------------------------------

    def coords(self, space, concrete):
        if space.sub is not None:
            return space.sub.quotient_coords(concrete)
        # module maps; only the zero map lies in a zero space
        vec = self._flatten_mm(concrete)
        cols = [self._flatten_mm(b) for b in space.basis()]
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
            # g: mid -> P(v)[1] is a map out of mid's P1, pulled back
            # along the chain lift of f
            pres_x, pres_y, f1 = self._lift_p1(src[1], mid[1], f)
            P = self.cat.indecs[self.cat.proj(tgt[1])]
            return pres_y.p1.pull_back(self.cat.alg, g, P, f1, pres_x.p1)
        if sig == (MOD, SHIFT, SHIFT):
            pres = self.cat.min_projective_presentation(src[1])
            P_mid = self.cat.indecs[self.cat.proj(mid[1])]
            chunks = pres.p1.split(f, P_mid)
            return [x for u, chunk in zip(pres.p1.slots, chunks) for x in g[u].apply(chunk)]
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
    shifted vertices ascending).  End(S) is Schurian (Buan-Zhou 2016 with
    Auslander-Reiten-Smalo 1995, see above; asserted here), so a composite
    is the scalar mult(...)[0][0][0], and the relations minimally generate
    the kernels of the path evaluation, one 1 x m (0 x m where h = 0) row
    per vertex pair.
    """
    if calc is None:
        calc = TwoTermHomCalc(cat)
    summands = silt.summands()
    n = len(summands)
    h = [[calc.dim(summands[i], summands[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if h[i][i] != 1:
            raise AssertionError("summand is not a brick; End extraction invalid")
        for j in range(n):
            if i != j and h[i][j] and h[j][i]:
                raise AssertionError("hom spaces both ways; End is not directed")
            if i != j and h[i][j] > 1:
                raise AssertionError("End(S) is not Schurian: a hom space between summands has dim > 1")

    def composite(i, k, j):
        return calc.mult(summands[i], summands[k], summands[j])[0][0][0]

    # i -> j is an arrow when no composite through a third summand is nonzero
    arrows = []
    for i in range(n):
        for j in range(n):
            if i != j and h[i][j] and not any(
                h[i][k] and h[k][j] and composite(i, k, j)
                for k in range(n) if k != i and k != j
            ):
                arrows.append(Arrow(len(arrows) + 1, i + 1, j + 1))

    gq = Quiver(range(1, n + 1), arrows)
    try:
        table = gq.path_table()  # raises ValueError on an oriented cycle
    except ValueError:
        raise AssertionError("Gabriel quiver of End is not acyclic") from None

    # paths are evaluated by length, from their prefix's scalar; relations
    # are appended in (u, v) order, so the pairs are sorted
    pairs = sorted(key for key in table if key[0] != key[1])
    evals = {}
    for p in sorted((p for key in pairs for p in table[key]), key=lambda p: p.length):
        x = F1
        if p.length > 1:
            i, t = p.source - 1, p.target - 1
            x = evals[p.arrows[:-1]]
            x = x * composite(i, gq.arrow_by_id[p.arrows[-1]].src - 1, t) if x and h[i][t] else F0
        evals[p.arrows] = x

    # kernels of the evaluation, per ordered vertex pair; one path with a
    # nonzero evaluation has none
    kernels = {}
    for (u, v) in pairs:
        row = [evals[p.arrows] for p in table[(u, v)]]
        if len(row) > 1 or not row[0]:
            kvecs = nullspace(Mat(1, len(row), [row]) if h[u - 1][v - 1] else Mat(0, len(row)))
            for kv in kvecs:
                for c, p in zip(kv, table[(u, v)]):
                    if c != 0 and p.length == 1:
                        raise AssertionError("kernel meets the arrow span")
            kernels[(u, v)] = kvecs

    # a kernel vector is a minimal relation when it leaves the span of the
    # kernels one arrow shorter, extended by that arrow on either side
    relations = []
    for (u, v) in pairs:
        kvecs = kernels.get((u, v))
        if not kvecs:
            continue
        plist = table[(u, v)]
        boundary = Subspace(len(plist))
        for a in gq.out_arrows[u]:
            for kv in kernels.get((a.tgt, v), []):
                boundary.add(gq.arrow_product(kv, a.tgt, v, a, left=True))
        for a in gq.in_arrows[v]:
            for kv in kernels.get((u, a.src), []):
                boundary.add(gq.arrow_product(kv, u, a.src, a, left=False))
        for kv in kvecs:
            if boundary.add(kv):
                relations.append(Relation(tuple((c, p) for c, p in zip(kv, plist) if c != 0)))

    qwr = QuiverWithRelations(gq, relations)
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

