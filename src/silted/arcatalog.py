"""Knitted Auslander-Reiten catalogs for Dynkin path algebras.

Modules are the paper's right modules: P(i) = e_i * kQ is spanned by the
paths of Q ending at i.  Internally everything is stored as a covariant
representation of the opposite quiver R = Q^op, where P(i) becomes the
"paths from i" projective.  Dimension vectors are indexed by the original
vertex ids, so no translation is ever needed outside this module.

The catalog is knitted mesh by mesh from the projective slice: whenever
all irreducible maps out of a non-injective X are known, tau^{-1}(X) is
the cokernel of X -> (sum of middle terms), with explicit matrices.

Minimal projective presentations 0 -> P1 -> P0 -> X -> 0 are not computed
here: kQ-modules are modules over the relation-free path algebra of R, so
the catalog takes two cover/kernel steps of the one resolution engine in
`quivers` (`projective_cover`), the same one that computes global
dimensions of endomorphism algebras.
"""

from .linalg import F0, F1, Mat, Subspace, block_diag, nullspace
from .quivers import BoundAlgebra, QuiverWithRelations, RepModule, arrow_path, expand, projective_cover


class DynkinTypeError(ValueError):
    pass


class TauUndefinedError(ValueError):
    """Raised for tau of a projective or tau^{-1} of an injective."""


def _dynkin_root_count(q):
    """Positive-root count for a tree quiver of type A or D; raises otherwise."""
    n = len(q.vertices)
    und = {v: set() for v in q.vertices}
    for a in q.arrows:
        und[a.src].add(a.tgt)
        und[a.tgt].add(a.src)
    if len(q.arrows) != n - 1:
        raise DynkinTypeError("quiver is not a tree")
    seen = set()
    stack = [q.vertices[0]]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(und[v] - seen)
    if len(seen) != n:
        raise DynkinTypeError("quiver is not connected")
    branch = [v for v in q.vertices if len(und[v]) > 2]
    if not branch:
        return n * (n + 1) // 2  # type A
    # a tree whose one branch vertex has degree 3 is D_n when at least two
    # of that vertex's neighbours are leaves
    if len(branch) == 1 and len(und[branch[0]]) == 3:
        if sum(len(und[w]) == 1 for w in und[branch[0]]) >= 2:
            return n * (n - 1)  # type D
    raise DynkinTypeError("not a quiver of type A or D")


class Indec:
    """One indecomposable: explicit representation plus AR bookkeeping."""

    __slots__ = ("id", "dims", "dim_vector", "mats", "slice", "proj_vertex", "inj_vertex")

    def __init__(self, idx, dims, vertices, mats, slice_, proj_vertex=None, inj_vertex=None):
        self.id = idx
        self.dims = dims          # dict vertex -> int
        self.dim_vector = tuple(dims[v] for v in vertices)
        self.mats = mats          # dict R-arrow id -> Mat
        self.slice = slice_       # tau^{-1} distance from the projective slice
        self.proj_vertex = proj_vertex
        self.inj_vertex = inj_vertex


class ARCatalog:
    """All indecomposables over a Dynkin path algebra, with tau and hom data."""

    def __init__(self, algebra_quiver):
        self.q = algebra_quiver
        self.rq = algebra_quiver.opposite()
        self.expected = _dynkin_root_count(algebra_quiver)
        self.alg = BoundAlgebra(QuiverWithRelations(self.rq))  # kR: its projectives and cover steps
        self.indecs = []
        self.tau_of = {}
        self.tau_inv_of = {}
        self.arrows_out = {}      # id -> list of (target id, map dict v->Mat)
        self.by_dim = {}
        self._proj_id = {}
        self._inj_id = {}
        self._inj_dims = {}
        self._hom_cache = {}
        self._tau_orth = {}
        self._vanishing = {}
        self._pres_cache = {}
        self._knit()

    # ---- basic access ------------------------------------------------

    def __len__(self):
        return len(self.indecs)

    def dim_vector(self, x):
        return self.indecs[x].dim_vector

    def proj(self, v):
        return self._proj_id[v]

    def inj(self, v):
        return self._inj_id[v]

    def is_projective(self, x):
        return self.indecs[x].proj_vertex is not None

    def is_injective(self, x):
        return self.indecs[x].inj_vertex is not None

    def tau(self, x):
        if self.is_projective(x):
            raise TauUndefinedError(f"indecomposable {x} is projective; tau undefined")
        return self.tau_of[x]

    def tau_inv(self, x):
        if self.is_injective(x):
            raise TauUndefinedError(f"indecomposable {x} is injective; tau^-1 undefined")
        return self.tau_inv_of[x]

    def tau_inv_iterated(self, x, m):
        """tau^{-m}(x), or None when some step hits an injective."""
        for _ in range(m):
            if self.is_injective(x):
                return None
            x = self.tau_inv_of[x]
        return x

    # ---- knitting ------------------------------------------------------

    def _knit(self):
        for i in self.q.vertices:
            vec = tuple(len(self.rq.paths(u, i)) for u in self.q.vertices)
            self._inj_dims[vec] = i

        in_neighbors = {}
        for i in self.q.vertices:
            P = self.alg.projective(i)  # basis of P(i)_u: the R-paths i -> u
            idx = len(self.indecs)
            self.indecs.append(Indec(idx, P.dims, self.q.vertices, P.mats, 0, proj_vertex=i))
            self._proj_id[i] = idx
            self.arrows_out[idx] = []
            key = self.dim_vector(idx)
            self.by_dim[key] = idx
            if key in self._inj_dims:
                self.indecs[idx].inj_vertex = self._inj_dims[key]
                self._inj_id[self._inj_dims[key]] = idx
        # irreducible maps among projectives: P(j) includes into P(i) for each
        # R-arrow a: i -> j (P(j) is the corresponding radical summand of P(i)),
        # sending the generator of P(j) to the path a of P(i)
        for a in self.rq.arrows:
            P = self.alg.projective(a.src)
            e_a = [F0] * P.dims[a.tgt]
            e_a[self.rq.path_index(a.src, a.tgt)[arrow_path(a)]] = F1
            incl = expand(self.alg, [a.tgt], [e_a], P)
            self.arrows_out[self._proj_id[a.tgt]].append((self._proj_id[a.src], incl))
        for i in self.q.vertices:
            idx = self._proj_id[i]
            in_neighbors[idx] = [self._proj_id[a.tgt] for a in self.rq.out_arrows[i]]

        resolved = set()
        while len(resolved) < len(self.indecs):
            cand = None
            for idx in range(len(self.indecs)):
                if idx not in resolved and all(w in resolved for w in in_neighbors[idx]):
                    cand = idx
                    break
            if cand is None:
                raise AssertionError("knitting deadlocked")
            if self.indecs[cand].inj_vertex is not None:
                resolved.add(cand)
                continue
            z = self._mesh(cand)
            in_neighbors[z] = [t for (t, _) in self.arrows_out[cand]]
            resolved.add(cand)
            if len(self.indecs) > self.expected:
                raise AssertionError("knitting produced too many indecomposables")
        if len(self.indecs) != self.expected:
            raise AssertionError(
                f"knitted {len(self.indecs)} indecomposables, expected {self.expected}"
            )
        if len(self._inj_id) != len(self.q.vertices):
            raise AssertionError("knitting did not reach every injective")

    def _mesh(self, x):
        """Knit tau^{-1}(x) as the cokernel of x -> (sum of mesh middles)."""
        ind = self.indecs[x]
        outs = self.arrows_out[x]
        if not outs:
            raise AssertionError("mesh attempted on a module with no successors")
        targets = [self.indecs[t] for (t, _) in outs]
        proj = {}
        section_cols = {}
        z_dims = {}
        amb = {u: sum(t.dims[u] for t in targets) for u in self.q.vertices}
        for u in self.q.vertices:
            # the image of x's basis vector j at u in the sum of the middles
            sp = Subspace(amb[u])
            for j in range(ind.dims[u]):
                sp.add([c for (_, m) in outs for c in m[u].column(j)])
            if sp.dim != ind.dims[u]:
                raise AssertionError("mesh map is not injective; knitting is broken")
            comp = sp.complement_indices()
            z_dims[u] = len(comp)
            # the cokernel projection, read off the reduced rows: column i
            # is the unit vector at i's place in comp when i is free, and
            # minus the free entries of the row with pivot i otherwise
            pr = Mat(len(comp), amb[u])
            for c, i in enumerate(comp):
                pr.a[c][i] = F1
            for row, piv in zip(sp.rows, sp.pivots):
                for c, i in enumerate(comp):
                    pr.a[c][piv] = -row[i]
            proj[u] = pr
            section_cols[u] = comp
        z_mats = {}
        for a in self.rq.arrows:
            # the section takes the free columns of the sum of the middles
            big = block_diag([t.mats[a.id] for t in targets])
            cols = section_cols[a.src]
            sec = Mat(big.rows, len(cols), [[row[c] for c in cols] for row in big.a])
            z_mats[a.id] = proj[a.tgt].mul(sec)
        z = len(self.indecs)
        self.indecs.append(Indec(z, z_dims, self.q.vertices, z_mats, ind.slice + 1))
        self.arrows_out[z] = []
        key = self.dim_vector(z)
        if key in self.by_dim:
            raise AssertionError("duplicate dimension vector knitted")
        self.by_dim[key] = z
        if key in self._inj_dims:
            v = self._inj_dims[key]
            self.indecs[z].inj_vertex = v
            self._inj_id[v] = z
        self.tau_of[z] = x
        self.tau_inv_of[x] = z
        # new irreducible maps: each middle term maps onto the cokernel
        col_offsets = []
        run = {u: 0 for u in self.q.vertices}
        for t in targets:
            col_offsets.append(dict(run))
            for u in self.q.vertices:
                run[u] += t.dims[u]
        for (tid, _), tind, offs in zip(outs, targets, col_offsets):
            maps = {}
            for u in self.q.vertices:
                cols = [proj[u].column(offs[u] + c) for c in range(tind.dims[u])]
                maps[u] = Mat.from_columns(cols, z_dims[u])
            self.arrows_out[tid].append((z, maps))
        return z

    # ---- hom spaces -----------------------------------------------------

    def hom_basis(self, x, y):
        """Canonical basis of Hom(X, Y): per-vertex matrix families phi with
        phi_v X_a = Y_a phi_u for every arrow a: u -> v of R."""
        key = (x, y)
        if key in self._hom_cache:
            return self._hom_cache[key]
        X, Y = self.indecs[x], self.indecs[y]
        layout = {}
        off = 0
        for u in self.q.vertices:
            layout[u] = (off, Y.dims[u], X.dims[u])
            off += Y.dims[u] * X.dims[u]
        total = off
        rows = []
        for a in self.rq.arrows:
            u, v = a.src, a.tgt
            Xa, Ya = X.mats[a.id], Y.mats[a.id]
            off_u, _, cols_u = layout[u]
            off_v, _, cols_v = layout[v]
            for i in range(Y.dims[v]):
                for j in range(X.dims[u]):
                    row = [F0] * total
                    for k in range(X.dims[v]):
                        row[off_v + i * cols_v + k] += Xa.a[k][j]
                    for k in range(Y.dims[u]):
                        row[off_u + k * cols_u + j] -= Ya.a[i][k]
                    rows.append(row)
        sysmat = Mat(len(rows), total, rows) if rows else Mat(0, total)
        basis = []
        for vec in nullspace(sysmat):
            phi = {}
            for u in self.q.vertices:
                off_u, r, c = layout[u]
                m = Mat(r, c)
                for i in range(r):
                    for j in range(c):
                        m.a[i][j] = vec[off_u + i * c + j]
                phi[u] = m
            basis.append(phi)
        self._hom_cache[key] = basis
        return basis

    def hom_dim(self, x, y):
        return len(self.hom_basis(x, y))

    def tau_orthogonal(self, x):
        """Bitset of the modules y with Hom(X, tau Y) = 0, tau of a projective
        read as 0: row x of the catalog's tau-orthogonality table, filled
        from hom_dim the first time it is asked for."""
        row = self._tau_orth.get(x)
        if row is None:
            row = 0
            for y in range(len(self.indecs)):
                if self.is_projective(y) or self.hom_dim(x, self.tau_of[y]) == 0:
                    row |= 1 << y
            self._tau_orth[x] = row
        return row

    def vanishing_at(self, v):
        """Bitset of the modules X with X_v = 0, that is Hom(P(v), X) = 0,
        filled the first time vertex v is asked for."""
        bits = self._vanishing.get(v)
        if bits is None:
            bits = 0
            for x, ind in enumerate(self.indecs):
                if ind.dims[v] == 0:
                    bits |= 1 << x
            self._vanishing[v] = bits
        return bits

    # ---- presentations and Ext ------------------------------------------

    def min_projective_presentation(self, x):
        """Minimal 0 -> P1 -> P0 -> X -> 0 from two steps of the cover engine.

        The base is hereditary, so the kernel of the cover of X is already
        projective: its own cover P1 has a zero kernel.
        """
        if x in self._pres_cache:
            return self._pres_cache[x]
        ind = self.indecs[x]
        top = projective_cover(self.alg, RepModule(self.rq, ind.dims, ind.mats))
        syz = projective_cover(self.alg, top.K)
        if not syz.K.is_zero():
            raise AssertionError("kernel of a cover is not projective; base not hereditary?")
        iota = {u: top.incl[u].mul(syz.cover[u]) for u in self.q.vertices}
        pres = Presentation(top, syz, iota)
        self._pres_cache[x] = pres
        return pres

    def restriction_image(self, x, y):
        """Image of Hom(P0, Y) -> Hom(P1, Y) under restriction along the
        minimal presentation of X, in Hom(P1, Y)-coordinates; its cokernel
        is Ext^1(X, Y)."""
        pres = self.min_projective_presentation(x)
        Y = self.indecs[y]
        img = Subspace(sum(Y.dims[u] for u in pres.p1.slots))
        # Ext^1 out of a projective vanishes (P1 = 0 there anyway)
        if not self.is_projective(x):
            dim = sum(Y.dims[w] for w in pres.p0.slots)
            for t in range(dim):
                e = [F0] * dim
                e[t] = F1
                img.add(pres.p0.pull_back(self.alg, e, Y, pres.iota, pres.p1))
        return img

    def ext1_dim(self, x, y):
        """dim Ext^1(X, Y) = dim coker(Hom(P0,Y) -> Hom(P1,Y)).

        A test oracle: no code in the package calls it.  The AR-formula
        tests compare it with dim Hom(Y, tau X) (test_acceptance,
        test_catalog) and the rigidity tests read it (test_silting); it
        stays here because it is built from the catalog's own
        presentations and `restriction_image`.
        """
        img = self.restriction_image(x, y)
        return img.ambient - img.dim


class Presentation:
    """Minimal projective presentation 0 -> P1 --iota--> P0 -> X -> 0.

    `p0` is the cover step of X (P0, the cover map, its kernel) and `p1`
    the cover step of that kernel; a map out of P0 or P1 is given by the
    images of its slot generators.
    """

    def __init__(self, p0, p1, iota):
        self.p0 = p0
        self.p1 = p1
        self.iota = iota  # per-vertex Mat: P0.dims[u] x P1.dims[u]


def knit_catalog(q):
    """Public constructor; raises DynkinTypeError off the A/D tree families."""
    return ARCatalog(q)
