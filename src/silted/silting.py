"""Enumeration of basic 2-term presilting/silting/tilting complexes.

The support-tau-tilting criterion turns 2-term compatibility into module
checks: two modules are compatible when Hom(X, tau Y) = Hom(Y, tau X) = 0
(tau of a projective read as 0), a module is compatible with P(v)[1] when
it vanishes at v, and shifted projectives are mutually compatible.  Basic
2-term silting complexes are exactly the n-element compatible families.

Module compatibilities are read off the catalog's tau-orthogonality table
(`ARCatalog.tau_orthogonal`): one bitset per module x of the y with
Hom(X, tau Y) = 0, filled lazily one row per module.  The compatibility
graph and `is_presilting` both read that table.

Basic tilting modules are the silting objects without a shifted summand,
so they come from the same enumerator run on the module-only graph.
`completions` reads the mutation of a silting object off the graph too:
the summands other than the one removed are a clique, and each of their
common neighbours completes it.
"""

from dataclasses import dataclass

# the tags of a 2-term object's summands: a module id or a shifted vertex
MOD = "m"
SHIFT = "s"


@dataclass(frozen=True)
class TwoTermObject:
    """A multiset-free 2-term complex: module ids plus shifted vertices."""

    modules: tuple
    shifted: tuple

    def __post_init__(self):
        object.__setattr__(self, "modules", tuple(sorted(self.modules)))
        object.__setattr__(self, "shifted", tuple(sorted(self.shifted)))
        if len(set(self.modules)) != len(self.modules):
            raise ValueError("repeated module summand")
        if len(set(self.shifted)) != len(self.shifted):
            raise ValueError("repeated shifted summand")

    @property
    def size(self):
        return len(self.modules) + len(self.shifted)

    def summands(self):
        return [(MOD, x) for x in self.modules] + [(SHIFT, v) for v in self.shifted]


def two_term(modules=(), shifted=()):
    return TwoTermObject(tuple(modules), tuple(shifted))


def module_shift_compatible(cat, x, v):
    """P(v)[1] and X coexist iff Hom(P(v), X) = X_v vanishes."""
    return cat.indecs[x].dims[v] == 0


def is_presilting(s, cat):
    """Pairwise vanishing of positive-shift homs, via the tau-rigidity test.

    The module part is tau-rigid when every module's row of the catalog's
    tau-orthogonality table (filled lazily, one row per module) contains
    all the modules of s; that covers both directions of each pair and
    X = Y.
    """
    bits = 0
    for x in s.modules:
        bits |= 1 << x
    for x in s.modules:
        if bits & ~cat.tau_orthogonal(x):
            return False
    for v in s.shifted:
        if cat.proj(v) in s.modules:
            return False
        for x in s.modules:
            if not module_shift_compatible(cat, x, v):
                return False
    return True


def is_silting(s, cat):
    return s.size == len(cat.q.vertices) and is_presilting(s, cat)


def is_two_term_tilting(s, cat):
    """Silting + vanishing of the degree -1 homs Hom(X, P(v))."""
    if not is_silting(s, cat):
        raise ValueError("is_two_term_tilting expects a silting object")
    for v in s.shifted:
        p = cat.proj(v)
        for x in s.modules:
            if cat.hom_dim(x, p) != 0:
                return False
    return True


class CompatibilityGraph:
    """Pairwise presilting compatibility over catalog modules and shifts.

    Nodes are 0..N-1 for the catalog modules followed by one node per
    shifted vertex; adjacency is kept in bitsets.
    """

    def __init__(self, cat, include_shifts=True):
        self.cat = cat
        self.nmod = len(cat)
        self.shift_vertices = list(cat.q.vertices) if include_shifts else []
        self.size = self.nmod + len(self.shift_vertices)
        self.adj = [0] * self.size
        orth = cat.tau_orthogonal
        for x in range(self.nmod):
            for y in range(x + 1, self.nmod):
                if orth(x) >> y & 1 and orth(y) >> x & 1:
                    self.adj[x] |= 1 << y
                    self.adj[y] |= 1 << x
        for k, v in enumerate(self.shift_vertices):
            node = self.nmod + k
            pv = cat.proj(v)
            for x in range(self.nmod):
                if x != pv and module_shift_compatible(cat, x, v):
                    self.adj[x] |= 1 << node
                    self.adj[node] |= 1 << x
            for kk in range(len(self.shift_vertices)):
                other = self.nmod + kk
                if other != node:
                    self.adj[node] |= 1 << other
                    self.adj[other] |= 1 << node

    def node_object(self, bits):
        mods = []
        shifts = []
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            bits ^= low
            if i < self.nmod:
                mods.append(i)
            else:
                shifts.append(self.shift_vertices[i - self.nmod])
        return two_term(mods, shifts)

    def cliques_of_size(self, k):
        """All k-cliques (as bitsets), extended in ascending node order."""
        out = []

        def extend(clique, count, candidates):
            if count == k:
                out.append(clique)
                return
            if count + candidates.bit_count() < k:
                return
            cand = candidates
            while cand:
                low = cand & -cand
                i = low.bit_length() - 1
                cand ^= low
                extend(clique | low, count + 1, cand & self.adj[i])

        extend(0, 0, (1 << self.size) - 1)
        return out


def enumerate_two_term_silting(cat, graph=None):
    """All basic 2-term silting complexes, in canonical order."""
    n = len(cat.q.vertices)
    graph = graph or CompatibilityGraph(cat)
    objs = [graph.node_object(bits) for bits in graph.cliques_of_size(n)]
    for s in objs:
        if not is_silting(s, cat):
            raise AssertionError("clique enumeration produced a non-silting object")
    objs.sort(key=lambda s: (s.modules, s.shifted))
    return objs


def enumerate_tilting_modules(cat, graph=None):
    """Basic tilting modules = silting objects with empty shifted part: the
    silting enumerator on the graph without shifted vertices."""
    return enumerate_two_term_silting(cat, graph or CompatibilityGraph(cat, include_shifts=False))


def completions(graph, s, removed):
    """The silting objects holding every summand of s but `removed` (one of
    s.summands()), in node order: the rest plus one common neighbour, in
    the CompatibilityGraph graph, of the rest's nodes.  No node neighbours
    itself, so no summand of the rest is among them."""
    rest = 0
    common = (1 << graph.size) - 1
    for kind, x in s.summands():
        if (kind, x) != removed:
            node = x if kind == MOD else graph.nmod + graph.shift_vertices.index(x)
            rest |= 1 << node
            common &= graph.adj[node]
    return [graph.node_object(rest | 1 << i) for i in range(graph.size) if common >> i & 1]


def silting_object_json(cat, s):
    """The JSON dict of one 2-term object.  Each module summand is the
    catalog's stored dimension-vector tuple, not a copy: a document shares
    one tuple per distinct module, and `cli._json_dump` writes each tuple's
    text once."""
    return {"modules": [cat.dim_vector(x) for x in s.modules], "shifted": list(s.shifted)}


def silting_to_json(cat, objs):
    return [silting_object_json(cat, s) for s in objs]
