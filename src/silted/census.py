"""Classification pipeline: enumerate, present, classify, deduplicate.

For a family (linear A, linear D, reversed-source D, reversed-source A
line) at a given rank, every basic 2-term silting complex is enumerated,
its endomorphism algebra presented, split into connected components, and
classified by global dimension:

    0 semisimple-point, 1 hereditary-tilted, 2 tilted, 3 strictly-shod.

Each distinct component presentation is matched once, up to isomorphism
with arrow rescaling, against the earlier component classes; a record's
isomorphism class is the multiset of its components' classes.  The
summary carries the class counts a_s / a_t / a_ss that the reference
tables pin down.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

from .arcatalog import knit_catalog
from .endo import TwoTermHomCalc, end_algebra
from .quivers import (
    Path,
    QuiverWithRelations,
    are_isomorphic,
    b_reversed_quiver,
    connected_components,
    d_linear_quiver,
    d_reversed_quiver,
    global_dimension,
    is_gentle,
    is_gradable,
    is_string_algebra,
    iso_fingerprint,
    line_quiver,
    monomial_relation,
    qwr_to_json,
)
from .silting import (
    enumerate_two_term_silting,
    is_silting,
    is_two_term_tilting,
    silting_to_json,
    two_term,
)

FAMILIES = ("a", "d-linear", "d-reversed", "b")

COMPONENT_LABELS = {
    0: "semisimple-point",
    1: "hereditary-tilted",
    2: "tilted",
    3: "strictly-shod",
}


@dataclass(frozen=True)
class AlgebraSpec:
    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("d-linear", "d-reversed") and self.n < 4:
            raise ValueError("D families need n >= 4")
        if self.family == "b" and self.n < 2:
            raise ValueError("the reversed line needs n >= 2")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def family_quiver(spec):
    if spec.family == "a":
        return line_quiver(spec.n)
    if spec.family == "d-linear":
        return d_linear_quiver(spec.n)
    if spec.family == "d-reversed":
        return d_reversed_quiver(spec.n)
    return b_reversed_quiver(spec.n)


_catalog_memo = {}


def get_catalog(spec):
    key = (spec.family, spec.n)
    if key not in _catalog_memo:
        _catalog_memo[key] = knit_catalog(family_quiver(spec))
    return _catalog_memo[key]


# ---- per-record classification --------------------------------------------


@dataclass(frozen=True)
class ComponentInfo:
    qwr: QuiverWithRelations
    gldim: int
    label: str
    is_string: bool
    is_gentle: bool
    iso_class: int


@dataclass
class ClassificationRecord:
    silting: object
    end: object
    components: list
    gldim: int
    family_label: str
    is_tilting_module: bool
    is_tilting_complex: bool
    iso_class: int = -1

    def to_json(self, cat):
        return {
            "silting": {
                "modules": [list(cat.dim_vector(x)) for x in self.silting.modules],
                "shifted": list(self.silting.shifted),
            },
            "end": self.end.to_json(),
            "components": [
                {
                    "quiver": qwr_to_json(c.qwr),
                    "gldim": c.gldim,
                    "label": c.label,
                    "isString": c.is_string,
                    "isGentle": c.is_gentle,
                }
                for c in self.components
            ],
            "gldim": self.gldim,
            "familyLabel": self.family_label,
            "isTiltingModule": self.is_tilting_module,
            "isTiltingComplex": self.is_tilting_complex,
            "isoClass": self.iso_class,
        }


@dataclass
class CensusSummary:
    family: str
    n: int
    n_silting: int
    n_tilting: int
    a_s: int
    a_t: int
    a_ss: int
    a_ht: int
    a_nht: int
    label_class_counts: dict
    overlaps: list = field(default_factory=list)

    def to_json(self):
        return {
            "family": self.family,
            "n": self.n,
            "siltingObjects": self.n_silting,
            "tiltingModules": self.n_tilting,
            "a_s": self.a_s,
            "a_t": self.a_t,
            "a_ss": self.a_ss,
            "a_ht": self.a_ht,
            "a_nht": self.a_nht,
            "labelClassCounts": dict(sorted(self.label_class_counts.items())),
            "labelOverlaps": self.overlaps,
        }


def lambda_family_label(cat, s):
    """Structural B-family assignment for the linear D census."""
    n = len(cat.q.vertices)
    sh = set(s.shifted)
    has_proj = any(cat.is_projective(x) for x in s.modules)
    if not sh or not has_proj:
        return "B1"
    mx = max(sh)
    if mx == 3:
        return "B6"
    if mx >= 4:
        return "B3"
    if sh == {1, 2}:
        return "B5"
    c = next(iter(sh))
    o = 2 if c == 1 else 1
    po = cat.proj(o)
    if po not in s.modules:
        return "unassigned"
    rest = [x for x in s.modules if x != po]
    tail = all(cat.indecs[x].dims[1] == 0 and cat.indecs[x].dims[2] == 0 for x in rest)
    right = all(cat.indecs[x].dims[n] == 0 for x in rest)
    if tail and not right:
        return "B4"
    if right and not tail:
        return "B2"
    if not tail and not right:
        return "B7"
    return "unassigned"


def gamma_case_label(cat, s):
    """Coarse case tag for the reversed-source D census."""
    n = len(cat.q.vertices)
    if n not in s.shifted:
        return "case-I"
    simple_n = cat.by_dim.get(tuple(1 if v == n else 0 for v in cat.q.vertices))
    if set(s.shifted) == {n} and simple_n not in s.modules:
        return "case-II"
    return "case-III"


def _staggered_overlap(qwr):
    """Two monomial relations whose arrow words overlap with a proper stagger."""
    mono = [r.terms[0][1].arrows for r in qwr.relations if r.is_monomial()]
    for i, p in enumerate(mono):
        for q in mono:
            if p == q:
                continue
            for t in range(1, len(p)):
                if p[t:] == q[: len(p) - t]:
                    return True
    return False


@contextmanager
def _naming_object(cat, spec, s):
    """Re-raise an AssertionError with the family, rank and silting object."""
    try:
        yield
    except AssertionError as exc:
        mods = ["M(" + ",".join(map(str, cat.dim_vector(x))) + ")" for x in s.modules]
        summands = " + ".join(mods + [f"P({v})[1]" for v in s.shifted])
        raise AssertionError(
            f"{exc} (family {spec.family}, n={spec.n}, silting object {summands})"
        ) from exc


class _ComponentMemo:
    """The ComponentInfo of each exact component presentation of one run.

    A presentation seen for the first time is classified once and matched
    against the class representatives in its iso_fingerprint bucket; it
    joins the first isomorphic one or starts a new component class.
    """

    def __init__(self):
        self.infos = {}
        self.buckets = {}
        self.n_classes = 0

    def classify(self, qwr):
        """The components of qwr, each as a ComponentInfo."""
        out = []
        for cq in connected_components(qwr):
            q = cq.quiver
            key = (q.vertices, tuple((a.id, a.src, a.tgt) for a in q.arrows), cq.relations)
            info = self.infos.get(key)
            if info is None:
                info = self.infos[key] = self._new_info(cq)
            out.append(info)
        return out

    def _new_info(self, cq):
        g = global_dimension(cq)
        if g > 3:
            raise AssertionError("component with global dimension > 3 in a silted census")
        bucket = self.buckets.setdefault(iso_fingerprint(cq), [])
        rep = next((r for r in bucket if are_isomorphic(cq, r.qwr)), None)
        if rep is not None and rep.gldim != g:
            raise AssertionError("isomorphic components disagree on gldim")
        cls = self.n_classes if rep is None else rep.iso_class
        info = ComponentInfo(
            cq, g, COMPONENT_LABELS[g], is_string_algebra(cq), is_gentle(cq), cls
        )
        if rep is None:
            self.n_classes += 1
            bucket.append(info)
        return info


def _iso_key(comps):
    """An algebra's isomorphism class: the multiset of its blocks' classes,
    since the block decomposition is unique."""
    return tuple(sorted(c.iso_class for c in comps))


def classify_record(cat, calc, s, spec, memo):
    with _naming_object(cat, spec, s):
        ep = end_algebra(s, cat, calc)
        comps = memo.classify(ep.qwr)
        gd = max((c.gldim for c in comps), default=0)
        if spec.family in ("d-linear", "d-reversed") and any(
            c.gldim == 3 and not c.is_string for c in comps
        ):
            raise AssertionError("strictly shod component is not a string algebra")
        if spec.family == "d-linear":
            label = lambda_family_label(cat, s)
            if gd == 3 and (label != "B7" or not _staggered_overlap(ep.qwr)):
                raise AssertionError("strictly shod record outside the B7 shape")
        elif spec.family == "d-reversed":
            label = "C14" if gd == 3 else gamma_case_label(cat, s)
        else:
            label = "unassigned"
        is_tilt_complex = is_two_term_tilting(s, cat)
        if is_tilt_complex and gd > 2:
            raise AssertionError("2-term tilting complex with gldim > 2")
    return ClassificationRecord(
        silting=s,
        end=ep,
        components=comps,
        gldim=gd,
        family_label=label,
        is_tilting_module=not s.shifted,
        is_tilting_complex=is_tilt_complex,
    )


def census_records(spec):
    """The one census loop: the record of each silting object of spec, in
    enumeration order, classified against one component memo.  No record
    is kept here; the consumer numbers their iso_class."""
    cat = get_catalog(spec)
    calc = TwoTermHomCalc(cat)
    memo = _ComponentMemo()
    for s in enumerate_two_term_silting(cat):
        yield classify_record(cat, calc, s, spec, memo)


def classify_family(spec, n_cap=9):
    """Full census: the records of census_records, each with its
    isomorphism class, plus the aggregate summary."""
    if spec.n > n_cap:
        raise ValueError(f"n={spec.n} exceeds the enumeration cap {n_cap}")
    records = list(census_records(spec))
    classes = {}
    class_records = {}
    for rec in records:
        rec.iso_class = classes.setdefault(_iso_key(rec.components), len(classes))
        class_records.setdefault(rec.iso_class, []).append(rec)
    tilt_classes = {rec.iso_class for rec in records if rec.is_tilting_module}
    ss_classes = {c for c, recs in class_records.items() if recs[0].gldim == 3}
    ht_classes = {
        rec.iso_class
        for rec in records
        if rec.is_tilting_module and not rec.end.qwr.relations
    }
    label_counts = {}
    overlaps = []
    for c, recs in class_records.items():
        labels = sorted({r.family_label for r in recs})
        for lab in labels:
            label_counts[lab] = label_counts.get(lab, 0) + 1
        if len(labels) > 1:
            overlaps.append({"isoClass": c, "labels": labels})
    summary = CensusSummary(
        family=spec.family,
        n=spec.n,
        n_silting=len(records),
        n_tilting=sum(1 for r in records if r.is_tilting_module),
        a_s=len(classes),
        a_t=len(tilt_classes),
        a_ss=len(ss_classes),
        a_ht=len(ht_classes),
        a_nht=len(tilt_classes) - len(ht_classes),
        label_class_counts=label_counts,
        overlaps=sorted(overlaps, key=lambda d: d["isoClass"]),
    )
    return records, summary


# ---- survival counts up to the fork symmetry -------------------------------


def fork_orbit_count(cat, objs):
    """Module-set count identifying the two fork vertices of a D quiver."""
    verts = list(cat.q.vertices)
    if verts[:2] != [1, 2]:
        raise ValueError("fork orbit counting expects vertices 1, 2 up front")
    seen = set()
    orbits = 0
    for t in objs:
        key = tuple(sorted(cat.dim_vector(x) for x in t.modules)) + (tuple(t.shifted),)
        if key in seen:
            continue
        dims = [list(cat.dim_vector(x)) for x in t.modules]
        twin_mods = tuple(sorted(tuple([d[1], d[0]] + d[2:]) for d in dims))
        twin_sh = tuple(sorted({1: 2, 2: 1}.get(v, v) for v in t.shifted))
        seen.add(key)
        seen.add(twin_mods + (twin_sh,))
        orbits += 1
    return orbits


def tm_lambda_enumerated(cat, tilts, m):
    """Fork-orbit count of the tilting modules `tilts` over the D catalog
    `cat` whose every summand survives m inverse translates."""
    surviving = [
        t for t in tilts if all(cat.tau_inv_iterated(x, m) is not None for x in t.modules)
    ]
    return fork_orbit_count(cat, surviving)


def delta_enumerated(cat, tilts):
    """The tilting modules `tilts` of a linear A catalog `cat`, counted by
    the slice of their rightmost summand."""
    out = [0] * len(cat.q.vertices)
    for t in tilts:
        out[max(cat.indecs[x].slice for x in t.modules)] += 1
    return out


# ---- star operator ----------------------------------------------------------


def star_map(n):
    """The summand-level bijection between the reversed and linear windows.

    Returns (gamma catalog, lambda catalog, star) where star sends a
    silting object over the reversed quiver to one over the linear quiver:
    reflection on modules, the simple at the reversed vertex trades places
    with the shifted projective there.
    """
    gcat = get_catalog(AlgebraSpec("d-reversed", n))
    lcat = get_catalog(AlgebraSpec("d-linear", n))
    simple_n = gcat.by_dim[tuple(1 if v == n else 0 for v in gcat.q.vertices)]

    def reflect(x):
        d = list(gcat.dim_vector(x))
        nd = tuple(d[: n - 1] + [d[n - 2] - d[n - 1]])
        return lcat.by_dim[nd]

    def star(s):
        mods, shifts = [], []
        for x in s.modules:
            if x == simple_n:
                shifts.append(n)
            else:
                mods.append(reflect(x))
        for v in s.shifted:
            if v == n:
                mods.append(lcat.proj(n))
            else:
                shifts.append(v)
        return two_term(mods, shifts)

    return gcat, lcat, star


def star_crosscheck(n, gamma_objs, lambda_objs):
    """Verify that star maps the reversed-source silting objects
    `gamma_objs` of rank n one to one onto the linear ones `lambda_objs`."""
    gcat, lcat, star = star_map(n)
    gspec = AlgebraSpec("d-reversed", n)
    gs, ls = gamma_objs, set(lambda_objs)
    images = set()
    for s in gs:
        with _naming_object(gcat, gspec, s):
            t = star(s)
            if not is_silting(t, lcat):
                return {"ok": False, "reason": f"image of {s} is not silting"}
        images.add(t)
    ok = len(images) == len(gs) and images == ls
    return {"ok": ok, "gammaCount": len(gs), "lambdaCount": len(ls), "matched": len(images)}


# ---- realization complexes --------------------------------------------------


def expected_realization_end(n):
    """The D_n line-with-fork quiver with the single cubic zero relation."""
    q = d_linear_quiver(n)
    return QuiverWithRelations(q, [monomial_relation(Path(5, 1, (4, 3, 1)))])


def realization_complex(orientation, n):
    """The explicit 2-term tilting complex whose heart detects the
    realization-functor failure, with its verification report.

    orientation 'linear': tau^{-1}P(1) + sum_{i>=5} tau^{-1}P(i) + I(2)
    + I(n-1) + the shifted projective P(n)[1].  orientation 'reversed':
    tau^{-2}P(1) + sum_{5<=i<n} tau^{-2}P(i) + tau^{-1}P(n) + P(2)[1]
    + P(n-1)[1] + P(n)[1].
    """
    if n < 5:
        raise ValueError("the realization construction needs n >= 5")
    if orientation == "linear":
        spec = AlgebraSpec("d-linear", n)
        cat = get_catalog(spec)
        mods = [cat.tau_inv(cat.proj(1))]
        mods += [cat.tau_inv(cat.proj(i)) for i in range(5, n + 1)]
        mods += [cat.inj(2), cat.inj(n - 1)]
        s = two_term(mods, [n])
    elif orientation == "reversed":
        spec = AlgebraSpec("d-reversed", n)
        cat = get_catalog(spec)
        t2 = lambda x: cat.tau_inv(cat.tau_inv(x))
        mods = [t2(cat.proj(1))]
        mods += [t2(cat.proj(i)) for i in range(5, n)]
        mods.append(cat.tau_inv(cat.proj(n)))
        s = two_term(mods, [2, n - 1, n])
    else:
        raise ValueError("orientation must be 'linear' or 'reversed'")
    with _naming_object(cat, spec, s):
        ep = end_algebra(s, cat)
        expected = expected_realization_end(n)
        report = {
            "orientation": orientation,
            "n": n,
            "isSilting": is_silting(s, cat),
            "isTiltingComplex": is_two_term_tilting(s, cat),
            "endMatchesExpected": are_isomorphic(ep.qwr, expected),
            "gradable": is_gradable(ep.qwr.quiver),
            "relationCount": len(ep.qwr.relations),
            "relationLengths": sorted(
                {p.length for r in ep.qwr.relations for _c, p in r.terms}
            ),
            "idealNonzero": bool(ep.qwr.relations),
        }
    report["hypothesesVerified"] = (
        report["isSilting"]
        and report["isTiltingComplex"]
        and report["endMatchesExpected"]
        and report["gradable"]
        and report["idealNonzero"]
        and all(l >= 3 for l in report["relationLengths"])
    )
    return s, ep, report


def records_to_json(spec, records, summary):
    cat = get_catalog(spec)
    return {
        "summary": summary.to_json(),
        "records": [rec.to_json(cat) for rec in records],
    }


def silting_json(spec):
    cat = get_catalog(spec)
    return silting_to_json(cat, enumerate_two_term_silting(cat))
