"""Classification pipeline: enumerate, present, classify, deduplicate.

For a family (linear A, linear D, reversed-source D, reversed-source A
line) at a given rank, every basic 2-term silting complex is enumerated,
its endomorphism algebra presented, split into connected components, and
classified by global dimension:

    0 semisimple-point, 1 hereditary-tilted, 2 tilted, 3 strictly-shod.

Each distinct component presentation is certified isomorphic to its
commutative form and matched once, by its zero paths under quiver
isomorphisms, against the earlier component classes; a record's
isomorphism class is the multiset of its components' classes.  The
records stream from census_records, and census_summary folds them into
the class counts a_s / a_t / a_ss that the reference tables pin down.
classify_family runs both in one pass and keeps per record only what
its caller asks for (a full JSON classify keeps one text per record), and
the component memo keeps a full presentation only per component class,
so a census holds little beyond what it prints.

FAMILIES is the one table of the families: each maps to its quiver
builder, its least rank and the symbol the reports print, in the order the
CLI offers them.  naming_failure is the one guard that re-raises an
invariant failure with the family, the rank and the silting object or
table row it was met at.

This module holds only what a census or an enumeration runs.  The
verification helpers the tables report alone reads (the fork-orbit and
delta counts, the star map and its cross-check) live in `papertables`,
and the realization complex in `realization`.
"""

from collections import Counter, namedtuple
from contextlib import contextmanager

from .arcatalog import knit_catalog
from .endo import TwoTermHomCalc, end_algebra
from .quivers import (
    are_isomorphic,
    b_reversed_quiver,
    connected_components,
    d_linear_quiver,
    d_reversed_quiver,
    global_dimension,
    is_gentle,
    is_string_algebra,
    iso_fingerprint,
    line_quiver,
    qwr_to_json,
    zero_paths,
)
from .silting import (
    enumerate_two_term_silting,
    is_two_term_tilting,
    silting_object_json,
    silting_to_json,
)

Family = namedtuple("Family", "quiver least_rank symbol")
FAMILIES = {
    "a": Family(line_quiver, 1, "A"),
    "d-linear": Family(d_linear_quiver, 4, "Lambda"),
    "d-reversed": Family(d_reversed_quiver, 4, "Gamma"),
    "b": Family(b_reversed_quiver, 2, "B"),
}
N_CAP = 9  # the default highest rank of a census or an enumeration

COMPONENT_LABELS = {
    0: "semisimple-point",
    1: "hereditary-tilted",
    2: "tilted",
    3: "strictly-shod",
}


class AlgebraSpec(namedtuple("AlgebraSpec", "family n")):
    __slots__ = ()

    def __new__(cls, family, n):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        least = FAMILIES[family].least_rank
        if n < least:
            raise ValueError(f"family {family} needs n >= {least}")
        return super().__new__(cls, family, n)


_catalog_memo = {}


def get_catalog(spec):
    key = (spec.family, spec.n)
    if key not in _catalog_memo:
        _catalog_memo[key] = knit_catalog(FAMILIES[spec.family].quiver(spec.n))
    return _catalog_memo[key]


# ---- per-record classification --------------------------------------------


ComponentInfo = namedtuple("ComponentInfo", "qwr gldim label is_string is_gentle iso_class")


class ClassificationRecord(
    namedtuple(
        "ClassificationRecord",
        "silting end components gldim family_label is_tilting_module is_tilting_complex iso_class",
    )
):
    """One silting object's census entry, numbered with its iso_class when
    classify_record builds it."""

    __slots__ = ()

    def to_json(self, cat):
        return {
            "silting": silting_object_json(cat, self.silting),
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


class CensusSummary(
    namedtuple(
        "CensusSummary",
        "family n n_silting n_tilting a_s a_t a_ss a_ht a_nht label_class_counts overlaps",
    )
):
    __slots__ = ()

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
def naming_failure(spec, where):
    """Re-raise an AssertionError with the family, the rank and where(),
    the text naming the silting object or the table row at hand."""
    try:
        yield
    except AssertionError as exc:
        raise AssertionError(f"{exc} (family {spec.family}, n={spec.n}, {where()})") from exc


def _object_text(cat, s):
    """The silting object s as naming_failure names it."""
    mods = ["M(" + ",".join(map(str, cat.dim_vector(x))) + ")" for x in s.modules]
    return "silting object " + " + ".join(mods + [f"P({v})[1]" for v in s.shifted])


class _ComponentMemo:
    """The class facts of each exact component presentation of one run.

    A presentation seen for the first time is classified once, certified
    isomorphic to its commutative form (quivers.zero_paths, an
    AssertionError when it is not) and matched against the class
    representatives in its iso_fingerprint bucket; it joins the first
    isomorphic one or starts a new component class.  The memo keeps a
    presentation, with its zero paths, only for a representative, which the
    later are_isomorphic matches read; any other presentation is stored
    with qwr=None, and classify hands each record its own components.
    """

    def __init__(self):
        self.infos = {}
        self.buckets = {}
        self.n_classes = 0

    def classify(self, qwr):
        """The components of qwr, each as a ComponentInfo whose qwr it is."""
        out = []
        for cq in connected_components(qwr):
            q = cq.quiver
            key = (q.vertices, tuple((a.id, a.src, a.tgt) for a in q.arrows), cq.relations)
            info = self.infos.get(key)
            if info is None:
                info = self.infos[key] = self._new_info(cq)
            out.append(info._replace(qwr=cq))
        return out

    def _new_info(self, cq):
        g = global_dimension(cq)
        if g > 3:
            raise AssertionError("component with global dimension > 3 in a silted census")
        if zero_paths(cq) is None:
            raise AssertionError("component is not isomorphic to its commutative form")
        bucket = self.buckets.setdefault(iso_fingerprint(cq), [])
        rep = next((r for r in bucket if are_isomorphic(cq, r.qwr)), None)
        if rep is not None and rep.gldim != g:
            raise AssertionError("isomorphic components disagree on gldim")
        cls = self.n_classes if rep is None else rep.iso_class
        info = ComponentInfo(
            cq if rep is None else None,
            g, COMPONENT_LABELS[g], is_string_algebra(cq), is_gentle(cq), cls,
        )
        if rep is None:
            self.n_classes += 1
            bucket.append(info)
        return info


def _iso_key(comps):
    """An algebra's isomorphism class: the multiset of its blocks' classes,
    since the block decomposition is unique."""
    return tuple(sorted(c.iso_class for c in comps))


def classify_record(cat, calc, s, spec, memo, classes):
    """The record of s, its iso_class drawn from classes, the run's map from
    _iso_key to class number (first occurrence)."""
    with naming_failure(spec, lambda: _object_text(cat, s)):
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
        iso_class=classes.setdefault(_iso_key(comps), len(classes)),
    )


def _check_cap(spec, n_cap):
    if spec.n > n_cap:
        raise ValueError(f"n={spec.n} exceeds the enumeration cap {n_cap}")


def census_records(spec, n_cap=N_CAP):
    """The one census loop: the record of each silting object of spec, in
    enumeration order, classified against one component memo and one
    iso_class numbering (by first occurrence); none is kept.  Iterating
    raises ValueError first when spec.n exceeds n_cap."""
    _check_cap(spec, n_cap)
    cat = get_catalog(spec)
    calc = TwoTermHomCalc(cat)
    memo = _ComponentMemo()
    classes = {}
    for s in enumerate_two_term_silting(cat):
        yield classify_record(cat, calc, s, spec, memo, classes)


def census_summary(spec, records):
    """The summary of spec's census from one pass over any iterable of its
    records, keeping per class its family labels (its records share gldim)."""
    n_silting = n_tilting = 0
    class_labels, tilt_classes, ss_classes, ht_classes = {}, set(), set(), set()
    for n_silting, rec in enumerate(records, 1):
        class_labels.setdefault(rec.iso_class, set()).add(rec.family_label)
        if rec.gldim == 3:
            ss_classes.add(rec.iso_class)
        if rec.is_tilting_module:
            n_tilting += 1
            tilt_classes.add(rec.iso_class)
            if not rec.end.qwr.relations:
                ht_classes.add(rec.iso_class)
    return CensusSummary(
        family=spec.family,
        n=spec.n,
        n_silting=n_silting,
        n_tilting=n_tilting,
        a_s=len(class_labels),
        a_t=len(tilt_classes),
        a_ss=len(ss_classes),
        a_ht=len(ht_classes),
        a_nht=len(tilt_classes) - len(ht_classes),
        label_class_counts=Counter(lab for labels in class_labels.values() for lab in labels),
        overlaps=[
            {"isoClass": c, "labels": sorted(ls)} for c, ls in class_labels.items() if len(ls) > 1
        ],
    )


def classify_family(spec, n_cap=N_CAP, keep=None):
    """Full census in one pass: (kept, summary), with summary the
    census_summary of census_records(spec, n_cap) and kept the list of
    keep(rec) per record in enumeration order, or of the records
    themselves when keep is None.  With keep given, no record outlives
    its turn in the stream (unless keep returns it)."""
    kept = []

    def stream():
        for rec in census_records(spec, n_cap):
            kept.append(rec if keep is None else keep(rec))
            yield rec

    return kept, census_summary(spec, stream())


def records_to_json(spec, records, summary):
    cat = get_catalog(spec)
    return {
        "summary": summary.to_json(),
        "records": [rec.to_json(cat) for rec in records],
    }


def silting_json(spec, n_cap=N_CAP):
    """The JSON list of spec's silting objects; ValueError when spec.n
    exceeds n_cap, before anything is enumerated."""
    _check_cap(spec, n_cap)
    cat = get_catalog(spec)
    return silting_to_json(cat, enumerate_two_term_silting(cat))
