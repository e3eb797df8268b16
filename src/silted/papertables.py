"""Reference census values and the three-way verification report.

The constants below are the published reference counts this package
reproduces; verify_tables compares them against the closed-form
evaluators and, where the rank is within the enumeration budget, against
direct enumeration.  Known convention differences between module-level
enumeration and the closed forms are listed as documented exceptions and
do not fail the report.

The enumerated side of the tm_lambda_enum, delta_row and star_bijection
rows is computed here too (fork_orbit_count, tm_lambda_enumerated,
delta_enumerated, star_map, star_crosscheck): the report is their one
caller, so a census or an enumeration never loads them.
"""

import csv
import io

from . import formulas as F
from .census import (
    N_CAP,
    AlgebraSpec,
    _object_text,
    census_records,
    census_summary,
    classify_family,
    get_catalog,
    naming_failure,
)
from .silting import enumerate_tilting_modules, is_silting, two_term

REFERENCE = {
    # counting tables for the linear A family
    "t_a": {n: v for n, v in zip(range(1, 10), [1, 2, 5, 14, 42, 132, 429, 1430, 4862])},
    "a_nht_a": {n: v for n, v in zip(range(1, 10), [0, 0, 1, 6, 26, 100, 365, 1302, 4606])},
    "delta": {3: [1, 2, 2], 4: [1, 3, 5, 5], 5: [1, 4, 9, 14, 14], 6: [1, 5, 14, 28, 42, 42]},
    "tm_a": {(3, 1): 4, (4, 1): 14, (5, 1): 48, (3, 2): 1, (4, 2): 5, (5, 2): 20},
    # linear D family
    "tm_lambda": {(4, 1): 5, (5, 1): 21, (6, 1): 83, (4, 2): 1, (5, 2): 6, (6, 2): 28},
    "a_ht_lambda": {4: 4, 5: 12, 6: 24},
    "a_nht_lambda": {4: 4, 5: 23, 6: 102},
    "a_t_lambda": {4: 7, 5: 35, 6: 126},
    "a_s_lambda": {4: 13, 5: 62, 6: 228},
    "a_ss_lambda": {4: 1, 5: 4, 6: 14, 7: 48, 8: 165, 9: 572},
    # reversed-source D family
    "a_s_gamma": {4: 11, 5: 65, 6: 234},
    "a_ss_gamma": {4: 0, 5: 2, 6: 9},
    "c_parts": {
        4: {1: 7, 2: 1, 5: 1, 9: 1, 11: 1},
        5: {1: 35, 2: 13, 3: 4, 5: 3, 7: 3, 9: 4, 11: 1, 12: 3, 14: 2},
        6: {1: 126, 2: 39, 3: 22, 5: 10, 7: 9, 9: 7, 11: 2, 12: 3, 13: 7, 14: 9},
    },
    # misc
    "a_s_mu": {5: 2},
    "a_t_b3": 3,
    "b5": {5: 4, 6: 10},
    "b6": {5: 3, 6: 9},
    "b3": {5: 7, 6: 42},
    "b247": {4: 5, 5: 13, 6: 41},
}

# enumeration vs closed form divergences that are understood and accepted
DOCUMENTED_EXCEPTIONS = {
    ("tm_lambda_enum", (6, 1)): (
        "fork-orbit enumeration of the tilting modules that survive one "
        "inverse translate gives 84; the recursion tm_lambda(6, 1) gives 83, "
        "the reference value; the cause of the gap is open"
    ),
    ("a_nht_lambda", 4): (
        "the reference counts the four non-hereditary case families at rank 4; "
        "two of them present the same algebra, so deduplicated enumeration "
        "gives 3 (and the total 4 + 3 = 7 tilted classes is agreed)"
    ),
}

# the linear A tilting counts are enumerated up to this rank
ENUM_MAX_A = 6

# (quantity, family, census summary attribute, closed form) of the rows
# that compare a D census count with its closed form, in report order
SUMMARY_ROWS = (
    ("a_ht_lambda", "d-linear", "a_ht", F.a_ht_lambda),
    ("a_nht_lambda", "d-linear", "a_nht", F.a_nht_lambda),
    ("a_t_lambda", "d-linear", "a_t", F.a_t_lambda),
    ("a_s_lambda", "d-linear", "a_s", F.a_s_lambda),
    ("a_ss_lambda", "d-linear", "a_ss", F.a_ss_lambda),
    ("a_s_gamma", "d-reversed", "a_s", F.a_s_gamma),
    ("a_ss_gamma", "d-reversed", "a_ss", F.a_ss_gamma),
)

# (quantity, the linear-census labels whose class counts it sums), in report order
LABEL_ROWS = (("b247", ("B2", "B4", "B7")), ("b3", ("B3",)), ("b5", ("B5",)), ("b6", ("B6",)))


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
        with naming_failure(gspec, lambda: _object_text(gcat, s)):
            t = star(s)
            if not is_silting(t, lcat):
                return {"ok": False, "reason": f"image of {s} is not silting"}
        images.add(t)
    ok = len(images) == len(gs) and images == ls
    return {"ok": ok, "gammaCount": len(gs), "lambdaCount": len(ls), "matched": len(images)}


class TableReport:
    def __init__(self):
        self.entries = []

    def add(self, quantity, key, enum=None, formula=None, reference=None, note=""):
        vals = [v for v in (enum, formula, reference) if v is not None]
        status = "ok" if all(v == vals[0] for v in vals) else "mismatch"
        if status == "mismatch" and (quantity, key) in DOCUMENTED_EXCEPTIONS:
            status = "documented"
            note = DOCUMENTED_EXCEPTIONS[(quantity, key)]
        self.entries.append(
            {
                "quantity": quantity,
                "key": key,
                "enumeration": enum,
                "formula": formula,
                "reference": reference,
                "status": status,
                "note": note,
            }
        )

    @property
    def mismatches(self):
        return [e for e in self.entries if e["status"] == "mismatch"]

    def ok(self):
        return not self.mismatches

    def to_json(self):
        return {"entries": self.entries, "ok": self.ok()}

    def to_markdown(self):
        lines = [
            "| quantity | key | enumeration | formula | reference | status |",
            "|---|---|---|---|---|---|",
        ]
        for e in self.entries:
            lines.append(
                "| {quantity} | {key} | {e} | {f} | {r} | {status} |".format(
                    quantity=e["quantity"],
                    key=e["key"],
                    e="" if e["enumeration"] is None else e["enumeration"],
                    f="" if e["formula"] is None else e["formula"],
                    r="" if e["reference"] is None else e["reference"],
                    status=e["status"],
                )
            )
        lines.append("")
        lines.append(f"overall: {'ok' if self.ok() else 'MISMATCH'}")
        return "\n".join(lines)

    def to_csv(self):
        """One CSV row per entry; a field holding a comma, such as a list or
        a tuple key, is quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        fields = ("quantity", "key", "enumeration", "formula", "reference", "status")
        writer.writerow(fields)
        for e in self.entries:
            writer.writerow([e[f] for f in fields])
        return out.getvalue()[:-1]


def verify_tables(enum_max_d=5, deep_ss=False):
    """Three-way comparison: enumeration vs formula vs reference values.

    Each catalog is enumerated once.  The D censuses up to rank enum_max_d
    run first, each one streamed through classify_family, which keeps no
    record: only the summary, read by the SUMMARY_ROWS and LABEL_ROWS
    rows, and the silting objects, read by the tm_lambda_enum rows (those
    without a shifted summand) and the star_bijection rows; a row whose
    rank was not run is left empty.  One A_n tilting list per
    n <= ENUM_MAX_A serves t_a and delta_row.  The a_t_b3 row, and with
    deep_ss the rank-7 a_ss_lambda row, read a census_summary that keeps
    no record.
    An enum_max_d above N_CAP raises ValueError before any enumeration.
    """
    if enum_max_d > N_CAP:
        raise ValueError(f"enum_max_d={enum_max_d} exceeds the enumeration cap {N_CAP}")
    summaries = {}
    objects = {}
    for n in range(4, enum_max_d + 1):
        for family in ("d-linear", "d-reversed"):
            objects[(family, n)], summaries[(family, n)] = classify_family(
                AlgebraSpec(family, n), keep=lambda rec: rec.silting
            )

    rep = TableReport()
    a_tilts = {}
    for n, ref in REFERENCE["t_a"].items():
        enum = None
        if n <= ENUM_MAX_A:
            spec = AlgebraSpec("a", n)
            with naming_failure(spec, lambda: "table t_a"):
                a_tilts[n] = enumerate_tilting_modules(get_catalog(spec))
            enum = len(a_tilts[n])
        rep.add("t_a", n, enum=enum, formula=F.t_a(n), reference=ref)
    for n, ref in REFERENCE["delta"].items():
        enum = None
        if n in a_tilts:
            spec = AlgebraSpec("a", n)
            with naming_failure(spec, lambda: "table delta_row"):
                enum = delta_enumerated(get_catalog(spec), a_tilts[n])
        rep.add("delta_row", n, enum=enum, formula=F.delta_row(n), reference=ref)
    for (n, m), ref in sorted(REFERENCE["tm_a"].items()):
        rep.add("tm_a", (n, m), formula=F.tm_a(n, m), reference=ref)
    for (n, m), ref in sorted(REFERENCE["tm_lambda"].items()):
        rep.add("tm_lambda", (n, m), formula=F.tm_lambda(n, m), reference=ref)
        if ("d-linear", n) in objects:
            spec = AlgebraSpec("d-linear", n)
            tilts = [s for s in objects[("d-linear", n)] if not s.shifted]
            with naming_failure(spec, lambda: "table tm_lambda_enum"):
                enum = tm_lambda_enumerated(get_catalog(spec), tilts, m)
            rep.add("tm_lambda_enum", (n, m), enum=enum, formula=F.tm_lambda(n, m))
    for n, ref in REFERENCE["a_nht_a"].items():
        rep.add("a_nht_a", n, formula=F.a_nht_a(n), reference=ref)

    for quantity, family, attr, closed in SUMMARY_ROWS:
        for n, ref in REFERENCE[quantity].items():
            enum = None
            if (family, n) in summaries:
                enum = getattr(summaries[(family, n)], attr)
            elif quantity == "a_ss_lambda" and n == 7 and deep_ss:
                spec = AlgebraSpec(family, n)
                enum = census_summary(spec, census_records(spec)).a_ss
            rep.add(quantity, n, enum=enum, formula=closed(n), reference=ref)
    for n, parts in REFERENCE["c_parts"].items():
        for i, ref in sorted(parts.items()):
            rep.add("c_part", (n, i), formula=F.c_part(n, i), reference=ref)
    rep.add("a_s_mu", 5, formula=F.a_s_mu(5), reference=REFERENCE["a_s_mu"][5])
    # tilted algebras of the 3-vertex reversed line, enumerated
    spec = AlgebraSpec("b", 3)
    bsum = census_summary(spec, census_records(spec))
    rep.add("a_t_b3", 3, enum=bsum.a_t, formula=F.A_T_B3, reference=REFERENCE["a_t_b3"])
    for key, labels in LABEL_ROWS:
        for n, ref in REFERENCE[key].items():
            enum = None
            # b247 stays empty at n = 4: two of the n = 4 families overlap
            # pairwise; the reference aggregate counts family membership
            # before identification
            if ("d-linear", n) in summaries and (key, n) != ("b247", 4):
                counts = summaries[("d-linear", n)].label_class_counts
                enum = sum(counts.get(lab, 0) for lab in labels)
            rep.add(key, n, enum=enum, formula=F.b_part(n, key), reference=ref)
    for n in range(4, min(enum_max_d, 5) + 1):
        chk = star_crosscheck(n, objects[("d-reversed", n)], objects[("d-linear", n)])
        rep.add("star_bijection", n, enum=1 if chk["ok"] else 0, reference=1)
    return rep
