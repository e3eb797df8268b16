"""Metric definitions, and the per-layer metrics of one traced run.

The layers are the package's modules in pipeline order: arcatalog (knit,
hom bases) -> silting (graph, cliques, silting checks) -> endo (End
presentation) -> quivers (components, gldim, string/gentle) -> census
(classify, fingerprint, iso dedup) -> cli (JSON serialisation).  The span
names are `<layer>.<function>`; `cli.run` is the root span around the
whole CLI call and is not a layer.
"""

import json
from pathlib import Path

from spans import percentile, summarize

ROOT_SPAN = "cli.run"
MIN_COVERAGE = 0.9
# A p99 is only reported when at least this many samples lie beyond it.
TAIL_SAMPLES = 10

# Names, units, directions and bounds are defined once, in BENCHMARK.json.
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
# Printed on every end-to-end run but not bounded (see run.py).
UNITS["wall_s"] = "s"


def _share(part, whole):
    return part / whole if whole else None


def per_layer(doc, workload, traced_wall, untraced_wall, output_bytes):
    """Per-layer metric values of one traced run, and the coverage problems.

    A value is None when it cannot be given: a share of zero calls, or a
    percentile with too few samples.
    """
    rows = summarize(doc)
    counters = doc["counters"]

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    def self_s(name):
        return rows[name]["self_s"] if name in rows else 0.0

    def ms(name, q, min_beyond=0):
        p = percentile(rows[name]["durations"] if name in rows else [], q, min_beyond)
        return None if p is None else p * 1000.0

    hom_calls = counters["arcatalog.hom_basis.calls"]
    hom_misses = counters["arcatalog.hom_basis.misses"]
    attributed = sum(r["self_s"] for name, r in rows.items() if name != ROOT_SPAN)
    values = {
        "arcatalog.knit_s": rows["arcatalog.knit"]["total_s"] if "arcatalog.knit" in rows else 0.0,
        "arcatalog.indecomposables": counters["arcatalog.indecomposables"],
        "arcatalog.hom_basis.calls": hom_calls,
        "arcatalog.hom_basis.misses": hom_misses,
        "arcatalog.hom_basis.hit_ratio": _share(hom_calls - hom_misses, hom_calls),
        "silting.graph.edges": counters["silting.graph.edges"],
        "silting.objects": counters["silting.objects"],
        "endo.end_algebra.p50_ms": ms("endo.end_algebra", 0.5),
        "endo.end_algebra.p99_ms": ms("endo.end_algebra", 0.99, TAIL_SAMPLES),
        "endo.arrows": counters["endo.arrows"],
        "endo.relations": counters["endo.relations"],
        "quivers.gldim.p50_ms": ms("quivers.gldim", 0.5),
        "quivers.gldim.p99_ms": ms("quivers.gldim", 0.99, TAIL_SAMPLES),
        "quivers.gldim.distinct_share": _share(
            counters["quivers.gldim.distinct"], calls("quivers.gldim")
        ),
        "census.iso.match_share": _share(counters["census.iso.matches"], calls("census.iso")),
        "census.buckets": counters["census.buckets"],
        "cli.output_bytes": output_bytes,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": attributed / traced_wall,
    }
    for name in PER_LAYER:
        if name in values:
            continue
        span, _, what = name.rpartition(".")
        values[name] = {"calls": calls, "self_s": self_s}[what](span)

    problems = [
        f"{span} recorded no calls on {workload.name}"
        for span in workload.spans
        if calls(span) == 0
    ]
    if hom_calls == 0:
        problems.append(f"arcatalog.hom_basis recorded no calls on {workload.name}")
    if values["trace.coverage"] < MIN_COVERAGE:
        problems.append(
            f"layer self times cover {values['trace.coverage']:.3f} of traced wall_s, "
            f"below {MIN_COVERAGE}"
        )
    return values, problems
