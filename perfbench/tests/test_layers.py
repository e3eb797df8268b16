import layers
from spans import Recorder
from workloads import CENSUS_SPANS, WORKLOADS, Workload

COUNTERS = {
    "arcatalog.indecomposables": 3,
    "arcatalog.hom_basis.calls": 10,
    "arcatalog.hom_basis.misses": 4,
    "silting.graph.edges": 2,
    "silting.objects": 5,
    "endo.arrows": 0,
    "endo.relations": 0,
    "census.iso.matches": 0,
    "quivers.gldim.distinct": 0,
    "census.buckets": 0,
}


def _traced_doc(names):
    ticks = iter(range(1000))
    rec = Recorder("r", clock=lambda: float(next(ticks)))
    leaves = [rec.wrap(n, lambda: None) for n in names]
    rec.wrap(layers.ROOT_SPAN, lambda: [f() for f in leaves])()
    return rec.to_json({"counters": dict(COUNTERS)})


def test_benchmark_json_lists_the_workloads_and_a_set_up_metric():
    bench = layers.BENCHMARK
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_reports_every_metric_and_flags_a_silent_layer():
    w = Workload("toy", "classify", "b", 2, CENSUS_SPANS)
    present = [s for s in CENSUS_SPANS if s != "endo.end_algebra"]
    # 15 one-second leaves inside a 16-second traced run.
    values, problems = layers.per_layer(_traced_doc(present), w, 16.0, 6.0, 123)
    assert set(values) == set(layers.PER_LAYER)
    assert problems == ["endo.end_algebra recorded no calls on toy"]
    assert values["arcatalog.hom_basis.hit_ratio"] == 0.6
    assert values["trace.overhead_s"] == 10.0
    assert values["endo.end_algebra.calls"] == 0
    assert values["endo.end_algebra.p99_ms"] is None
    assert values["silting.graph.self_s"] == 1.0


def test_per_layer_flags_low_coverage():
    w = Workload("toy", "enumerate", "b", 2, ("silting.graph",))
    # One 1-second leaf inside a 100-second traced run.
    _, problems = layers.per_layer(_traced_doc(["silting.graph"]), w, 100.0, 99.0, 1)
    assert any("cover" in p for p in problems)
