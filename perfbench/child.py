"""One fresh interpreter's worth of work for the benchmark.

    child.py setup FAMILY N
        measure the CPU time of `import silted` plus knitting the catalog;
        print one JSON line.
    child.py formulas NAME:N ...
        print the named closed forms of `silted.formulas` as one JSON line.
    child.py cli [--trace SPANS_PATH RUN_ID] -- ARGV...
        run the `silted` CLI on ARGV.  Stdout is closed as soon as the CLI
        returns, so the reader sees end of output before interpreter
        teardown.  With --trace, spans are recorded around the calls into
        each layer and written to SPANS_PATH after stdout is closed.

The package is found through PYTHONPATH, which the benchmark points at the
checkout's `src`.
"""

import json
import os
import sys
import time


def setup(family, n):
    t0 = time.process_time()
    from silted.census import AlgebraSpec, get_catalog  # imports all of silted

    cat = get_catalog(AlgebraSpec(family, int(n)))
    setup_s = time.process_time() - t0
    print(json.dumps({"setup_s": setup_s, "indecomposables": len(cat)}))
    return 0


def formulas(items):
    from silted import formulas as F

    out = {}
    for item in items:
        name, n = item.split(":")
        out[item] = getattr(F, name)(int(n))
    print(json.dumps(out))
    return 0


def install_tracing(rec):
    """Wrap each layer's public functions at the names their callers look up.

    Returns a function that, called after the run, gives the counters that
    are not spans.
    """
    import silted.arcatalog as arcatalog
    import silted.census as census
    import silted.cli as cli
    import silted.endo as endo
    import silted.silting as silting
    from silted.quivers import qwr_to_json

    facts = {
        "arcatalog.indecomposables": 0,
        "silting.graph.edges": 0,
        "silting.objects": 0,
        "endo.arrows": 0,
        "endo.relations": 0,
        "census.iso.matches": 0,
    }
    gldim_inputs = []
    fingerprints = []

    def patch(owner, attr, name, on_result=None):
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), on_result))

    def add(key, value):
        facts[key] += value

    def on_knit(args, cat):
        facts["arcatalog.indecomposables"] = len(cat)

    def on_graph(args, graph):
        add("silting.graph.edges", sum(bin(a).count("1") for a in graph.adj) // 2)

    def on_end(args, ep):
        add("endo.arrows", len(ep.qwr.quiver.arrows))
        add("endo.relations", len(ep.qwr.relations))

    # Methods first: the class must be patched before its name is replaced.
    patch(silting.CompatibilityGraph, "cliques_of_size", "silting.cliques")
    patch(silting, "CompatibilityGraph", "silting.graph", on_graph)
    patch(silting, "is_silting", "silting.is_silting")
    patch(endo.TwoTermHomCalc, "compose", "endo.compose")
    patch(endo.TwoTermHomCalc, "coords", "endo.coords")

    patch(census, "knit_catalog", "arcatalog.knit", on_knit)
    patch(census, "enumerate_two_term_silting", "silting.enumerate",
          lambda a, r: add("silting.objects", len(r)))
    patch(census, "end_algebra", "endo.end_algebra", on_end)
    patch(census, "connected_components", "quivers.components")
    patch(census, "global_dimension", "quivers.gldim", lambda a, r: gldim_inputs.append(a[0]))
    patch(census, "is_string_algebra", "quivers.string_gentle")
    patch(census, "is_gentle", "quivers.string_gentle")
    patch(census, "classify_record", "census.classify_record")
    patch(census, "iso_fingerprint", "census.fingerprint", lambda a, r: fingerprints.append(r))
    patch(census, "are_isomorphic", "census.iso", lambda a, r: add("census.iso.matches", bool(r)))
    patch(census, "silting_to_json", "cli.serialize")

    patch(cli, "classify_family", "census.classify_family")
    patch(cli, "silting_json", "census.silting_json")
    patch(cli, "records_to_json", "cli.serialize")
    patch(cli, "_json_dump", "cli.serialize")
    cli.print = rec.wrap("cli.serialize", print)
    patch(cli, "run", "cli.run")

    # hom_basis is called millions of times on the larger workloads, so it
    # is counted rather than spanned.  Misses are distinct keys: the
    # catalog's cache never evicts.
    hom_calls = [0]
    hom_keys = set()
    orig_hom_basis = arcatalog.ARCatalog.hom_basis

    def hom_basis(self, x, y):
        hom_calls[0] += 1
        hom_keys.add((id(self), x, y))
        return orig_hom_basis(self, x, y)

    arcatalog.ARCatalog.hom_basis = hom_basis

    def counters():
        out = dict(facts)
        out["arcatalog.hom_basis.calls"] = hom_calls[0]
        out["arcatalog.hom_basis.misses"] = len(hom_keys)
        out["quivers.gldim.distinct"] = len(
            {json.dumps(qwr_to_json(q), sort_keys=True) for q in gldim_inputs}
        )
        out["census.buckets"] = len(set(fingerprints))
        return out

    return counters


def cli_main(args):
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    rec = counters = None
    if opts[:1] == ["--trace"]:
        from spans import Recorder

        rec = Recorder(opts[2])
        counters = install_tracing(rec)
    import silted.cli as cli

    code = cli.run(argv)
    sys.stdout.flush()
    os.close(sys.stdout.fileno())
    sys.stdout = open(os.devnull, "w")
    if rec is not None:
        with open(opts[1], "w") as fh:
            json.dump(rec.to_json({"counters": counters()}), fh)
    return code


def main(args):
    mode = args[0] if args else ""
    if mode == "setup":
        return setup(*args[1:3])
    if mode == "formulas":
        return formulas(args[1:])
    if mode == "cli":
        return cli_main(args[1:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
