"""Command-line front end.

Subcommands
  enumerate    list the basic 2-term silting complexes of a family
  classify     full census: records plus summary counts
  count        evaluate one named counting quantity
  tables       three-way verification report (exit 2 on undocumented mismatch)
  realization  the explicit 2-term tilting complex of the realization check

Deterministic output: identical invocations print identical bytes.

Start-up loads the census pipeline only: `formulas` is imported by the
count command alone, `papertables` by tables alone and `realization` by
realization alone.  `fractions` is imported with the first value that is
not an integer; the censuses of all four families up to rank 8 and the
D_9 enumerations meet none, so they run without it.

Exit codes
  0    success
  1    usage error (bad arguments, n above the cap, unknown quantity)
  2    verification mismatch (tables, realization)
  3    internal invariant failed (a bug: an AssertionError inside a command)
  141  stdout closed by its reader before all output was written
       (128 + SIGPIPE, as a shell reports a process killed by that signal)
"""

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .census import (
    FAMILIES,
    N_CAP,
    AlgebraSpec,
    census_records,
    census_summary,
    classify_family,
    get_catalog,
    records_to_json,  # unused here; perfbench/child.py wraps this name
    silting_json,
)

# each quantity is called with the formulas module, which only count imports
QUANTITIES = {
    "t_a": lambda F, n, m: F.t_a(n),
    "t_lambda": lambda F, n, m: F.t_lambda(n),
    "delta": lambda F, n, m: F.delta_row(n),
    "tm_a": lambda F, n, m: F.tm_a(n, m),
    "tm_lambda": lambda F, n, m: F.tm_lambda(n, m),
    "a_t_a": lambda F, n, m: F.a_t_a(n),
    "a_nht_a": lambda F, n, m: F.a_nht_a(n),
    "a_t2_a": lambda F, n, m: F.a_t2_a(n),
    "a_t3_a": lambda F, n, m: F.a_t3_a(n),
    "a_t4_a": lambda F, n, m: F.a_t4_a(n),
    "a_ht_lambda": lambda F, n, m: F.a_ht_lambda(n),
    "a_nht_lambda": lambda F, n, m: F.a_nht_lambda(n),
    "a_t_lambda": lambda F, n, m: F.a_t_lambda(n),
    "a_t1_lambda": lambda F, n, m: F.a_t1_lambda(n),
    "a_t2_lambda": lambda F, n, m: F.a_t2_lambda(n),
    "a_ss": lambda F, n, m: F.a_ss_lambda(n),
    "a_ss_lambda": lambda F, n, m: F.a_ss_lambda(n),
    "a_ss_gamma": lambda F, n, m: F.a_ss_gamma(n),
    "a_s_lambda": lambda F, n, m: F.a_s_lambda(n),
    "a_s_gamma": lambda F, n, m: F.a_s_gamma(n),
    "a_s_mu": lambda F, n, m: F.a_s_mu(n),
}
for _i in range(1, 15):
    QUANTITIES[f"c{_i}"] = (lambda i: lambda F, n, m: F.c_part(n, i))(_i)
for _k in ("b1", "b247", "b3", "b5", "b6", "b7"):
    QUANTITIES[_k] = (lambda k: lambda F, n, m: F.b_part(n, k))(_k)


def _build_parser():
    p = argparse.ArgumentParser(prog="silted", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp, family=True):
        if family:
            sp.add_argument("--family", required=True, choices=FAMILIES)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--format", choices=["json", "csv", "md"], default="json")

    sp = sub.add_parser("enumerate", help="list 2-term silting complexes")
    add_common(sp)
    sp.add_argument("--n-cap", type=int, default=N_CAP)

    sp = sub.add_parser("classify", help="census records and summary")
    add_common(sp)
    sp.add_argument("--n-cap", type=int, default=N_CAP)
    sp.add_argument("--summary-only", action="store_true", help="summary only; keeps no record")

    sp = sub.add_parser("count", help="evaluate a counting quantity")
    sp.add_argument("quantity", choices=sorted(QUANTITIES))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=1)

    sp = sub.add_parser("tables", help="verification report")
    sp.add_argument("--format", choices=["json", "csv", "md"], default="md")
    sp.add_argument("--enum-max", type=int, default=5, help="highest rank of the D censuses")
    sp.add_argument("--deep-ss", action="store_true", help="also enumerate a_ss_lambda(7)")

    sp = sub.add_parser("realization", help="the explicit realization complex")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--orientation", choices=["linear", "reversed"], required=True)
    sp.add_argument("--format", choices=["json", "csv", "md"], default="json")

    return p


class _Rendered(str):
    """A value's JSON text as _json_dump wrote it at depth 0.  _emit puts it
    at any depth by re-indenting its lines, which is exact: json.dumps
    escapes every newline inside a string, so each newline of the text
    starts an indented line."""


# the batch sizes of _json_dump: pieces per run, characters per write
RUN_PIECES = 256
WRITE_CHARS = 1 << 20


def _json_dump(doc, write=None):
    """The text of json.dumps(doc, indent=2), byte for byte.  With write
    given, the text goes to write in batches of about WRITE_CHARS
    characters (1 MB of ASCII) instead, never held whole, and "" is
    returned.

    The stdlib falls back to its pure-Python encoder whenever an indent is
    set; this writer knows the few types the CLI's documents hold: dicts
    with str keys, lists and tuples, str, int, bool and None, plus the
    _Rendered text of such a value, written as that value would be.
    Anything else raises TypeError.

    Inline paths: a list item or dict value whose type is exactly int or
    exactly str is written where it stands, with no call to _emit (a bool
    is not an int there and a _Rendered text not a str, so both take the
    call).  A tuple of plain ints is written once per indent: its text is
    kept in a memo keyed by the indent and the tuple's id for the length
    of this call, and a list item found there is written from the memo.
    The id stands for the tuple itself, since the document holds every
    tuple alive until the call returns, so two equal but distinct tuples
    get an entry each and (1, True), equal to (1, 1), never gets the text
    of (1, 1).  A document that shares one tuple across many places (the
    catalog's dimension vectors) joins each distinct one once per depth.

    Batching: with write given, _emit appends the pieces to one list and
    calls flush after each list item that took a call; once the list
    holds RUN_PIECES pieces they are joined into a run, and once the runs
    reach WRITE_CHARS characters they are joined and handed to write.  So
    a document streamed to an unbuffered stdout costs one write per batch,
    not one per piece.  Without write, flush is None and nothing is
    batched.
    """
    out = []
    if write is None:
        _emit(doc, "\n", out.append, {}, None)
        return "".join(out)
    runs = []
    size = 0

    def flush(final=False):
        nonlocal size
        if len(out) < RUN_PIECES and not final:
            return
        run = "".join(out)
        out.clear()
        runs.append(run)
        size += len(run)
        if final or size >= WRITE_CHARS:
            write("".join(runs))
            runs.clear()
            size = 0

    _emit(doc, "\n", out.append, {}, flush)
    flush(True)
    return ""


def _emit(x, nl, put, memo, flush):
    """Append the indented JSON text of x at the depth whose newline plus
    indent is nl; flush (None or _json_dump's batcher) is called after
    each list item that took a call."""
    t = type(x)
    if t is list or t is tuple:
        if not x:
            put("[]")
            return
        inner = nl + "  "
        if t is tuple:
            tuples = memo.get(nl)
            if tuples is None:
                tuples = memo[nl] = {}
            text = tuples.get(id(x))
            if text is not None:
                put(text)
                return
        # every item a plain int (a bool is not): one join
        if type(x[0]) is int and list(map(type, x)).count(int) == len(x):
            text = "[" + inner + ("," + inner).join(map(int.__repr__, x)) + nl + "]"
            if t is tuple:
                tuples[id(x)] = text
            put(text)
            return
        tuples = memo.get(inner)
        if tuples is None:
            tuples = memo[inner] = {}
        sep = "[" + inner
        for v in x:
            tv = type(v)
            if tv is int:
                put(sep + int.__repr__(v))
            elif tv is str:
                put(sep + _quote(v))
            elif tv is tuple and (text := tuples.get(id(v))) is not None:
                put(sep + text)
            else:
                put(sep)
                _emit(v, inner, put, memo, flush)
                if flush is not None:
                    flush()
            sep = "," + inner
        put(nl + "]")
    elif t is dict:
        if not x:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in x.items():
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            tv = type(v)
            if tv is int:
                put(sep + _quote(k) + ": " + int.__repr__(v))
            elif tv is str:
                put(sep + _quote(k) + ": " + _quote(v))
            else:
                put(sep + _quote(k) + ": ")
                _emit(v, inner, put, memo, flush)
            sep = "," + inner
        put(nl + "}")
    elif t is str:
        put(_quote(x))
    elif t is _Rendered:
        put(x.replace("\n", nl))
    elif t is int:
        put(int.__repr__(x))
    elif x is True:
        put("true")
    elif x is False:
        put("false")
    elif x is None:
        put("null")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _summary_md(summary):
    sym = FAMILIES[summary.family].symbol
    lines = [
        f"# census {sym}_{summary.n}",
        "",
        f"silting objects: {summary.n_silting}",
        f"tilting modules: {summary.n_tilting}",
        "",
        "| quantity | value |",
        "|---|---|",
        f"| a_s({sym}_{summary.n}) | {summary.a_s} |",
        f"| a_t({sym}_{summary.n}) | {summary.a_t} |",
        f"| a_ss({sym}_{summary.n}) | {summary.a_ss} |",
        f"| a_ht({sym}_{summary.n}) | {summary.a_ht} |",
        f"| a_nht({sym}_{summary.n}) | {summary.a_nht} |",
    ]
    for label, count in sorted(summary.label_class_counts.items()):
        lines.append(f"| classes with label {label} | {count} |")
    if summary.overlaps:
        lines.append("")
        lines.append("label overlaps (one class, several case families):")
        for ov in summary.overlaps:
            lines.append(f"- class {ov['isoClass']}: {', '.join(ov['labels'])}")
    return "\n".join(lines)


def _summary_csv(summary):
    rows = [
        ("family", summary.family),
        ("n", summary.n),
        ("silting_objects", summary.n_silting),
        ("tilting_modules", summary.n_tilting),
        ("a_s", summary.a_s),
        ("a_t", summary.a_t),
        ("a_ss", summary.a_ss),
        ("a_ht", summary.a_ht),
        ("a_nht", summary.a_nht),
    ]
    rows += [(f"label_{k}", v) for k, v in sorted(summary.label_class_counts.items())]
    return "\n".join(f"{k},{v}" for k, v in rows)


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.cmd == "enumerate":
            objs = silting_json(AlgebraSpec(args.family, args.n), args.n_cap)
            if args.format == "json":
                _json_dump({"family": args.family, "n": args.n, "silting": objs}, sys.stdout.write)
                print()
            elif args.format == "csv":
                # one print of the joined lines: a print per line is two
                # writes per object when stdout is unbuffered
                lines = ["modules,shifted"]
                lines += (f"\"{list(map(list, o['modules']))}\",\"{o['shifted']}\"" for o in objs)
                print("\n".join(lines))
            else:
                lines = [f"# 2-term silting complexes, {FAMILIES[args.family].symbol}_{args.n}"]
                lines += (f"- modules {list(map(list, o['modules']))} shifted {o['shifted']}" for o in objs)
                lines.append(f"total: {len(objs)}")
                print("\n".join(lines))
            return 0

        if args.cmd == "classify":
            spec = AlgebraSpec(args.family, args.n)
            if args.format == "json" and not args.summary_only:
                # the census keeps one JSON text per record, and the
                # document around them goes to stdout piece by piece, so
                # its text is never held whole
                texts, summary = classify_family(
                    spec,
                    args.n_cap,
                    keep=lambda rec: _Rendered(_json_dump(rec.to_json(get_catalog(spec)))),
                )
                _json_dump({"summary": summary.to_json(), "records": texts}, sys.stdout.write)
                print()
                return 0
            summary = census_summary(spec, census_records(spec, args.n_cap))
            if args.format == "json":
                print(_json_dump(summary.to_json()))
            elif args.format == "csv":
                print(_summary_csv(summary))
            else:
                print(_summary_md(summary))
            return 0

        if args.cmd == "count":
            from . import formulas

            try:
                val = QUANTITIES[args.quantity](formulas, args.n, args.m)
            except (ValueError, KeyError, RecursionError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(val)
            return 0

        if args.cmd == "tables":
            from .papertables import verify_tables

            rep = verify_tables(enum_max_d=args.enum_max, deep_ss=args.deep_ss)
            if args.format == "json":
                print(_json_dump(rep.to_json()))
            elif args.format == "csv":
                print(rep.to_csv())
            else:
                print(rep.to_markdown())
            return 0 if rep.ok() else 2

        if args.cmd == "realization":
            from .realization import realization_complex

            s, ep, report = realization_complex(args.orientation, args.n)
            doc = {
                "report": report,
                "end": ep.to_json(),
            }
            if args.format == "json":
                print(_json_dump(doc))
            elif args.format == "csv":
                print("check,value")
                for k, v in report.items():
                    print(f"{k},{v}")
            else:
                print(f"# realization complex, orientation {args.orientation}, n={args.n}")
                for k, v in report.items():
                    print(f"- {k}: {v}")
            return 0 if report["hypothesesVerified"] else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 3
    return 1


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`silted enumerate ... | head`): point
        # stdout at devnull so the interpreter's last flush cannot fail
        # again, and exit as a process killed by SIGPIPE would report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
