"""Command-line front end.

Subcommands
  enumerate    list the basic 2-term silting complexes of a family
  classify     full census: records plus summary counts
  count        evaluate one named counting quantity
  tables       three-way verification report (exit 2 on undocumented mismatch)
  realization  the explicit 2-term tilting complex of the realization check

Deterministic output: identical invocations print identical bytes.

Exit codes
  0  success
  1  usage error (bad arguments, n above the cap, unknown quantity)
  2  verification mismatch (tables, realization)
  3  internal invariant failed (a bug: an AssertionError inside a command)
"""

import argparse
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import formulas as F
from .census import (
    FAMILIES,
    N_CAP,
    AlgebraSpec,
    census_records,
    census_summary,
    classify_family,
    get_catalog,
    realization_complex,
    records_to_json,  # unused here; perfbench/child.py wraps this name
    silting_json,
)


QUANTITIES = {
    "t_a": lambda n, m: F.t_a(n),
    "t_lambda": lambda n, m: F.t_lambda(n),
    "delta": lambda n, m: F.delta_row(n),
    "tm_a": lambda n, m: F.tm_a(n, m),
    "tm_lambda": lambda n, m: F.tm_lambda(n, m),
    "a_t_a": lambda n, m: F.a_t_a(n),
    "a_nht_a": lambda n, m: F.a_nht_a(n),
    "a_t2_a": lambda n, m: F.a_t2_a(n),
    "a_t3_a": lambda n, m: F.a_t3_a(n),
    "a_t4_a": lambda n, m: F.a_t4_a(n),
    "a_ht_lambda": lambda n, m: F.a_ht_lambda(n),
    "a_nht_lambda": lambda n, m: F.a_nht_lambda(n),
    "a_t_lambda": lambda n, m: F.a_t_lambda(n),
    "a_t1_lambda": lambda n, m: F.a_t1_lambda(n),
    "a_t2_lambda": lambda n, m: F.a_t2_lambda(n),
    "a_ss": lambda n, m: F.a_ss_lambda(n),
    "a_ss_lambda": lambda n, m: F.a_ss_lambda(n),
    "a_ss_gamma": lambda n, m: F.a_ss_gamma(n),
    "a_s_lambda": lambda n, m: F.a_s_lambda(n),
    "a_s_gamma": lambda n, m: F.a_s_gamma(n),
    "a_s_mu": lambda n, m: F.a_s_mu(n),
}
for _i in range(1, 15):
    QUANTITIES[f"c{_i}"] = (lambda i: lambda n, m: F.c_part(n, i))(_i)
for _k in ("b1", "b247", "b3", "b5", "b6", "b7"):
    QUANTITIES[_k] = (lambda k: lambda n, m: F.b_part(n, k))(_k)


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


def _json_dump(doc, write=None):
    """The text of json.dumps(doc, indent=2), byte for byte.  With write
    given, the text goes to write piece by piece instead, never held
    whole, and "" is returned.

    The stdlib falls back to its pure-Python encoder whenever an indent is
    set; this writer knows the few types the CLI's documents hold: dicts
    with str keys, lists and tuples, str, int, bool and None, plus the
    _Rendered text of such a value, written as that value would be.
    Anything else raises TypeError.

    A tuple of plain ints is written once per indent: its text is kept in
    a memo keyed by (tuple, indent) for the length of this call, so a
    document that shares one tuple across many places (the catalog's
    dimension vectors) joins each distinct one once.
    """
    out = []
    _emit(doc, "\n", write or out.append, {})
    return "".join(out)


def _emit(x, nl, put, memo):
    """Append the indented JSON text of x at the depth whose newline plus
    indent is nl."""
    t = type(x)
    if t is list or t is tuple:
        if not x:
            put("[]")
            return
        inner = nl + "  "
        # every item a plain int (a bool is not): one join for the list.
        # The memo is read only after this test: a tuple holding a list is
        # unhashable, and (1, True) == (1, 1).
        if list(map(type, x)).count(int) == len(x):
            text = memo.get((x, nl)) if t is tuple else None
            if text is None:
                text = "[" + inner + ("," + inner).join(map(int.__repr__, x)) + nl + "]"
                if t is tuple:
                    memo[x, nl] = text
            put(text)
            return
        sep = "[" + inner
        for v in x:
            put(sep)
            _emit(v, inner, put, memo)
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
            put(sep + _quote(k) + ": ")
            _emit(v, inner, put, memo)
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
                print(_json_dump({"family": args.family, "n": args.n, "silting": objs}))
            elif args.format == "csv":
                print("modules,shifted")
                for o in objs:
                    print(f"\"{list(map(list, o['modules']))}\",\"{o['shifted']}\"")
            else:
                print(f"# 2-term silting complexes, {FAMILIES[args.family].symbol}_{args.n}")
                for o in objs:
                    print(f"- modules {list(map(list, o['modules']))} shifted {o['shifted']}")
                print(f"total: {len(objs)}")
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
            try:
                val = QUANTITIES[args.quantity](args.n, args.m)
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
