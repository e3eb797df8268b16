import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from silted import cli
from silted.census import FAMILIES, AlgebraSpec, classify_family, records_to_json
from silted.cli import run
from silted.quivers import b_reversed_quiver, d_linear_quiver, d_reversed_quiver, line_quiver


def capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_count_examples():
    code, out = capture(["count", "a_ss", "--n", "9"])
    assert code == 0 and out.strip() == "572"
    code, out = capture(["count", "tm_lambda", "--n", "6", "--m", "2"])
    assert code == 0 and out.strip() == "28"
    code, out = capture(["count", "t_a", "--n", "8"])
    assert code == 0 and out.strip() == "1430"


def test_closed_forms_do_not_enumerate():
    # both closed forms once enumerated a knitted D catalog and did not
    # finish at these ranks
    for quantity in ("t_lambda", "a_s_gamma"):
        code, out = capture(["count", quantity, "--n", "40"])
        assert code == 0 and int(out) > 0


def test_count_out_of_range_is_usage_error():
    code, _ = capture(["count", "a_ht_lambda", "--n", "3"])
    assert code == 1


def test_unknown_quantity_is_usage_error():
    assert run(["count", "no_such_thing", "--n", "4"]) == 1


def test_enumerate_a1():
    code, out = capture(["enumerate", "--family", "a", "--n", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["silting"]) == 2


def test_enumerate_cap(capsys):
    code, _ = capture(["enumerate", "--family", "d-linear", "--n", "8", "--n-cap", "6"])
    assert code == 1
    # the census's own cap check speaks for both commands
    enumerate_err = capsys.readouterr().err
    assert run(["classify", "--family", "d-linear", "--n", "8", "--n-cap", "6"]) == 1
    assert enumerate_err == capsys.readouterr().err == (
        "error: n=8 exceeds the enumeration cap 6\n"
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_below_its_least_rank_is_usage_error(family, capsys):
    fam = FAMILIES[family]
    least = fam.least_rank
    assert run(["classify", "--family", family, "--n", str(least - 1)]) == 1
    assert f"needs n >= {least}" in capsys.readouterr().err
    # the table's builder is the family's quiver
    builder = {
        "a": line_quiver,
        "d-linear": d_linear_quiver,
        "d-reversed": d_reversed_quiver,
        "b": b_reversed_quiver,
    }[family]
    for n in (least, least + 2):
        got, want = fam.quiver(n), builder(n)
        assert got.vertices == want.vertices and got.arrows == want.arrows


@pytest.mark.parametrize("fmt", [["--summary-only"], ["--format", "csv"], ["--format", "md"]])
def test_classify_cap_on_streamed_summaries(fmt, capsys):
    code = run(["classify", "--family", "d-linear", "--n", "8", "--n-cap", "6"] + fmt)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "n=8 exceeds the enumeration cap 6" in err


def test_tables_above_the_cap_runs_no_census(monkeypatch, capsys):
    import silted.papertables

    def no_census(*args, **kwargs):
        raise AssertionError("a census ran")

    for name in ("classify_family", "census_records", "census_summary", "get_catalog"):
        monkeypatch.setattr(silted.papertables, name, no_census)
    assert run(["tables", "--enum-max", "10"]) == 1
    assert "exceeds the enumeration cap 9" in capsys.readouterr().err


def test_classify_md_summary():
    code, out = capture(["classify", "--family", "d-linear", "--n", "4", "--format", "md"])
    assert code == 0
    assert "| a_s(Lambda_4) | 13 |" in out
    assert "| a_t(Lambda_4) | 7 |" in out


def test_classify_deterministic_bytes():
    args = ["classify", "--family", "d-linear", "--n", "5", "--format", "json"]
    code1, out1 = capture(args)
    code2, out2 = capture(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_classify_csv():
    code, out = capture(["classify", "--family", "d-reversed", "--n", "4", "--format", "csv"])
    assert code == 0
    assert "a_s,11" in out


def test_realization_cli():
    code, out = capture(["realization", "--n", "5", "--orientation", "linear"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["hypothesesVerified"]


def test_tables_exit_code_and_content():
    code, out = capture(["tables", "--enum-max", "4", "--format", "md"])
    assert code == 0
    assert "a_s_lambda" in out and "overall: ok" in out


def test_internal_invariant_failure_exits_3(monkeypatch, capsys):
    import silted.cli

    def broken(spec, n_cap, keep=None):
        raise AssertionError("presentation audit failed")

    monkeypatch.setattr(silted.cli, "classify_family", broken)
    code = run(["classify", "--family", "d-linear", "--n", "4"])
    assert code == 3
    assert "internal invariant failed: presentation audit failed" in capsys.readouterr().err


def test_invariant_failure_names_the_silting_object(monkeypatch, capsys):
    import silted.census

    monkeypatch.setattr(silted.census, "global_dimension", lambda qwr: 4)
    code = run(["classify", "--family", "d-linear", "--n", "4"])
    assert code == 3
    err = capsys.readouterr().err
    assert "component with global dimension > 3" in err
    assert "family d-linear" in err and "n=4" in err
    assert "silting object P(1)[1] + P(2)[1] + P(3)[1] + P(4)[1]" in err


def test_non_schurian_end_names_the_silting_object(monkeypatch, capsys):
    from silted.census import _object_text, get_catalog
    from silted.endo import TwoTermHomCalc
    from silted.silting import enumerate_two_term_silting

    real = TwoTermHomCalc.dim
    widened = []

    def dim(self, src, tgt):
        d = real(self, src, tgt)
        if src != tgt and d == 1 and not widened:
            widened.append((src, tgt))
        return 2 if (src, tgt) in widened else d

    monkeypatch.setattr(TwoTermHomCalc, "dim", dim)
    code = run(["classify", "--family", "d-linear", "--n", "4"])
    assert code == 3
    err = capsys.readouterr().err
    assert "End(S) is not Schurian" in err
    assert "family d-linear" in err and "n=4" in err
    cat = get_catalog(AlgebraSpec("d-linear", 4))
    met = next(s for s in enumerate_two_term_silting(cat) if set(widened[0]) <= set(s.summands()))
    assert _object_text(cat, met) + ")" in err


def test_cyclic_end_quiver_is_an_invariant_failure(monkeypatch, capsys):
    from silted.census import _object_text, get_catalog
    from silted.endo import TwoTermHomCalc
    from silted.silting import enumerate_two_term_silting

    cat = get_catalog(AlgebraSpec("a", 3))
    first = next(iter(enumerate_two_term_silting(cat)))
    cycle = first.summands()
    real = TwoTermHomCalc.dim

    # Hom between the first object's summands becomes a directed 3-cycle;
    # no composite of two of its arrows is parallel to a third, so no
    # composite is evaluated
    def dim(self, src, tgt):
        if src != tgt and src in cycle and tgt in cycle:
            return int(cycle.index(tgt) == (cycle.index(src) + 1) % 3)
        return real(self, src, tgt)

    monkeypatch.setattr(TwoTermHomCalc, "dim", dim)
    code = run(["classify", "--family", "a", "--n", "3"])
    assert code == 3
    err = capsys.readouterr().err
    assert "Gabriel quiver of End is not acyclic" in err
    assert "family a" in err and "n=3" in err
    assert _object_text(cat, first) + ")" in err


def test_tables_failure_names_the_row(monkeypatch, capsys):
    import silted.papertables

    def broken(cat, tilts, m):
        raise AssertionError("clique enumeration produced a non-silting object")

    monkeypatch.setattr(silted.papertables, "tm_lambda_enumerated", broken)
    code = run(["tables", "--enum-max", "4"])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-silting object" in err
    assert "tm_lambda_enum" in err and "family d-linear" in err and "n=4" in err


def test_realization_failure_names_the_silting_object(monkeypatch, capsys):
    import silted.census

    def broken(s, cat, calc=None):
        raise AssertionError("broken End")

    monkeypatch.setattr(silted.census, "end_algebra", broken)
    code = run(["realization", "--orientation", "linear", "--n", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert "broken End" in err
    assert "family d-linear" in err and "n=5" in err
    assert "P(5)[1]" in err


# sha256 of the stdout of CLI documents the benchmark's digest gate does not
# run: `classify --format json` per family and rank, the streamed summaries
# (`--summary-only`, csv and md), `enumerate` in each format, the tables
# report (the one document that reads `formulas.t_lambda`) and both
# realizations; the same under PYTHONHASHSEED 0 and 1
GOLDEN_BYTES = {
    # csv and md print each module's dimension vector as a list
    "enumerate-d-linear-6-json": (
        "enumerate --family d-linear --n 6 --format json",
        "0583df751d948e5df9fcf86223b592fe2bc44a3a560d062f9a2e7743bd2eaf3b",
    ),
    "enumerate-d-linear-6-csv": (
        "enumerate --family d-linear --n 6 --format csv",
        "89020823e862af22b1723885334e053ac91665f442d2fe2c2425041e4a3c3099",
    ),
    "enumerate-d-linear-6-md": (
        "enumerate --family d-linear --n 6 --format md",
        "7f6df5951eb0068f245c4a69236666c9932e44a5cf209416a71864937b62e99f",
    ),
    "d-reversed-6": (
        "classify --family d-reversed --n 6 --format json",
        "c8fc6588efe84778f9199fc0bd30bc0f2fbc8fe76a2e3776764fc9f047223353",
    ),
    "d-reversed-5": (
        "classify --family d-reversed --n 5 --format json",
        "a79fa79ea9a27b6ba4cad9c9e65a94be69ae5799b38c6a708396b80eb03cd31f",
    ),
    "d-linear-5": (
        "classify --family d-linear --n 5 --format json",
        "7b5cb3c49127ad5ef021a8da10d4e92511c5c0e197c8e64d8550b91e0990115e",
    ),
    "d-linear-6": (
        "classify --family d-linear --n 6 --format json",
        "0096987dc89490a590d1be16024dcb6fda9a65e856a06b6f9a05dd307ca3f7f0",
    ),
    "b-6": (
        "classify --family b --n 6 --format json",
        "860d27da54eed371d23e27bf06e933908395b8cd59f491436ef071c2d68ae4d6",
    ),
    "tables-5-json": (
        "tables --enum-max 5 --format json",
        "5d215a7ac48f93324f05bbbaf930cd4ea89efbda849ac0749f35486e7135be93",
    ),
    # the n = 6 tm_lambda_enum rows, the documented (6, 1) gap among them
    "tables-6-json": (
        "tables --enum-max 6 --format json",
        "ffc942d24739ec01d278d28c4b7458532104876b5e0eb65045a9f4abfd5f0a7f",
    ),
    "realization-6-linear": (
        "realization --n 6 --orientation linear",
        "45eaa3f5d0a476e653f4de2ccaa3fea66fbdca1bf2f2526ce473fe667745d9ed",
    ),
    "realization-6-reversed": (
        "realization --n 6 --orientation reversed",
        "166e2a7006ed8b24e0178286011a59d2f608085b91728c06c1900a31e9e44fe5",
    ),
    # the one document with a_ss_lambda(7) enumerated (48), by --deep-ss
    "tables-4-deep-ss-json": (
        "tables --enum-max 4 --deep-ss --format json",
        "00cde69e5f2ea449b85cf752e1b42353da46b5fa44965c41074b2580ea07faa2",
    ),
    # the summaries read off the record stream without a record list
    "d-reversed-6-md": (
        "classify --family d-reversed --n 6 --format md",
        "8a4fa1d5bd9086d80242ee0f3e26611e73d7f588a669cef2796e1e52bacb35b0",
    ),
    "d-reversed-6-csv": (
        "classify --family d-reversed --n 6 --format csv",
        "50e4683a337e6fac4c3542dcc63bd0990794caa436f25014da2069f07f2a2f87",
    ),
    "d-linear-6-summary": (
        "classify --family d-linear --n 6 --summary-only",
        "2e67880123fce74960c7ca3b078109f5883fa0fcb1a0d4b069c823636ec06c9c",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BYTES))
def test_classify_golden_bytes(name):
    argv, digest = GOLDEN_BYTES[name]
    code, out = capture(argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tables_csv_rows_parse_to_the_header_fields():
    code, out = capture(["tables", "--enum-max", "3", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["quantity", "key", "enumeration", "formula", "reference", "status"]
    assert all(len(row) == 6 for row in rows)
    by_key = {(row[0], row[1]): row for row in rows[1:]}
    assert by_key[("delta_row", "3")][2] == "[1, 2, 2]"
    assert ("tm_a", "(3, 1)") in by_key


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "silted.cli", "count", "t_a", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "42"


@pytest.mark.parametrize(
    "argv",
    [
        # about 1.9 MB and 0.6 MB of JSON: both far over a pipe's buffer, so
        # the command is still writing when the reader closes the pipe
        ["enumerate", "--family", "d-linear", "--n", "7"],
        ["classify", "--family", "d-linear", "--n", "5"],
    ],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "silted.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.read(64).startswith(b"{\n")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


_STARTUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import silted.cli
print(sorted(set(sys.argv[2:]) & set(sys.modules)))
from silted import formulas
sys.exit(silted.cli.run(["count", "t_a", "--n", "6"]))
"""


def test_cli_start_up_skips_class_machinery_and_closed_forms():
    # -S: no site, so no .pth file can preload a module the package avoids
    src = str(Path(__file__).resolve().parent.parent / "src")
    unwanted = ["dataclasses", "inspect", "typing", "silted.formulas", "silted.papertables"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _STARTUP_PROBE, src, *unwanted],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n132\n"


# ---- the JSON writer ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--family", "d-linear", "--n", "5"],
        ["classify", "--family", "d-linear", "--n", "5", "--summary-only"],
        ["classify", "--family", "b", "--n", "5"],
        ["classify", "--family", "b", "--n", "5", "--summary-only"],
        ["enumerate", "--family", "d-reversed", "--n", "6"],
        ["tables", "--enum-max", "5", "--format", "json"],
        ["realization", "--n", "6", "--orientation", "linear"],
        ["realization", "--n", "6", "--orientation", "reversed"],
    ],
)
def test_json_writer_matches_stdlib_on_cli_documents(monkeypatch, argv):
    if argv[0] == "classify" and "--summary-only" not in argv:
        # a full classify writes each record's text on its own, then the
        # document around those texts
        spec = AlgebraSpec(argv[2], int(argv[4]))
        code, out = capture(argv)
        assert code == 0
        assert out == json.dumps(records_to_json(spec, *classify_family(spec)), indent=2) + "\n"
        return
    docs = []
    write = cli._json_dump
    monkeypatch.setattr(
        cli, "_json_dump", lambda doc, *sink: docs.append(doc) or write(doc, *sink)
    )
    code, out = capture(argv)
    assert code == 0 and len(docs) == 1
    assert out == json.dumps(docs[0], indent=2) + "\n"


def test_json_writer_matches_stdlib_on_edge_cases():
    vec = (1, 0, 2)
    twin = tuple([1, 0, 2])  # equal to vec, another object
    assert twin == vec and twin is not vec
    docs = [
        [],
        [[]],
        [[], {}, ()],
        (),
        ((6, 1), (), [()]),
        {},
        {"a": {}, "b": {"c": []}},
        "",
        "café ∃ \U0001d53b \x00\x1f\x7f \"quoted\" back\\slash\ttab\nnewline",
        {"é\n\"": "\x01", "": None},
        [-1, 0, -12345678901234567890],
        [1, True, 2],
        [0, False, None],
        [None, None],
        True,
        None,
        -7,
        # one int tuple at two depths: the memo is keyed by indent
        [(1, 0, 2), [(1, 0, 2)], {"a": [[(1, 0, 2)]]}],
        # equal to (1, 1) and (0, 0) but not all-int, so never memoised
        [(1, 1), (1, True), (0, 0), (0, None), (1, True)],
        {"silting": [{"modules": [(0, 1), (1, 1)], "shifted": [2]}, {"modules": [(0, 1)]}]},
        # one tuple object at two list depths, then an equal but distinct one
        [vec, [vec, twin], vec, [[twin, vec]], twin],
        {"a": [vec], "b": vec, "c": [[vec], twin]},
        # (1, True) == (1, 1): neither may be written from the other's text
        [(1, 1), (1, True)],
        [(1, True), (1, 1), [(1, True), (1, 1)]],
        # bool and None as list items and dict values, beside inline ints and strs
        [True, 1, False, 0, None, "", "x"],
        {"t": True, "i": 1, "f": False, "z": 0, "n": None, "s": "x"},
        # huge negative ints inline, in an int tuple and in a dict
        [-(10**30), (-(10**25), 3), {"v": -(10**40)}, [-(10**30)]],
    ]
    for doc in docs:
        assert cli._json_dump(doc) == json.dumps(doc, indent=2)
        # a pre-rendered text re-indents to the depth it is put at, as a
        # list item and as a dict value, and is written as JSON text: the
        # rendered "" and -7 are not quoted as a plain str would be
        text = cli._Rendered(cli._json_dump(doc))
        nested = {"a": [text, {"b": text}], "c": text}
        assert cli._json_dump(nested) == json.dumps(
            {"a": [doc, {"b": doc}], "c": doc}, indent=2
        )


def test_json_writer_streams_in_batches(monkeypatch):
    vec = (4, 0, 1)
    doc = {"silting": [{"modules": [vec, (i, -i)], "shifted": [i, "s"]} for i in range(300)]}
    want = json.dumps(doc, indent=2)
    monkeypatch.setattr(cli, "RUN_PIECES", 16)
    monkeypatch.setattr(cli, "WRITE_CHARS", 1000)
    writes = []
    assert cli._json_dump(doc, writes.append) == ""
    assert "".join(writes) == want
    assert len(writes) > 10
    # every batch but the last holds WRITE_CHARS characters or more
    assert all(len(w) >= 1000 for w in writes[:-1]) and writes[-1]
    assert cli._json_dump(doc) == want


def test_json_writer_memo_lasts_one_call():
    vec = tuple(range(3, 7))
    first = {"modules": [vec, vec]}
    second = [[vec], {"v": vec}]
    refs = sys.getrefcount(vec)
    assert cli._json_dump(first) == json.dumps(first, indent=2)
    assert cli._json_dump(second) == json.dumps(second, indent=2)
    # a memo kept past the call would still hold the tuple
    assert sys.getrefcount(vec) == refs


@pytest.mark.parametrize(
    "doc", [1.5, [Fraction(1, 2)], {1, 2}, {1: "a"}, {(1, 2): 3}, {"ok": [{None: 0}]}]
)
def test_json_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        cli._json_dump(doc)
