"""Correctness gate applied to every CLI run of the benchmark.

A run passes when
  - its stdout's sha256 equals the digest recorded in expected.json,
  - its object count equals the cluster number of the family and rank,
  - each known gap between enumeration and closed form recorded in
    expected.json still reads as recorded.
The known gaps are printed on every run; they are not gated away.
"""

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def count_problems(workload, doc):
    """Object counts in the parsed output against the cluster number."""
    want = workload.objects
    if workload.command == "enumerate":
        counts = {"silting entries": len(doc["silting"])}
    else:
        counts = {
            "summary siltingObjects": doc["summary"]["siltingObjects"],
            "records": len(doc["records"]),
        }
    return [
        f"{what} = {got}, cluster number of {workload.family} n={workload.n} is {want}"
        for what, got in counts.items()
        if got != want
    ]


def gap_key(gap):
    return f"{gap['formula']}:{gap['n']}"


def known_gaps(workload, expected):
    return [g for g in expected["known_gaps"] if g["workload"] == workload.name]


def gap_problems(workload, doc, closed_forms, expected):
    """Compare each recorded gap with the run's enumeration and the live
    closed form.  Returns (lines to print, problems)."""
    lines, problems = [], []
    for gap in known_gaps(workload, expected):
        enumerated = doc["summary"][gap["quantity"]]
        closed = closed_forms[gap_key(gap)]
        lines.append(
            f"known gap {gap['quantity']}({gap['label']}): enumeration {enumerated}, "
            f"closed form {closed} ({gap['formula']}({gap['n']}))"
        )
        if (enumerated, closed) != (gap["enumerated"], gap["closed_form"]):
            problems.append(
                f"gap {gap['quantity']}({gap['label']}) is now {enumerated} against {closed}, "
                f"recorded {gap['enumerated']} against {gap['closed_form']}"
            )
    return lines, problems


def check_run(workload, data, expected, closed_forms):
    """All gate parts for one run's stdout bytes.  Returns (lines, problems)."""
    digest, want = sha256(data), expected["sha256"][workload.name]
    problems = [] if digest == want else [f"stdout sha256 {digest} differs from the recorded {want}"]
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [], problems + [f"stdout is not JSON: {exc}"]
    lines, more = gap_problems(workload, doc, closed_forms, expected)
    return lines, problems + count_problems(workload, doc) + more
