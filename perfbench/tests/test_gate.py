import json

import gate
from workloads import WORKLOADS, Workload, cluster_number, positive_roots


def _doc_bytes(entries):
    return json.dumps({"family": "b", "n": 2, "silting": [{}] * entries}, indent=2).encode()


def test_cluster_and_root_counts():
    assert cluster_number("d-linear", 7) == 2508
    assert cluster_number("d-linear", 9) == 35750
    assert cluster_number("b", 7) == 1430
    assert [positive_roots(f, n) for f, n in (("d-linear", 7), ("b", 7), ("d-linear", 9))] == [
        42,
        28,
        72,
    ]
    assert [WORKLOADS[w].objects for w in WORKLOADS] == [2508, 1430, 35750]


def test_digest_gate_rejects_altered_bytes():
    w = Workload("toy", "enumerate", "b", 2, ())
    data = _doc_bytes(5)
    expected = {"sha256": {"toy": gate.sha256(data)}, "known_gaps": []}
    assert gate.check_run(w, data, expected, {}) == ([], [])
    altered = data.replace(b"  ", b"   ", 1)
    assert json.loads(altered) == json.loads(data)
    _, problems = gate.check_run(w, altered, expected, {})
    assert len(problems) == 1 and "sha256" in problems[0]


def test_count_gate_rejects_wrong_object_count():
    w = Workload("toy", "enumerate", "b", 2, ())
    data = _doc_bytes(4)
    expected = {"sha256": {"toy": gate.sha256(data)}, "known_gaps": []}
    _, problems = gate.check_run(w, data, expected, {})
    assert problems == ["silting entries = 4, cluster number of b n=2 is 5"]


def test_known_gaps_are_printed_and_must_read_as_recorded():
    w = Workload("toy", "classify", "b", 2, ())
    gap = {"workload": "toy", "quantity": "a_s", "label": "B_2", "formula": "a_s_lambda",
           "n": 2, "enumerated": 3, "closed_form": 4}
    expected = {"known_gaps": [gap]}
    lines, problems = gate.gap_problems(w, {"summary": {"a_s": 3}}, {"a_s_lambda:2": 4}, expected)
    assert problems == []
    assert lines == ["known gap a_s(B_2): enumeration 3, closed form 4 (a_s_lambda(2))"]
    lines, problems = gate.gap_problems(w, {"summary": {"a_s": 4}}, {"a_s_lambda:2": 4}, expected)
    assert len(lines) == 1 and len(problems) == 1


def test_recorded_gaps_cover_the_rank_7_disagreements():
    gaps = {(g["quantity"], g["enumerated"], g["closed_form"])
            for g in gate.load_expected()["known_gaps"]}
    assert gaps == {("a_s", 845, 847), ("a_t", 462, 461)}
