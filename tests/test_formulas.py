import pytest

from silted import formulas as F
from silted.cli import run
from silted.arcatalog import knit_catalog
from silted.quivers import d_linear_quiver
from silted.silting import enumerate_tilting_modules


def test_catalan_row():
    assert [F.t_a(n) for n in range(1, 10)] == [1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    assert F.t_a(0) == 1
    assert F.t_a(-1) == 0


def test_delta_rows():
    assert F.delta_row(3) == [1, 2, 2]
    assert F.delta_row(4) == [1, 3, 5, 5]
    assert F.delta_row(5) == [1, 4, 9, 14, 14]
    assert F.delta_row(6) == [1, 5, 14, 28, 42, 42]


def test_delta_row_sums_to_catalan():
    for n in range(1, 9):
        assert sum(F.delta_row(n)) == F.t_a(n)


def test_delta_closed_form_matches_the_recursion():
    """The Catalan-triangle closed form equals the slice recursion it
    replaced, delta(n, i) = delta(n, i - 1) + delta(n - 1, i)."""
    rec = {}
    for n in range(1, 61):
        for i in range(1, n + 1):
            rec[n, i] = 1 if i == 1 else rec[n, i - 1] + rec.get((n - 1, i), 0)
            assert F.delta(n, i) == rec[n, i]
    assert F.delta(5, 0) == F.delta(5, 6) == F.delta(0, 1) == 0


def test_count_answers_far_beyond_the_recursion_depth(capsys):
    # a recursive delta runs out of stack near n = 500
    assert run(["count", "delta", "--n", "1500"]) == 0
    assert run(["count", "tm_a", "--n", "1500", "--m", "1"]) == 0
    out = capsys.readouterr().out.split("\n")
    assert out[0].startswith("[1, 1499, ") and int(out[1]) > 0


def test_count_reports_a_recursion_error(monkeypatch, capsys):
    from silted import cli

    def too_deep(n, m):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli.QUANTITIES, "delta", too_deep)
    assert run(["count", "delta", "--n", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: maximum recursion depth exceeded\n"
    assert "Traceback" not in captured.err


def test_delta_edge_identities():
    for n in range(3, 9):
        assert F.delta(n, 2) == n - 1
        assert F.delta(n, n) == F.delta(n, n - 1) == F.t_a(n - 1)


def test_tm_tables():
    assert [F.tm_a(n, 1) for n in (3, 4, 5)] == [4, 14, 48]
    assert [F.tm_a(n, 2) for n in (3, 4, 5)] == [1, 5, 20]
    assert [F.tm_lambda(n, 1) for n in (4, 5, 6)] == [5, 21, 83]
    assert [F.tm_lambda(n, 2) for n in (4, 5, 6)] == [1, 6, 28]


def test_tm_vanishes_beyond_orbit():
    assert F.tm_lambda(4, 3) == 0
    assert F.tm_lambda(5, 4) == 0
    assert F.tm_a(3, 3) == 0


def test_tm_errors():
    # (2, 1), (3, 2) and (1, 0) would otherwise meet the m >= n - 1 shortcut
    for n, m in [(3, 1), (2, 1), (3, 2), (1, 0)]:
        with pytest.raises(ValueError):
            F.tm_lambda(n, m)
        assert run(["count", "tm_lambda", "--n", str(n), "--m", str(m)]) == 1
    with pytest.raises(ValueError):
        F.tm_a(4, 0)


def test_a_counts_for_lines():
    assert [F.a_nht_a(n) for n in range(1, 10)] == [0, 0, 1, 6, 26, 100, 365, 1302, 4606]
    assert [F.a_t_a(n) for n in range(1, 7)] == [1, 1, 4, 10, 36, 116]
    for n in range(1, 10):
        assert F.a_nht_a(n) == F.t_a(n) - 2 ** (n - 1)


def test_d_family_counts():
    assert F.a_ht_lambda(4) == 4
    assert [F.a_ht_lambda(n) for n in (5, 6, 7)] == [12, 24, 48]
    assert F.a_nht_lambda(4) == 4
    assert F.a_nht_lambda(5) == 23
    assert F.a_nht_lambda(6) == 102
    assert [F.a_t_lambda(n) for n in (4, 5, 6)] == [7, 35, 126]
    assert [F.a_ss_lambda(n) for n in range(4, 10)] == [1, 4, 14, 48, 165, 572]
    with pytest.raises(ValueError):
        F.a_ht_lambda(3)


def test_census_totals():
    assert [F.a_s_lambda(n) for n in (4, 5, 6)] == [13, 62, 228]
    assert [F.a_s_gamma(n) for n in (4, 5, 6)] == [11, 65, 234]
    assert [F.a_ss_gamma(n) for n in (4, 5, 6)] == [0, 2, 9]


def test_b_parts():
    assert F.b_part(5, "b247") == F.t_a(4) - 1 == 13
    assert F.b_part(4, "b247") == 5
    assert F.b_part(5, "b3") == 7
    assert F.b_part(6, "b3") == 42
    assert F.b_part(5, "b5") == 4
    assert F.b_part(6, "b6") == 9
    assert F.b_part(5, "b7") == 4


def test_c_parts_examples():
    assert {i: F.c_part(5, i) for i in range(1, 15)} == {
        1: 35, 2: 13, 3: 4, 4: 0, 5: 3, 6: 0, 7: 3,
        8: 0, 9: 4, 10: 0, 11: 1, 12: 3, 13: 0, 14: 2,
    }
    assert {i: F.c_part(6, i) for i in (1, 2, 3, 5, 7, 9, 11, 12, 13, 14)} == {
        1: 126, 2: 39, 3: 22, 5: 10, 7: 9, 9: 7, 11: 2, 12: 3, 13: 7, 14: 9,
    }
    assert F.c_part(4, 14) == 0


def test_a_s_mu():
    assert [F.a_s_mu(n) for n in range(1, 6)] == [0, 0, 0, 0, 2]
    assert F.a_s_mu(6) == 10
    assert F.a_s_mu(7) == 54


def test_a_t_subsets():
    assert F.a_t2_a(5) == F.a_t_a(5) - F.t_a(4) + 1
    assert F.a_t3_a(5) == F.a_t_a(4)
    assert F.a_t4_a(1) == F.a_t4_a(2) == 1
    assert F.a_t4_a(4) == F.a_t_a(4) - F.t_a(3) + 2
    assert F.a_t1_lambda(5) == 15
    assert F.a_t2_lambda(5) == F.a_t_lambda(5) - 15


def test_t_lambda_small_cases():
    assert F.t_lambda(1) == 1
    assert F.t_lambda(2) == 1
    assert F.t_lambda(3) == 5
    assert F.t_lambda(4) == 20
    assert [F.t_lambda(m) for m in range(5, 9)] == [77, 294, 1122, 4290]


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_t_lambda_closed_form_matches_enumeration(m):
    # the reference is the enumeration over the knitted linear D_m catalog
    assert F.t_lambda(m) == len(enumerate_tilting_modules(knit_catalog(d_linear_quiver(m))))
