import random
from fractions import Fraction

import pytest

from silted.linalg import (
    F0,
    F1,
    Mat,
    Subspace,
    integer_solve,
    kernel,
    nullspace,
    rref,
    solve,
    stack_rows,
)


def fr(x):
    return Fraction(x)


def test_mat_mul_and_apply():
    a = Mat(2, 3, [[1, 2, 0], [0, 1, 1]])
    b = Mat(3, 2, [[1, 0], [0, 1], [2, 3]])
    c = a.mul(b)
    assert c.a == [[fr(1), fr(2)], [fr(2), fr(4)]]
    assert a.apply([1, 1, 1]) == [fr(3), fr(2)]


def test_mat_empty_shapes():
    a = Mat(0, 3)
    b = Mat(3, 2)
    assert a.mul(b).rows == 0 and a.mul(b).cols == 2
    z = Mat(2, 0)
    assert z.mul(Mat(0, 4)).a == [[F0] * 4, [F0] * 4]


def test_rref_rank_nullspace():
    m = Mat(3, 3, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    rows, pivots = rref(m)
    assert pivots == [0, 1]
    ns = nullspace(m)
    assert len(ns) == 1
    for row in m.a:
        assert sum(x * y for x, y in zip(row, ns[0])) == 0
    # the basis is the identity on the free columns, so kernel coordinates
    # can be read off there
    rng = random.Random(3)
    for _ in range(50):
        r, c = rng.randint(1, 4), rng.randint(1, 6)
        m = Mat(r, c, [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)])
        _, pivots = rref(m)
        free = [j for j in range(c) if j not in pivots]
        basis, got_free = kernel(m)
        assert got_free == free and basis == nullspace(m)
        assert [[v[f] for f in free] for v in basis] == [
            [F1 if i == k else F0 for i in range(len(free))] for k in range(len(free))
        ]


def test_solve_many_rhs():
    m = Mat(3, 2, [[1, 0], [1, 1], [0, 2]])
    for x in ([1, 2], [0, 0], [-3, 5]):
        rhs = m.apply([fr(v) for v in x])
        got = solve(m, rhs)
        assert m.apply(got) == rhs
    assert solve(m, [1, 0, 0]) is None


def test_solve_empty_shapes():
    # no rows: every rhs is the empty vector and x is zero at every column
    assert solve(Mat(0, 3), []) == [0, 0, 0]
    # no columns: only the zero rhs lies in the (zero) column span
    assert solve(Mat(2, 0), [0, 0]) == []
    assert solve(Mat(2, 0), [0, 1]) is None
    assert solve(Mat(0, 0), []) == []
    with pytest.raises(ValueError):
        solve(Mat(2, 1), [1])


def test_subspace_quotient_coords():
    sp = Subspace(3)
    assert sp.add([1, 1, 0])
    assert not sp.add([2, 2, 0])
    assert sp.complement_indices() == [1, 2]
    assert sp.quotient_coords([0, 1, 5]) == [fr(1), fr(5)]
    assert sp.contains([3, 3, 0])


def test_stack_rows():
    a = Mat(1, 2, [[1, 2]])
    b = Mat(2, 2, [[3, 4], [5, 6]])
    s = stack_rows([a, b], 2)
    assert s.rows == 3 and s.column(0) == [fr(1), fr(3), fr(5)]


def test_integer_solve_needs_free_variable():
    # x = (1, 1) solves 2a + b = 3; zeroing free variables must not lose it
    assert integer_solve([[2, 1]], [3]) is not None
    e, bb = [[2, 0]], [3]
    assert integer_solve(e, bb) is None  # 2a = 3 has no integer solution


def test_integer_solve_random_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        emat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = [sum(e * v for e, v in zip(row, x)) for row in emat]
        got = integer_solve(emat, b)
        assert got is not None
        assert all(
            sum(e * v for e, v in zip(row, got)) == bb for row, bb in zip(emat, b)
        )


def test_integer_solve_detects_insoluble():
    assert integer_solve([[2, 4], [0, 2]], [1, 0]) is None


# ---- integer entries against an all-Fraction reference -------------------


class FractionSubspace:
    """The all-Fraction reduced row echelon subspace, kept as the reference
    for the int entries of Subspace.  `pivots_met` records the value of
    every pivot before it was scaled to 1."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = []
        self.pivots = []
        self.pivots_met = []

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != 0:
                for j in range(p, self.ambient):
                    v[j] -= c * row[j]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        piv = next((j for j in range(self.ambient) if v[j] != 0), None)
        if piv is None:
            return False
        self.pivots_met.append(v[piv])
        inv = Fraction(1) / v[piv]
        v = [x * inv for x in v]
        for row in self.rows:
            c = row[piv]
            if c != 0:
                for j in range(self.ambient):
                    row[j] -= c * v[j]
        k = next((i for i, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(k, v)
        self.pivots.insert(k, piv)
        return True

    def quotient_coords(self, vec):
        v = self.reduce(vec)
        pivset = set(self.pivots)
        return [v[j] for j in range(self.ambient) if j not in pivset]

    def kernel(self):
        pivset = set(self.pivots)
        basis = []
        for f in (j for j in range(self.ambient) if j not in pivset):
            v = [Fraction(0)] * self.ambient
            v[f] = Fraction(1)
            for row, p in zip(self.rows, self.pivots):
                v[p] = -row[f]
            basis.append(v)
        return basis


def random_integer_matrices(seed, count):
    """Seeded small integer matrices: some over {-1, 0, 1}, whose pivots are
    mostly +-1, and some with entries up to 3 in size, so pivots +-2 and 3
    also occur."""
    rng = random.Random(seed)
    for t in range(count):
        r, c = rng.randint(1, 5), rng.randint(1, 7)
        values = (-1, 0, 0, 1) if t % 2 else (-3, -2, -1, 0, 0, 1, 2, 3)
        yield [[rng.choice(values) for _ in range(c)] for _ in range(r)]


def all_int(vectors):
    return all(type(x) is int for v in vectors for x in v)


def test_integer_entries_match_the_fraction_reference():
    seen_non_unit = seen_unit_only = seen_outside_span = 0
    probe_rng = random.Random(11)
    for entries in random_integer_matrices(2, 400):
        rows, cols = len(entries), len(entries[0])
        ref = FractionSubspace(cols)
        for row in entries:
            ref.add(row)
        m = Mat(rows, cols, entries)
        got_rows, got_pivots = rref(m)
        assert (got_rows, got_pivots) == (ref.rows, ref.pivots)
        assert kernel(m) == (ref.kernel(), [j for j in range(cols) if j not in ref.pivots])
        sp = Subspace(cols)
        for row in entries:
            sp.add(row)
        probes = [[probe_rng.randint(-3, 3) for _ in range(cols)] for _ in range(3)]
        # solve against the solution read off [m | rhs], zero at the free
        # columns, for an rhs in the column span and an arbitrary one
        for rhs in (m.apply(probes[0]), [probe_rng.randint(-3, 3) for _ in range(rows)]):
            aug = FractionSubspace(cols + 1)
            for row, b in zip(entries, rhs):
                aug.add(row + [b])
            if cols in aug.pivots:
                seen_outside_span += 1
                assert solve(m, rhs) is None
            else:
                want = [Fraction(0)] * cols
                for row, p in zip(aug.rows, aug.pivots):
                    want[p] = row[cols]
                assert solve(m, rhs) == want
        reduced = [sp.reduce(v) for v in probes]
        coords = [sp.quotient_coords(v) for v in probes]
        assert reduced == [ref.reduce(v) for v in probes]
        assert coords == [ref.quotient_coords(v) for v in probes]
        if all(p in (1, -1) for p in ref.pivots_met):
            seen_unit_only += 1
            assert all_int(got_rows) and all_int(kernel(m)[0])
            assert all_int(reduced) and all_int(coords)
        else:
            seen_non_unit += 1
    # both kinds of matrix were exercised
    assert seen_unit_only > 100 and seen_non_unit > 50
    assert seen_outside_span > 50


def test_mat_keeps_int_entries_and_converts_the_rest():
    m = Mat(1, 4, [[1, True, Fraction(1, 2), "3/4"]])
    assert [type(x) for x in m.a[0]] == [int, Fraction, Fraction, Fraction]
    assert m.a[0] == [1, 1, Fraction(1, 2), Fraction(3, 4)]
    assert type(F0) is int and type(F1) is int


def test_non_unit_pivot_keeps_arithmetic_exact():
    sp = Subspace(2)
    sp.add([2, 1])
    assert sp.rows == [[1, Fraction(1, 2)]]
    assert sp.quotient_coords([0, 1]) == [1]
    assert sp.reduce([4, 3]) == [0, 1]
    assert nullspace(Mat(1, 2, [[3, 1]])) == [[Fraction(-1, 3), 1]]
