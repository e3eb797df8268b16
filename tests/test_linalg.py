import random
from fractions import Fraction

import pytest

from silted.linalg import (
    F0,
    F1,
    Mat,
    Solver,
    Subspace,
    integer_solve,
    kernel,
    nullspace,
    rank,
    rref,
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
    assert rank(m) == 2
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


def test_solver_many_rhs():
    m = Mat(3, 2, [[1, 0], [1, 1], [0, 2]])
    s = Solver(m)
    for x in ([1, 2], [0, 0], [-3, 5]):
        rhs = m.apply([fr(v) for v in x])
        got = s.solve(rhs)
        assert m.apply(got) == rhs
    assert s.solve([1, 0, 0]) is None


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
