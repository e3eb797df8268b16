"""Dense exact linear algebra over the rationals.

Everything downstream (intertwiner solving, knitting, presentation
extraction, global dimension) runs on these matrices and vectors.  Entries
are Python ints with an exact Fraction fallback: `Mat` keeps int entries
and converts any other entry with Fraction, and `Subspace` divides only by
a pivot that is not +-1, through a Fraction.  Integral data reduced over
unit pivots therefore stay int, and mixed int/Fraction arithmetic is exact
on any other input.  There is no floating point anywhere in the package.

Rational systems are solved by `solve`, which reads the solution off the
canonical kernel of the augmented matrix, so one elimination routine
(`Subspace.add`) serves reduction, kernels and solves alike.
`integer_solve` is the separate integer-solution routine for exponent
systems.
"""

from fractions import Fraction

F0 = 0
F1 = 1


class Mat:
    """A rows x cols matrix of exact rationals with explicit shape: int
    entries are kept as they are, any other entry becomes a Fraction.

    Shapes are carried explicitly so zero-dimensional spaces (empty
    matrices) behave correctly in products, stacks and rank computations.
    """

    __slots__ = ("rows", "cols", "a")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.a = [[F0] * cols for _ in range(rows)]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry grid does not match shape")
            self.a = [[x if type(x) is int else Fraction(x) for x in r] for r in entries]

    @staticmethod
    def from_columns(cols_list, rows):
        m = Mat(rows, len(cols_list))
        for j, col in enumerate(cols_list):
            for i in range(rows):
                m.a[i][j] = col[i]
        return m

    def column(self, j):
        return [self.a[i][j] for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.a == other.a
        )

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.a})"

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = Mat(self.rows, other.cols)
        for i in range(self.rows):
            arow = self.a[i]
            orow = out.a[i]
            for k in range(self.cols):
                x = arow[k]
                if x == 0:
                    continue
                brow = other.a[k]
                for j in range(other.cols):
                    if brow[j] != 0:
                        orow[j] += x * brow[j]
        return out

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum((self.a[i][j] * vec[j] for j in range(self.cols)), F0) for i in range(self.rows)]

    def flatten(self):
        return [x for row in self.a for x in row]



def stack_rows(mats, cols):
    """Vertically stack matrices that all have `cols` columns."""
    rows = sum(m.rows for m in mats)
    out = Mat(rows, cols)
    r = 0
    for m in mats:
        for i in range(m.rows):
            out.a[r] = list(m.a[i])
            r += 1
    return out


class Subspace:
    """A subspace of Q^n kept in reduced row echelon form.

    Supports membership tests, canonical reduction of vectors modulo the
    subspace, and canonical quotient coordinates (the non-pivot columns).
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != 0:
                for j in range(p, self.ambient):
                    v[j] -= c * row[j]
        return v

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))

    def add(self, vec):
        """Insert a vector; returns True if the dimension grew."""
        v = self.reduce(vec)
        piv = next((j for j in range(self.ambient) if v[j] != 0), None)
        if piv is None:
            return False
        # a unit pivot is its own inverse, so integral rows stay int
        pv = v[piv]
        if pv == -1:
            v = [-x for x in v]
        elif pv != 1:
            inv = Fraction(1) / pv
            v = [x * inv for x in v]
        # keep earlier rows fully reduced
        for row in self.rows:
            c = row[piv]
            if c != 0:
                for j in range(self.ambient):
                    row[j] -= c * v[j]
        k = next((i for i, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(k, v)
        self.pivots.insert(k, piv)
        return True

    def complement_indices(self):
        pivset = set(self.pivots)
        return [j for j in range(self.ambient) if j not in pivset]

    def quotient_coords(self, vec):
        """Coordinates of vec + self in the canonical complement basis."""
        v = self.reduce(vec)
        return [v[j] for j in self.complement_indices()]

    def basis(self):
        return [list(r) for r in self.rows]



def rref(mat):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    sp = Subspace(mat.cols)
    for i in range(mat.rows):
        sp.add(mat.a[i])
    return sp.basis(), list(sp.pivots)


def kernel(mat):
    """Canonical basis of the right kernel and its free columns.

    Basis vector k is 1 at free[k] and 0 at every other free column, so the
    coordinates of a kernel vector in this basis are its free entries.
    """
    rows, pivots = rref(mat)
    pivset = set(pivots)
    free = [j for j in range(mat.cols) if j not in pivset]
    basis = []
    for f in free:
        v = [F0] * mat.cols
        v[f] = F1
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis, free


def nullspace(mat):
    """Canonical basis of the right kernel, ordered by free column index."""
    return kernel(mat)[0]


def solve(mat, rhs):
    """The solution x of mat * x = rhs that is zero at every free column of
    mat, or None when rhs is not in the column span.

    rhs lies in the span exactly when the last column of [mat | rhs] is
    free, and the canonical kernel vector at that column is (-x, 1).
    """
    if len(rhs) != mat.rows:
        raise ValueError("right-hand side length mismatch")
    aug = Mat(mat.rows, mat.cols + 1, [row + [b] for row, b in zip(mat.a, rhs)])
    basis, free = kernel(aug)
    if not free or free[-1] != mat.cols:
        return None
    x = [-c for c in basis[-1][:-1]]
    if mat.apply(x) != list(rhs):
        raise AssertionError("solve returned a non-solution of a consistent system")
    return x


def integer_solve(emat, b):
    """One integer solution x of E x = b (E an integer matrix), or None.

    Column Hermite reduction E * U = H with H in column echelon form; the
    non-pivot columns of H vanish, so forward substitution with zero free
    variables is complete.  Sized for the small exponent systems that
    arise when matching relation ideals up to arrow rescaling.
    """
    m = len(emat)
    n = len(emat[0]) if emat else 0
    if n == 0:
        return [] if all(x == 0 for x in b) else None
    E = [list(r) for r in emat]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop_swap(a_, b_):
        for i in range(m):
            E[i][a_], E[i][b_] = E[i][b_], E[i][a_]
        for i in range(n):
            U[i][a_], U[i][b_] = U[i][b_], U[i][a_]

    def colop_addmul(dst, src, q):
        for i in range(m):
            E[i][dst] -= q * E[i][src]
        for i in range(n):
            U[i][dst] -= q * U[i][src]

    col = 0
    pivots = []  # (row, col) of H
    for row in range(m):
        if col >= n:
            break
        while True:
            nz = [j for j in range(col, n) if E[row][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(E[row][j]))
            if j0 != col:
                colop_swap(col, j0)
            finished = True
            for j in range(col + 1, n):
                if E[row][j] != 0:
                    q = E[row][j] // E[row][col]
                    if q:
                        colop_addmul(j, col, q)
                    if E[row][j] != 0:
                        finished = False
            if finished:
                break
        if col < n and E[row][col] != 0:
            pivots.append((row, col))
            col += 1
    # solve H y = b; non-pivot columns of H are zero, so set their y to 0
    y = [0] * n
    piv_by_row = {r: c for (r, c) in pivots}
    for row in range(m):
        acc = b[row] - sum(E[row][c] * y[c] for (_, c) in pivots)
        if row in piv_by_row:
            c = piv_by_row[row]
            acc += E[row][c] * y[c]
            if acc % E[row][c] != 0:
                return None
            y[c] = acc // E[row][c]
        elif acc != 0:
            return None
    x = [sum(U[i][j] * y[j] for j in range(n)) for i in range(n)]
    for erow, bb in zip(emat, b):
        if sum(e * xx for e, xx in zip(erow, x)) != bb:
            raise AssertionError("integer_solve produced an invalid solution")
    return x
