"""Exact linear algebra over the rationals.

Matrices are plain lists of rows, entries are ``fractions.Fraction``.
Everything here is small and dense; clarity over asymptotics.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def copy_matrix(a):
    return [row[:] for row in a]


def matmul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} * {rb}x{cb}")
    out = zeros(ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            x = arow[k]
            if x:
                brow = b[k]
                for j in range(cb):
                    if brow[j]:
                        orow[j] += x * brow[j]
    return out


def matadd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def _row_echelon(a):
    """In-place row echelon form; returns list of pivot column indices."""
    r, c = shape(a)
    pivots = []
    prow = 0
    for col in range(c):
        piv = None
        for i in range(prow, r):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[prow], a[piv] = a[piv], a[prow]
        lead = a[prow][col]
        if lead != 1:
            inv = ONE / lead
            a[prow] = [x * inv if x else x for x in a[prow]]
        prow_vals = a[prow]
        for i in range(r):
            if i != prow and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y if y else x
                        for x, y in zip(a[i], prow_vals)]
        pivots.append(col)
        prow += 1
        if prow == r:
            break
    return pivots


def rref(a):
    """Reduced row echelon form (copy) and pivot columns."""
    m = copy_matrix(a)
    pivots = _row_echelon(m)
    return m, pivots


def rank(a):
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a):
    """Basis of the right kernel of ``a``, as a list of column vectors."""
    r, c = shape(a)
    if c == 0:
        return []
    if r == 0:
        return [[ONE if i == j else ZERO for i in range(c)] for j in range(c)]
    m, pivots = rref(a)
    free = [j for j in range(c) if j not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * c
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -m[i][f]
        basis.append(v)
    return basis


def columns_to_matrix(cols, nrows):
    """Pack a list of column vectors into a matrix with ``nrows`` rows."""
    if not cols:
        return [[] for _ in range(nrows)]
    return [[col[i] for col in cols] for i in range(nrows)]


def solve(a, b):
    """Solve a X = b for the matrix X; returns None if inconsistent."""
    r, ca = shape(a)
    rb, cb = shape(b)
    if r != rb:
        raise ValueError("row mismatch in solve")
    aug = [a[i][:] + b[i][:] for i in range(r)]
    m, pivots = rref(aug)
    for p in pivots:
        if p >= ca:
            return None
    x = zeros(ca, cb)
    for i, p in enumerate(pivots):
        for j in range(cb):
            x[p][j] = m[i][ca + j]
    return x


def invert(a):
    n, c = shape(a)
    if n != c:
        return None
    # [a | I] has rank n, so solve() finds x exactly when every pivot
    # falls in a, i.e. when a has full rank, and then a x = I
    return solve(a, identity(n))


def column_space_basis(a):
    """Indices of a maximal independent subset of columns, plus those columns."""
    r, c = shape(a)
    m, pivots = rref(a)
    cols = transpose(a)
    return pivots, [cols[p] for p in pivots]


def complement_basis(cols, dim):
    """Extend independent columns spanning a subspace of k^dim to a full basis
    using standard basis vectors; return the indices of the chosen standard
    vectors and the combined invertible matrix [cols | std].

    A standard vector is chosen when it is independent of the columns and
    of the standard vectors chosen before it: the pivot columns of
    [cols | identity] beyond the given ones."""
    k = len(cols)
    unit = identity(dim)
    _, pivots = rref([[col[i] for col in cols] + unit[i] for i in range(dim)])
    chosen = [p - k for p in pivots if p >= k]
    return chosen, columns_to_matrix(list(cols) + [unit[i] for i in chosen],
                                     dim)
