"""Small exact linear algebra helpers over any field whose elements support
+, -, *, / and an is_zero() predicate (Q(i) scalars or torus functions).

Matrices are lists/tuples of rows.  Nothing here is optimized; dimensions
in this package stay below a few dozen.
"""

from __future__ import annotations


def add_term(out: dict, key, c) -> None:
    """out[key] += c on a sparse dict, dropping the key when the sum is zero."""
    acc = out.get(key)
    if acc is not None:
        c = acc + c
    if c.is_zero():
        out.pop(key, None)
    else:
        out[key] = c


def mat_mul(a, b, zero):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = zero
            for s in range(k):
                acc = acc + a[i][s] * b[s][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v, zero):
    out = []
    for row in a:
        acc = zero
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return out


def identity(n, zero, one):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def det(a, zero):
    """Determinant by fraction-full Gaussian elimination (entries in a field)."""
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix has no determinant here")
    m = [list(row) for row in a]
    sign = 1
    acc = None
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivot = m[col][col]
        acc = pivot if acc is None else acc * pivot
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            f = m[r][col] / pivot
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return acc if sign > 0 else -acc


def inv(a, zero, one):
    """Inverse via Gauss-Jordan; returns None when singular."""
    n = len(a)
    m = [list(row) + list(identity(n, zero, one)[i]) for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def rref(a, zero):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r] + [row for row in m[r:]], pivots

