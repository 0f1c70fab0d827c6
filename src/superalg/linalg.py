"""Small exact linear algebra helpers over Q(i).

The constants 0 and 1 are scalars.ZERO and scalars.ONE.  Entries may also
be torus functions: their operators coerce a Q(i) scalar operand, so
ZERO + f and ONE / f are torus functions again.  Every entry must support
+, -, *, / and an is_zero() predicate.

Matrices are lists/tuples of rows.  Nothing here is optimized; dimensions
in this package stay below a few dozen.
"""

from __future__ import annotations

from .scalars import ONE, ZERO


def add_term(out: dict, key, c) -> None:
    """out[key] += c on a sparse dict, dropping the key when the sum is zero."""
    acc = out.get(key)
    if acc is not None:
        c = acc + c
    if c.is_zero():
        out.pop(key, None)
    else:
        out[key] = c


def add_scaled(out: dict, v: dict, s) -> None:
    """out += s * v on sparse dicts, term by term through add_term."""
    for key, c in v.items():
        add_term(out, key, c * s)


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ZERO
            for s in range(k):
                acc = acc + a[i][s] * b[s][j]
            row.append(acc)
        out.append(row)
    return out


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def det(a):
    """Determinant by fraction-full Gaussian elimination (entries in a field);
    ONE, the empty product, for the 0 x 0 matrix."""
    n = len(a)
    if n == 0:
        return ONE
    m = [list(row) for row in a]
    sign = 1
    acc = None
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return ZERO
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


def inv(a):
    """Inverse via Gauss-Jordan; returns None when singular."""
    n = len(a)
    m = [list(row) + unit for row, unit in zip(a, identity(n))]
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


def rref(a):
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
    return m, pivots

