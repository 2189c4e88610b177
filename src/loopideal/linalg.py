"""Small exact linear algebra kit: rational elimination and integer kernels."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of rows*x = rhs, or None when inconsistent.

    Free variables are set to zero.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][-1]
    return x


def nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel over the rationals."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of {a in Z^n : rows * a = 0} via column reduction.

    Runs a Euclidean column elimination while tracking the transformation,
    so the returned vectors generate the full integer kernel lattice (not
    merely a finite-index sublattice).
    """
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    a = [list(r) for r in rows]
    # transform starts as the identity; columns of `t` track column ops on `a`
    t = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_swap(j, k):
        for i in range(nrows):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(ncols):
            t[i][j], t[i][k] = t[i][k], t[i][j]

    def col_addmul(j, k, q):
        # column j += q * column k
        for i in range(nrows):
            a[i][j] += q * a[i][k]
        for i in range(ncols):
            t[i][j] += q * t[i][k]

    row = 0
    col = 0
    while row < nrows and col < ncols:
        # find a nonzero entry in this row at column >= col
        nz = [j for j in range(col, ncols) if a[row][j]]
        if not nz:
            row += 1
            continue
        # Euclidean reduction across the row until one nonzero remains
        while len(nz) > 1:
            nz.sort(key=lambda j: abs(a[row][j]))
            jmin = nz[0]
            for j in nz[1:]:
                q = a[row][j] // a[row][jmin]
                col_addmul(j, jmin, -q)
            nz = [j for j in range(col, ncols) if a[row][j]]
        col_swap(col, nz[0])
        row += 1
        col += 1

    kernel = []
    for j in range(ncols):
        if all(a[i][j] == 0 for i in range(nrows)):
            v = [t[i][j] for i in range(ncols)]
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
            # normalize sign: first nonzero entry positive
            first = next((x for x in v if x), 0)
            if first < 0:
                v = [-x for x in v]
            if any(v):
                kernel.append(v)
    kernel.sort()
    return kernel
