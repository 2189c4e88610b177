"""Small exact linear algebra kit: rational elimination and integer relations."""

from __future__ import annotations

from fractions import Fraction


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

    (x, 1) is in the kernel of [rows | -rhs] exactly when x is a solution; the
    last column is free exactly when one exists, and its kernel vector sets
    every other free variable to zero.
    """
    if not rows:
        return []
    kernel = nullspace([list(r) + [-b] for r, b in zip(rows, rhs)])
    return kernel[-1][:-1] if kernel and kernel[-1][-1] else None


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


def integer_relations(vectors: list[list[int]]) -> list[list[int]]:
    """Basis of {a in Z^n : sum of a_i * vectors[i] = 0}, sorted, with each
    first nonzero entry positive.

    Euclidean column reduction of the vectors, each stacked on its unit
    vector so that its lower part records its combination.  The operations
    are unimodular, so the columns whose upper part reaches zero give the
    whole relation lattice, not a finite-index sublattice.
    """
    n = len(vectors)
    m = len(vectors[0]) if vectors else 0
    cols = [list(v) + [int(i == j) for j in range(n)] for i, v in enumerate(vectors)]
    col = 0
    for row in range(m):
        nz = [j for j in range(col, n) if cols[j][row]]
        if not nz:
            continue
        # Euclidean reduction across the row until one nonzero remains
        while len(nz) > 1:
            jmin, *rest = sorted(nz, key=lambda j: abs(cols[j][row]))
            for j in rest:
                q = cols[j][row] // cols[jmin][row]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[jmin])]
            nz = [j for j in range(col, n) if cols[j][row]]
        cols[col], cols[nz[0]] = cols[nz[0]], cols[col]
        col += 1
    kernel = [c[m:] for c in cols[col:]]
    return sorted([-x for x in v] if next(x for x in v if x) < 0 else v for v in kernel)
