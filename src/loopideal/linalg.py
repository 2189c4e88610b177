"""Small exact linear algebra kit: fraction-free integer elimination,
integer relations and rational reconstruction."""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Entries are rationals (ints or Fractions).  Elimination is fraction-free
    (after Bareiss, Math. Comp. 1968, with content removal in place of its
    exact division): each row is scaled to integers by the lcm of its
    denominators, pivot p clears entry a of row i as
    (p/g)*row_i - (a/g)*pivot_row with g = gcd(p, a), and the row is then
    divided by its content.  Scaling a row keeps the row space, so the
    reduced form, which is unique, is read off at the end by dividing each
    pivot row by its pivot; the rows past the rank are zero.
    """
    m = [_integer_row(r) for r in rows]
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
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = _cleared(m[i], m[r], c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    red += [[Fraction(0)] * ncols for _ in m[r:]]
    return red, pivots


def _cleared(v: list[int], row: list[int], c: int) -> list[int]:
    """v with entry c cleared by `row`, which counts as zero past its end:
    (p/g)*v - (a/g)*row over its content, for p = row[c] != 0, a = v[c] and
    g = gcd(p, a)."""
    p, a = row[c], v[c]
    g = gcd(p, a)
    p, a = p // g, a // g
    return _primitive([p * x - a * y for x, y in zip_longest(v, row, fillvalue=0)])


def _integer_row(row: list[Fraction]) -> list[int]:
    """`row` times the lcm of its denominators, over its content."""
    d = lcm(*(v.denominator for v in row))
    return _primitive([v.numerator * (d // v.denominator) for v in row])


def _primitive(row: list[int]) -> list[int]:
    """`row` divided by its content, the gcd of its entries."""
    k = gcd(*row)
    return [x // k for x in row] if k > 1 else row


def rational_reconstruction(a: int, m: int) -> Fraction | None:
    """The r/t with |r|, t <= sqrt(m/2) and r = a*t mod m, or None: the extended
    Euclidean algorithm on m and a, stopped at the first remainder r within
    the bound, gives the one candidate (Wang, Guy and Davenport, 1982)."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if abs(t1) <= bound and gcd(r1, t1) == 1 else None


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
