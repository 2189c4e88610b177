"""Exact closed forms for linearly recurrent sequences.

A sequence produced by a moment system is annihilated by some monic
polynomial; splitting off its rational roots yields an exponential
polynomial `sum_i p_i(n) * base_i^n`, with the multiplicity of the root 0
becoming an explicit transient prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import mul

from . import linalg
from .algebra import format_terms
from .errors import IrrationalEigenvalue, NoRecurrenceFound
from .moments import MomentSystem


class UniPoly:
    """Dense univariate polynomial with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        """The value at x by Horner's rule; x may be a number or a polynomial."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def format(self, var: str = "n") -> str:
        return format_terms(
            ("1" if k == 0 else var if k == 1 else f"{var}^{k}", self.coeffs[k])
            for k in range(self.degree, -1, -1)
            if self.coeffs[k]
        )

    def __repr__(self) -> str:
        return f"UniPoly({self.format()})"


def minimal_recurrence(terms: list[Fraction], max_order: int) -> UniPoly:
    """Monic annihilator of least degree fitting every supplied term.

    The terms are rationals (Fractions or ints).  One Berlekamp-Massey pass (Massey, "Shift-register synthesis and BCH
    decoding", 1969) over the terms finds their linear complexity L and a
    connection polynomial C with C(0) = 1; the annihilator is its
    reciprocal x^L * C(1/x), so a root 0 of multiplicity L - deg C marks a
    transient.  With at least 2*max_order + 2 terms an annihilator of degree
    <= max_order is unique.  Raises NoRecurrenceFound as soon as L exceeds
    max_order.

    The pass runs in ints: the terms are scaled to a primitive integer
    vector, and C is kept as a primitive integer multiple, updated
    fraction-free as b*C - d*x^m*B instead of C - (d/b)*x^m*B.
    """
    if len(terms) < 2 * max_order + 2:
        raise ValueError("need at least 2*max_order + 2 terms")
    seq = linalg._integer_row(terms)
    conn = [1]  # connection polynomial C, constant term first
    prev = [1]  # C before the last length change
    length, shift, prev_disc = 0, 1, 1
    for n in range(len(seq)):
        disc = sum(map(mul, conn, seq[n::-1]))
        if not disc:
            shift += 1
            continue
        updated = [prev_disc * c for c in conn]
        updated += [0] * (shift + len(prev) - len(conn))
        for i, c in enumerate(prev):
            updated[shift + i] -= disc * c
        if 2 * length <= n:
            length, prev, prev_disc, shift = n + 1 - length, conn, disc, 1
            if length > max_order:
                raise NoRecurrenceFound(
                    f"no linear recurrence of order <= {max_order} fits the terms"
                )
        else:
            shift += 1
        while updated[-1] == 0:
            updated.pop()
        conn = linalg._primitive(updated)
    conn += [0] * (length + 1 - len(conn))
    return UniPoly(Fraction(c, conn[0]) for c in reversed(conn))


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _deflate(ip: list[int], num: int, den: int) -> list[int] | None:
    """The integral quotient of `ip` by den*x - num, or None if it has none.

    For num/den in lowest terms, den*x - num is primitive, so by Gauss's
    lemma it divides the integer polynomial `ip` over the rationals only if
    every step of the synthetic division is exact in ints.
    """
    out = [ip[-1]]
    for c in reversed(ip[:-1]):
        q, r = divmod(out[-1], den)
        if r:
            return None
        out[-1] = q
        out.append(c + num * q)
    return None if out.pop() else out[::-1]


def rational_roots(p: UniPoly) -> tuple[list[tuple[Fraction, int]], UniPoly]:
    """All rational roots with multiplicities, plus the rootless cofactor."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    # clear denominators; root 0 is the run of zero low-order coefficients
    ip = linalg._integer_row(p.coeffs)
    mult0 = next(i for i, c in enumerate(ip) if c)
    ip = ip[mult0:]
    if mult0:
        roots.append((Fraction(0), mult0))
    if len(ip) > 1:
        # the rational root theorem
        candidates = (
            (sign * num, den)
            for num in _divisors(ip[0])
            for den in _divisors(ip[-1])
            if gcd(num, den) == 1
            for sign in (1, -1)
        )
        for num, den in candidates:
            mult = 0
            while (quotient := _deflate(ip, num, den)) is not None:
                ip = quotient
                mult += 1
            if mult:
                roots.append((Fraction(num, den), mult))
            if len(ip) == 1:
                break
    roots.sort(key=lambda rm: rm[0])
    # the same cofactor as deflating p itself: its lead is p's
    return roots, UniPoly(c * p.coeffs[-1] / ip[-1] for c in ip)


@dataclass(frozen=True)
class ExpPoly:
    """Transient prefix plus a tail `sum coeff_i(n) * base_i^n`.

    The transient lists explicit values for n = 0..len(transient)-1; the
    tail is valid from n = len(transient) on.  Bases are pairwise distinct
    nonzero rationals and coefficient polynomials are nonzero.
    """

    transient: tuple[Fraction, ...] = ()
    tail: tuple[tuple[Fraction, UniPoly], ...] = ()

    def __post_init__(self):
        bases = [b for b, _ in self.tail]
        if len(set(bases)) != len(bases):
            raise ValueError("bases must be pairwise distinct")
        if any(b == 0 for b in bases):
            raise ValueError("bases must be nonzero")
        if any(c.is_zero() for _, c in self.tail):
            raise ValueError("coefficient polynomials must be nonzero")

    def eval(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("defined for n >= 0")
        if n < len(self.transient):
            return self.transient[n]
        total = Fraction(0)
        for base, coeff in self.tail:
            total += coeff(n) * base**n
        return total

    def format(self) -> str:
        tail = " + ".join(f"({c.format()})*{b}^n" for b, c in self.tail) or "0"
        if self.transient:
            vals = ", ".join(str(v) for v in self.transient)
            return f"transient=[{vals}]; {tail}"
        return tail

    def to_json(self) -> dict:
        return {
            "transient": [str(v) for v in self.transient],
            "tail": [
                {"base": str(b), "coeffs": [str(c) for c in coeff.coeffs]}
                for b, coeff in self.tail
            ],
        }

    def __str__(self) -> str:
        return self.format()


def solve_closed_form(system: MomentSystem, symbol_index: int) -> ExpPoly:
    """Exact exponential-polynomial closed form of one moment sequence.

    The sequence's minimal annihilator is computed from the matrix-power
    values; a nonconstant cofactor after rational root extraction means an
    irrational eigenvalue actually occurs in this sequence, which the
    rational pipeline refuses with a typed error.  The answer is verified
    against 2*order + 4 sequence terms before being returned.
    """
    order = system.size
    count = 2 * order + 4
    terms = [system.vector_at(n)[symbol_index] for n in range(count)]
    ann = minimal_recurrence(terms, order)
    roots, cofactor = rational_roots(ann)
    if cofactor.degree >= 1:
        raise IrrationalEigenvalue(
            "minimal annihilator has a nonconstant rootless cofactor "
            f"({cofactor.format('L')}); closed forms over the rationals "
            "cannot represent this sequence"
        )
    mult0 = next((m for r, m in roots if r == 0), 0)
    nonzero = [(r, m) for r, m in roots if r != 0]
    # the ansatz sum_{i,j} c_{i,j} n^j base_i^n, one row per n >= mult0, each
    # column from the row before (its base times) or the column before (times n)
    cols = [(r, j) for r, m in nonzero for j in range(m)]
    table = [[r**mult0 * mult0**j for r, j in cols]]
    for n in range(mult0 + 1, count):
        row = []
        for k, (r, j) in enumerate(cols):
            row.append(row[-1] * n if j else table[-1][k] * r)
        table.append(row)
    sol = linalg.solve(table[: len(cols)], terms[mult0 : mult0 + len(cols)])
    if sol is None:
        raise NoRecurrenceFound("coefficient ansatz is inconsistent")
    for n, row in enumerate(table, mult0):
        if sum(map(mul, row, sol)) != terms[n]:
            raise NoRecurrenceFound(f"closed form disagrees with the sequence at n={n}")
    # `cols` runs along `nonzero`, which is sorted by base
    coeffs = iter(sol)
    tail = [(r, UniPoly(islice(coeffs, m))) for r, m in nonzero]
    return ExpPoly(tuple(terms[:mult0]), tuple((r, c) for r, c in tail if not c.is_zero()))
