"""Exact closed forms for linearly recurrent sequences.

A sequence produced by a moment system is annihilated by some monic
polynomial; splitting off its rational roots, found by p-adic lifting and
confirmed by exact deflation, yields an exponential polynomial
`sum_i p_i(n) * base_i^n`, with the multiplicity of the root 0 becoming an
explicit transient prefix.  The sequences of one moment system are solved
together in ints, on their integer multiples e * D^n * v(n) (see
`MomentSystem`).  Each coordinate's minimal annihilator divides that of the
whole vector sequence (Kauers and Zimmermann, "Computing the algebraic
relations of C-finite sequences and multisequences", JSC 2008), so one
running annihilator serves them all: only a coordinate it does not kill has
its own annihilator found and split.  As the roots are known integers, each
coordinate's exponential polynomial is then read off root by root, as in a
partial fraction decomposition (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 5): the rest of the running annihilator kills every other root's
block, and each form is mapped back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice, repeat, starmap
from math import gcd, isqrt, lcm
from operator import add, eq, mul

from . import linalg
from .algebra import format_terms
from .errors import IrrationalEigenvalue, NoRecurrenceFound, ToolkitError
from .loops import _lowest
from .moments import MomentSystem


class UniPoly:
    """Dense univariate polynomial with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, coeffs: tuple) -> "UniPoly":
        """Wrap an already clean coefficient tuple (Fractions, the last nonzero)."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

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

    The terms are rationals (Fractions or ints).  One Berlekamp-Massey pass
    (Massey, "Shift-register synthesis and BCH decoding", 1969) finds their
    linear complexity L and a connection polynomial C with C(0) = 1; the
    annihilator is x^L * C(1/x), whose root 0 of multiplicity L - deg C
    marks a transient.  With at least 2*max_order + 2 terms, an annihilator
    of degree <= max_order is unique.  Raises NoRecurrenceFound as soon as L
    exceeds max_order.

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


def _deflate(ip: list[int], divisor: list[int]) -> list[int] | None:
    """The integral quotient of `ip` by `divisor`, or None if it has none.

    For a primitive divisor, by Gauss's lemma, it divides the integer
    polynomial `ip` over the rationals only if every step of the long
    division is exact in ints.
    """
    rem, out = list(ip), []
    *tail, lead = divisor
    while len(rem) > len(tail):
        q, r = divmod(rem.pop(), lead)
        if r:
            return None
        out.append(q)
        shift = len(rem) - len(tail)
        for i, c in enumerate(tail):
            rem[shift + i] -= q * c
    return None if any(rem) else out[::-1]


def _peel(ip: list[int], roots) -> tuple[list[int], list[int]]:
    """The primitive integer polynomial `ip` (constant first) with the root 0,
    then each of `roots`, divided out as often as it divides, and the
    multiplicities of 0 and then of each of `roots`."""
    mults = [next(i for i, c in enumerate(ip) if c)]
    ip = ip[mults[0] :]
    for r in roots:
        linear, mult = [-r.numerator, r.denominator], 0
        while (quotient := _deflate(ip, linear)) is not None:
            ip, mult = quotient, mult + 1
        mults.append(mult)
    return ip, mults


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of lc(b)^k * a mod b, the pseudo-remainder."""
    rem = list(a)
    *tail, lead = b
    while len(rem) > len(tail):
        top = rem.pop()
        shift = len(rem) - len(tail)
        rem = [lead * c for c in rem]
        for i, c in enumerate(tail):
            rem[shift + i] -= top * c
        while rem and not rem[-1]:
            rem.pop()
    return linalg._primitive(rem) if rem else rem


def _value_mod(ip: list[int], x: int, m: int) -> int:
    """ip(x) mod m by Horner's rule."""
    acc = 0
    for c in reversed(ip):
        acc = (acc * x + c) % m
    return acc


def _root_candidates(ip: list[int]) -> list[Fraction]:
    """Fractions among which are all rational roots of `ip`, with ip(0) != 0;
    the steps are those of `rational_roots`."""
    gcd_ = ip
    step = [k * c for k, c in enumerate(ip)][1:]
    while step:
        gcd_, step = step, _pseudo_remainder(gcd_, step)
    s = _deflate(ip, linalg._primitive(gcd_))
    ds = [k * c for k, c in enumerate(s)][1:]
    for p in (n for n in count(2) if all(n % q for q in range(2, isqrt(n) + 1))):
        if s[-1] % p:
            lifts = [x for x in range(p) if not _value_mod(s, x, p)]
            if all(_value_mod(ds, x, p) for x in lifts):
                break
    m, bounds = p, (abs(s[0]), abs(s[-1]))
    while m <= 2 * bounds[0] * bounds[1]:
        m *= m
        lifts = [(x - _value_mod(s, x, m) * pow(_value_mod(ds, x, m), -1, m)) % m for x in lifts]
    return [c for x in lifts if (c := linalg.rational_reconstruction(x, m, bounds)) is not None]


def rational_roots(p: UniPoly) -> tuple[list[tuple[Fraction, int]], UniPoly]:
    """All rational roots with multiplicities, plus the rootless cofactor.

    The roots are found by p-adic lifting (Loos, "Computing rational zeros
    of integral polynomials by p-adic expansion", SIAM J. Comput. 1983), in
    ints, after the root 0 is split off:
    1. The square-free part s of degree d is the integer polynomial over its
       primitive pseudo-remainder gcd with the derivative.
    2. p is the smallest prime not dividing s_d at which every root of
       s mod p, found by evaluating s at 0 .. p-1, is simple; each prime
       dividing neither s_d nor the discriminant of s is one.  A root
       num/den of s has den | s_d, so it reduces to a root mod p.
    3. Newton steps lift each to a root of s mod m, squaring m each step,
       until m > 2*|s_0|*|s_d|.
    4. A root num/den has |num| <= |s_0|, 0 < den <= |s_d| and den prime
       to m, so it is the lifted root's rational reconstruction with the
       bounds (|s_0|, |s_d|), which m > 2*|s_0|*|s_d| makes unique.  The
       half-extended Euclid algorithm on (m, lifted root) gives one
       candidate, and by von zur Gathen and Gerhard (Modern Computer
       Algebra, Thm. 5.26(ii)) every such root is it up to sign; so a
       candidate whose cofactor passes |s_d|, or shares a factor with its
       remainder, is no root and is dropped.
    Each other candidate is then confirmed, and its multiplicity counted,
    by exact deflation of the whole integer polynomial.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    ip, (mult0,) = _peel(linalg._integer_row(p.coeffs), [])
    candidates = _root_candidates(ip)
    ip, (_, *mults) = _peel(ip, candidates)
    roots = sorted((r, m) for r, m in zip([Fraction(0), *candidates], [mult0, *mults]) if m)
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
        tail = " + ".join(
            f"({c.format()})*{b if b > 0 and b.denominator == 1 else f'({b})'}^n"
            for b, c in self.tail
        ) or "0"
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

    The first call solves every coordinate and keeps each form, or the error
    that refuses it, on the system.  The sequences are the integer ones
    w(n) = e * D^n * v(n) of the system's power iteration (see
    `MomentSystem`), whose rational roots D*r are integers.  The coordinates
    are walked from the highest symbol down, with a running annihilator
    x^start * prod (x - r)^top[r] that holds each root at its largest
    multiplicity so far.  A coordinate w that it kills on `order` windows
    needs nothing more: the annihilator applied to w satisfies w's own monic
    recurrence, of order <= `order`, so that many zeros make it zero.  Any
    other coordinate has its minimal annihilator deflated by the roots found
    so far, and only a nonconstant remainder goes to `rational_roots`; a
    nonconstant rootless cofactor means an irrational eigenvalue, refused
    with a typed error.  Every solvable coordinate is fitted to one ansatz:
    the columns n^j * (D*r)^n of each root at its largest multiplicity, on
    the K rows from `start` on, a confluent Vandermonde matrix in distinct
    nonzero integers.  It is invertible, so each solution is the
    coordinate's own exponential polynomial padded with zeros: by
    minimality, each of its roots has a coefficient of degree exactly
    multiplicity - 1, so its roots are the solution's nonzero blocks.  The
    fit is read off root by root, in ints, from those K rows alone: for P
    the annihilator without its x^start, the integer polynomial
    R = P / (x - r)^m kills every block but that of the root r of
    multiplicity m, so R(E) w on the m rows from `start` on holds r's block
    alone.  A simple root's coefficient is one quotient, R(E) w at `start`
    over R(r) * r^start; a root of multiplicity m > 1 has its m x m block
    solved by its own `rref` on those m rows.  So a system calls `rref` once
    per repeated root.  Each answer is verified against 2*order + 4 terms
    from `start` on, and its transient is as short as the formula allows:
    the multiplicity of 0 in a minimal annihilator is the least T from which
    the sequence is its exponential polynomial.  The bases over D and
    coefficients over e are v's, one `Fraction` each.
    """
    if system._forms is None:
        system._forms = _solve_all(system)
    form = system._forms[symbol_index]
    if isinstance(form, ToolkitError):
        raise type(form)(*form.args)
    return form


def _split(ann: UniPoly, known: list[int], scale: int) -> tuple[int, dict[int, int]]:
    """The multiplicity of the root 0 of a monic integer annihilator, and of
    each nonzero root, all of which must be rational; the new ones are
    appended to `known`."""
    ip, (mult0, *mults) = _peel(linalg._integer_row(ann.coeffs), known)
    roots = {r: m for r, m in zip(known, mults) if m}
    new, cofactor = rational_roots(UniPoly(ip)) if len(ip) > 1 else ([], UniPoly(ip))
    if (deg := cofactor.degree) >= 1:
        # name the cofactor of v's own annihilator: L -> L*D, over D^deg
        cofactor = UniPoly(c / scale ** (deg - k) for k, c in enumerate(cofactor.coeffs))
        raise IrrationalEigenvalue(
            "minimal annihilator has a nonconstant rootless cofactor "
            f"({cofactor.format('L')}); closed forms over the rationals "
            "cannot represent this sequence"
        )
    known += [int(r) for r, _ in new]
    return mult0, roots | {int(r): m for r, m in new}


def _solve_all(system: MomentSystem) -> list:
    """Each coordinate's closed form, or the error that refuses it."""
    order = system.size
    count = 2 * order + 4
    dens, vectors = zip(*islice(system._integer_powers(), count))
    e, scale = dens[0], dens[1] // dens[0]  # e and D
    seqs = list(zip(*vectors))
    # the running annihilator x^start * prod (x - r)^top[r], constant first;
    # the highest symbols come first, as their annihilators are the largest
    known, out, top, start, ann = [], [None] * order, {}, 0, [1]
    for i in reversed(range(order)):
        terms = seqs[i]
        # `order` zeros of ann(E) w make it zero (see `solve_closed_form`)
        if not any(sum(map(mul, ann, terms[n : n + len(ann)])) for n in range(order)):
            continue
        try:
            mult0, roots = _split(minimal_recurrence(list(terms), order), known, scale)
        except IrrationalEigenvalue as exc:
            out[i] = exc
            continue
        start = max(start, mult0)
        top |= {r: max(m, top.get(r, 0)) for r, m in roots.items()}
        ann = [0] * start + [1]
        for r, m in top.items():
            for _ in range(m):
                ann = [a - r * b for a, b in zip([0, *ann], [*ann, 0])]
    solved = [i for i, f in enumerate(out) if f is None]
    roots = sorted(top)
    # R(E), for R = P / (x - r)^top[r] and P = ann / x^start, kills every block but r's,
    # so top[r] rows from `start` on give r's block alone: a division for a simple root,
    # its own `rref` for a repeated one; per column n^j r^n, each solved coordinate's
    # coefficient over e is kept as a pair in lowest terms
    columns, sol = [], []
    for r in roots:
        m, kill = top[r], ann[start:]
        for _ in range(m):
            kill = _deflate(kill, [-r, 1])
        powers = list(accumulate(repeat(r, count - 1), mul, initial=1))
        cols = [[n**j * x for n, x in enumerate(powers)] for j in range(m)]
        rows = [
            [sum(map(mul, kill, seq[t : t + len(kill)])) for seq in (*cols, *(seqs[i] for i in solved))]
            for t in range(start, start + m)
        ]
        if m == 1:
            ((lhs, *rhs),) = rows
            sol.append([_reduced(b, e * lhs) for b in rhs])
        else:
            red, _ = linalg.rref(rows)
            sol += [[_reduced(x.numerator, x.denominator * e) for x in row[m:]] for row in red]
        columns += cols
    bases = {r: Fraction(r, scale) for r in roots}
    for k, i in enumerate(solved):
        terms, pairs = seqs[i], [s[k] for s in sol]
        # in ints: the columns times the coefficients, each times e over a common denominator
        common, values = lcm(*(d for _, d in pairs)), [0] * count
        for (n, d), column in zip(pairs, columns):
            if n:
                values = list(map(add, values, map((e * n * (common // d)).__mul__, column)))
        fits = list(map(eq, values, map(common.__mul__, terms)))
        if not all(fits[start:]):
            bad = fits.index(False, start)
            out[i] = NoRecurrenceFound(f"closed form disagrees with the sequence at n={bad}")
            continue
        # the multiplicity of 0 in the minimal annihilator is the least T
        # from which the sequence is its exponential polynomial
        mult0 = start
        while mult0 and fits[mult0 - 1]:
            mult0 -= 1
        # the blocks run along the roots in order, and so along the bases as D > 0; a block
        # is zero where the root is not the coordinate's, and past the coordinate's multiplicity
        tail, blocks = [], iter(pairs)
        for r in roots:
            block = list(islice(blocks, top[r]))
            while block and not block[-1][0]:
                block.pop()
            if block:
                tail.append((bases[r], UniPoly._make(tuple(starmap(_lowest, block)))))
        transient = (Fraction(terms[n], dens[n]) for n in range(mult0))
        out[i] = ExpPoly(tuple(transient), tuple(tail))
    return out


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d, for d != 0, as a pair in lowest terms with a positive denominator."""
    g = gcd(n, d)
    return (n // g, d // g) if d > 0 else (-n // g, -d // g)
