"""Algebraic relations among closed forms and moment invariant ideals.

The relations ideal of exponential polynomials is computed by adjoining a
counter symbol plus one symbol per column of one exponent table (the base
magnitudes, and the sign when bases are negative), dividing out the
binomial ideal of the columns' multiplicative relations, then eliminating
the auxiliary symbols, a degrevlex block above the ring, so the ideal comes
in the ring's degrevlex order.  Transient prefixes are covered by
intersecting with the maximal ideal of each prefix point in turn.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import repeat
from math import comb, lcm
from operator import mul

from . import linalg
from .algebra import (
    _NAME_RE,
    MonomialOrder,
    Polynomial,
    VarRing,
    fresh_name,
    mono_divides,
    mono_one,
    mono_str,
    multivariate_divide,
    poly_parse,
)
from .cfinite import ExpPoly, solve_closed_form
from .errors import ArityMismatch, ClosureBudgetExceeded
from .groebner import DEFAULT_BUDGET, IdealBasis, buchberger, eliminate
from .loops import LoopProgram
from .moments import DEFAULT_CLOSURE_BUDGET, degree_targets, moment_closure


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_lattice(bases: list[Fraction]) -> tuple[tuple[int, ...], ...]:
    """Basis of the vectors a with prod(base_i ** a_i) == 1: the integer
    relations among the bases' prime exponent vectors, sorted."""
    bases = [Fraction(b) for b in bases]
    if any(b <= 0 for b in bases):
        raise ValueError("bases must be positive")
    exps = [Counter(_factorize(b.numerator)) for b in bases]
    for vec, b in zip(exps, bases):
        vec.subtract(_factorize(b.denominator))
    primes = sorted(set().union(*exps))
    vectors = [[vec[p] for p in primes] for vec in exps]
    return tuple(map(tuple, linalg.integer_relations(vectors)))


@dataclass(frozen=True)
class MomentRing:
    """Formal variables E[...] for the moments of a program's monomials."""

    ring: VarRing
    base_ring: VarRing
    symbols: tuple[tuple[int, ...], ...]

    def name_of(self, symbol: tuple[int, ...]) -> str:
        return f"E[{mono_str(symbol, self.base_ring)}]"


def moment_ring(base_ring: VarRing, max_degree: int) -> MomentRing:
    """Moment variables for every monomial of degree 1..max_degree; more of
    them and E[1] than `moment_closure`'s budget is ClosureBudgetExceeded."""
    count = comb(base_ring.arity + max_degree, max_degree) if max_degree > 0 else 0
    if count > DEFAULT_CLOSURE_BUDGET:
        raise ClosureBudgetExceeded(
            f"moment closure needs at least {count} symbols for degree <= {max_degree} "
            f"in {base_ring.arity} variables, over its budget of {DEFAULT_CLOSURE_BUDGET}"
        )
    symbols = tuple(degree_targets(base_ring, max_degree))
    names = [f"E[{mono_str(e, base_ring)}]" for e in symbols]
    return MomentRing(VarRing(names), base_ring, symbols)


def _tail_ideal(forms: list[ExpPoly], ring: VarRing, budget: int) -> IdealBasis:
    """Relations among the tails, each read as it stands, for all n >= 0.

    Each column c, the base magnitudes |b| != 1 and then, when some base is
    negative, the sign -1, has a symbol t_c for c^n.  Each form gives
    x_j - sum coeff(n)*b^n in a counter n, written term by term: n^k times
    the monomial of b's magnitude and sign columns has coefficient -c_k.
    The lattice is the magnitudes' `multiplicative_lattice` plus the sign's
    torsion vector (0, ..., 0, 2), as prod |b_i|^a_i > 0.  With its ideal
    divided out, the auxiliary variety is the closure of the
    parametrization, so eliminating the auxiliaries yields every for-all-n
    relation.  Past a transient of length T these are the same: n -> n + T,
    t_c -> c^T*t_c maps them to the shifted generators and each lattice
    binomial to a multiple of itself.  The auxiliaries, n first, form a
    degrevlex block above `ring`, so the basis is in `ring`'s degrevlex order.

    The lattice enters as t^a+ - t^a- for each basis vector a, t_s^2 - 1
    for the sign; the lattice ideal is their saturation by the product of
    the t symbols, which they alone may not generate.

    Only the free t symbols get a ring variable.  The basis is walked once,
    each vector's binomial taken under the substitutions made so far; one
    of the form t_i - t^c with t_i not in t^c defines t_i := t^c, which is
    composed into every column's monomial, and the binomial goes.  As
    k[t_i, rest]/(t_i - t^c) is k[rest], and the substitution fixes every
    x_j, the elimination ideal and its reduced basis are the same as with
    one symbol per column.  The other binomials are taken at the end,
    under every substitution, with no common factor cancelled.
    """
    cols = sorted(
        {abs(base) for f in forms for base, _ in f.tail if abs(base) != 1},
        reverse=True,
    )
    lattice = multiplicative_lattice(cols)
    if any(base < 0 for f in forms for base, _ in f.tail):
        lattice = [(*vec, 0) for vec in lattice] + [(0,) * len(cols) + (2,)]
        cols.append(-1)
    m = len(cols)
    # image[i]: column i's monomial in the free t symbols, as exponents
    image = [[int(i == k) for k in range(m)] for i in range(m)]

    def sides(vec):
        """The exponents of t^a+ and t^a- under the substitutions so far."""
        return [[sum(max(s * a, 0) * row[k] for a, row in zip(vec, image)) for k in range(m)] for s in (1, -1)]

    kept = []
    for vec in lattice:
        pos, neg = sides(vec)
        for lhs, rhs in ((pos, neg), (neg, pos)):
            if sum(lhs) == 1 and not rhs[i := lhs.index(1)]:
                for row in image:
                    row[:] = [r + row[i] * c for r, c in zip(row, rhs)]
                    row[i] = 0
                break
        else:
            kept.append(vec)
    free = [k for k in range(m) if any(row[k] for row in image)]
    # the stems differ, so each fresh name only has to avoid the ring
    aux = [fresh_name("n", ring)] + [fresh_name(f"t{k + 1}", ring) for k in free]
    big = VarRing(aux + list(ring.names))
    big_order = MonomialOrder("degrevlex", big, drop=aux)

    def monomial(*exps):
        """The product of the t^exps, as `big`'s exponents after n."""
        return (*(sum(e[k] for e in exps) for k in free), *mono_one(ring.arity))

    row_of = dict(zip(cols, image))
    gens = []
    for nm, f in zip(ring.names, forms):
        terms = dict(Polynomial.var(big, nm).terms)
        for base, coeff in f.tail:
            # b is |b| times its sign, and each factor but 1 has a column
            t = monomial(*(row_of[c] for c in (abs(base), base / abs(base)) if c in row_of))
            terms.update(((k, *t), -c) for k, c in enumerate(coeff.coeffs) if c)
        gens.append(Polynomial._make(big, terms))
    for vec in kept:
        pos, neg = (Polynomial.monomial(big, (0, *monomial(side))) for side in sides(vec))
        gens.append(pos - neg)
    return eliminate(IdealBasis(big, big_order, tuple(gens)), set(aux), budget)


def relations_ideal(
    forms: list[ExpPoly],
    ring: VarRing,
    budget: int = DEFAULT_BUDGET,
) -> IdealBasis:
    """Basis of all polynomial relations holding among the forms for n >= 0.

    `ring` has one variable per form.  The tail relations come from each
    tail's own parametrization, read for all n >= 0; each of the T indices
    before the longest transient then cuts them down to those vanishing at
    its point, read off the basis so far with no Groebner run
    (`_meet_point`).  The basis is in degrevlex order.
    """
    if len(forms) != ring.arity:
        raise ArityMismatch(
            f"{len(forms)} forms for {ring.arity} names"
        )
    result = _tail_ideal(forms, ring, budget)
    for n in range(max((len(f.transient) for f in forms), default=0)):
        result = _meet_point(result, [f.eval(n) for f in forms])
    return result


def _meet_point(basis: IdealBasis, point: list[Fraction]) -> IdealBasis:
    """Reduced basis of I ∩ m_p, I the ideal of the reduced `basis` G and m_p
    the maximal ideal of `point`, read off G with no Groebner run, so no budget.

    If every generator vanishes at p, I lies in m_p.  Else g0, the last one
    with g0(p) != 0, has the smallest such lead L0.  Dividing by G writes an
    f in I with lead below L0 by generators below L0, so f(p) = 0: L0 is no
    lead of I ∩ m_p (take f - lc(f)*g0), and u*(g - c*g0), u*(x_i - p_i)*g0
    give every other lead of I; the new corners are the other leads and each
    w = x_i*L0 no other lead divides.  Each g - g(p)/g0(p)*g0 (g != g0) and
    h - h(p)/g0(p)*g0 (h = w - NF_G(w)) is in I ∩ m_p, monic with its corner
    as lead, and below it only G-standard monomials and L0, none a new lead:
    the reduced basis (Marinari, Moeller and Mora, AAECC 1993).
    """
    gens, order, ring = basis.generators, basis.order, basis.ring
    values = [g.eval(point) for g in gens]
    if not (nonzero := [k for k, v in enumerate(values) if v]):
        return basis
    k0 = nonzero[-1]
    g0, v0, lead = gens[k0], values[k0], gens[k0].leading_term(order)[0]
    others = [g.leading_term(order)[0] for g in gens[:k0] + gens[k0 + 1 :]]
    out = [g - g0 * (v / v0) for k, (g, v) in enumerate(zip(gens, values)) if k != k0]
    for i in range(ring.arity):
        w = Polynomial.monomial(ring, lead[:i] + (lead[i] + 1,) + lead[i + 1 :])
        if not any(mono_divides(m, *w.terms) for m in others):
            h = w - multivariate_divide(w, list(gens), order)[1]
            out.append(h - g0 * (h.eval(point) / v0))
    out.sort(key=lambda g: order.key(g.leading_term(order)[0]), reverse=True)
    return IdealBasis(ring, order, tuple(out), reduced=True)


def closed_forms(loop: LoopProgram, degree: int) -> tuple[MomentRing, list[ExpPoly]]:
    """The moment ring of order <= degree and each of its symbols' closed form."""
    mring = moment_ring(loop.variables, degree)
    system = moment_closure(loop, list(mring.symbols))
    return mring, [solve_closed_form(system, system.index(sym)) for sym in mring.symbols]


def moment_invariant_ideal(
    loop: LoopProgram,
    degree: int,
    budget: int = DEFAULT_BUDGET,
) -> IdealBasis:
    """Basis of all invariant relations among moments of order <= degree.

    Pipeline: close the moments under expectation lifting, solve every
    target moment to an exponential polynomial, then compute the relations
    ideal of those closed forms.
    """
    mring, forms = closed_forms(loop, degree)
    return relations_ideal(forms, mring.ring, budget=budget)


def _symbol_of_name(name: str, base_ring: VarRing) -> tuple[int, ...]:
    if not (name.startswith("E[") and name.endswith("]")):
        raise ValueError(f"not a moment variable: {name!r}")
    terms = poly_parse(name[2:-1], base_ring).terms
    if len(terms) != 1 or 1 not in terms.values():
        raise ValueError(f"moment variable must name a monic monomial: {name!r}")
    return next(iter(terms))


def psi_map(p: Polynomial, base_ring: VarRing) -> Polynomial:
    """Ring homomorphism sending each E[M] to the monomial M: `p` evaluated
    at the point of those monomials."""
    return p.substitute(
        {
            nm: Polynomial.monomial(base_ring, _symbol_of_name(nm, base_ring))
            for nm in p.ring.names
        }
    )


def restrict_to_order_one(
    basis: IdealBasis, budget: int = DEFAULT_BUDGET
) -> IdealBasis:
    """Eliminate every moment variable of degree >= 2 (its bracket neither one name nor 1)."""
    drop = set()
    for nm in basis.ring.names:
        if not (nm.startswith("E[") and nm.endswith("]")):
            raise ValueError(f"not a moment ring variable: {nm!r}")
        if nm != "E[1]" and not _NAME_RE.fullmatch(nm[2:-1]):
            drop.add(nm)
    return eliminate(basis, drop, budget)


MODULUS = 2**61 - 1  # the prime of `empirical_relations`' first walk


def empirical_relations(
    value_table: list[list[Fraction]],
    ring: VarRing,
    degree: int,
    budget: int = DEFAULT_BUDGET,
) -> IdealBasis:
    """Ideal of the polynomials of degree <= `degree` vanishing on the samples.

    `value_table[j][n]` is the value of ring variable j at index n;
    soundness beyond the sampled horizon is empirical, not certified.

    A Buchberger-Moeller walk (EUROCAM 1982) takes the monomials smallest
    first in degrevlex, each from the one with one less power of its last
    variable, and skips those a lead divides.  Its column over the samples,
    reduced against the standard monomials' columns, is zero for a lead m,
    giving m - sum c*s, and otherwise makes it standard.  When no standard
    monomial reaches degree min(degree, count), which `degree >= count`
    ensures, the walk found every lead, and these generators made monic are
    the reduced basis; otherwise `buchberger` completes them.

    The walk first reduces modulo the prime p = `MODULUS` (after Abbott,
    Bigatti, Kreuzer and Robbiano, JSC 2000).  A column independent of the
    standard columns mod p is so over Q, a minor nonzero mod p being
    nonzero, and the exact walk makes it standard too.  At a zero residue
    the c are reconstructed from their residues and m - sum c*s is checked
    at every sample in integers; the standard columns being independent,
    it is then the exact walk's one relation, and the output is the same.
    If p divides a sample's denominator, or a c does not reconstruct or
    fails its check, the walk reruns reducing fraction-free in integers.
    """
    return _walk(value_table, ring, degree, budget, MODULUS) or _walk(value_table, ring, degree, budget, 0)


def _walk(value_table: list[list[Fraction]], ring: VarRing, degree: int, budget: int, p: int) -> IdealBasis | None:
    """`empirical_relations`, reducing mod p, or in integers for p = 0;
    None where the reduction mod p fails."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if len(value_table) != ring.arity:
        raise ArityMismatch(f"{len(value_table)} value rows for {ring.arity} names")
    count = len(value_table[0])
    if any(len(row) != count for row in value_table):
        raise ArityMismatch("ragged value table")
    order = MonomialOrder("degrevlex", ring)
    # sample n times d_n^top, d_n its common denominator, is integral on each
    # monomial the walk reaches (none past degree count); scaling keeps the ideal
    top = min(degree, count)
    dens = [lcm(*(values[n].denominator for values in value_table)) for n in range(count)]
    if p and any(d % p == 0 for d in dens):
        return None
    one = mono_one(ring.arity)
    heap = [(order.key(one), one, [d**top for d in dens], 0)]
    # per standard monomial: itself, a pivot row, its column and its reduced
    # column followed by its combination of the standard monomials up to itself
    standard, leads, gens = [], [], []
    while heap:
        _, m, col, last = heappop(heap)
        if any(map(mono_divides, leads, repeat(m))):
            continue
        v = ([c % p for c in col] if p else col) + [0] * len(standard) + [1]
        # a row mod p has pivot 1; v is longer than every row
        for _, pivot, _, row in standard:
            if a := v[pivot]:
                v = [(x - a * y) % p for x, y in zip(v, row)] + v[len(row) :] if p else linalg._cleared(v, row, pivot)
        pivot = next((i for i, x in enumerate(v[:count]) if x), None)
        if pivot is None:
            coeffs = [linalg.rational_reconstruction(c, p) if p else Fraction(c, v[-1]) for c in v[count:]]
            if p:
                if None in coeffs:
                    return None
                scale = lcm(*(c.denominator for c in coeffs))
                ints = [c.numerator * (scale // c.denominator) for c in coeffs]
                if any(sum(map(mul, ints, row)) for row in zip(*(s[2] for s in standard), col)):
                    return None
            gens.append(Polynomial(ring, dict(zip([s[0] for s in standard] + [m], coeffs))))
            leads.append(m)
            continue
        if p:
            inverse = pow(v[pivot], -1, p)
            v = [x * inverse % p for x in v]
        standard.append((m, pivot, col, v))
        for j in range(last, ring.arity) if sum(m) < top else ():
            child = m[:j] + (m[j] + 1,) + m[j + 1 :]
            step = [c * x.numerator // x.denominator for c, x in zip(col, value_table[j])]
            heappush(heap, (order.key(child), child, step, j))
    if any(sum(s[0]) == top for s in standard):
        return buchberger(gens, order, budget)
    # leads come smallest first; a reduced basis lists them largest first
    return IdealBasis(ring, order, tuple(reversed(gens)), reduced=True)
