"""Moment closure: from a probabilistic loop to a linear moment recurrence.

Expectations of monomials in program variables are closed under the loop's
one-step expectation transformer whenever lifting stays inside a finite
monomial set; the transition matrix of that set drives every closed form
downstream.  The transformer runs in Python ints (`_lift`), as
`loops._integer_steps` does; `Fraction`s appear only in what it hands back:
the `MomentSystem.transition` rows and `lift_polynomial_expectation`'s value.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations_with_replacement, islice
from math import gcd, lcm

from .algebra import Polynomial, VarRing, _image, _memo, _used, mono_one
from .errors import ClosureBudgetExceeded
from .loops import LoopProgram

DEFAULT_CLOSURE_BUDGET = 5_000


def lift_polynomial_expectation(loop: LoopProgram, p: Polynomial) -> Polynomial:
    """One-step expectation transformer.

    Returns q with E[p(state after one iteration) | state s] = q(s).
    Assignments are folded in reverse order; a probabilistic assignment
    contributes the probability-weighted sum of its branch substitutions.
    """
    top, den = _numerators(p.project(loop.variables))
    nums, den = _lift(_statements(loop), top.terms, den)
    return Polynomial._make(top.ring, {e: Fraction(c, den) for e, c in nums.items()})


def _numerators(p: Polynomial) -> tuple[Polynomial, int]:
    """p as a polynomial of integer numerators over the lcm of its
    denominators, and that lcm."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return Polynomial._make(p.ring, {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}), den


def _statements(loop: LoopProgram) -> list[tuple[int, list[tuple]]]:
    """Per statement: the lcm W of its branch probabilities' denominators
    and, per branch, its integer weight over W and two `algebra._image`
    memos at the branch's point (each target's expression, every other
    variable itself), one of integer numerator polynomials and one of
    their int denominators."""
    ring = loop.variables
    one = Polynomial._make(ring, {mono_one(ring.arity): 1})
    xs = {nm: Polynomial.var(ring, nm) for nm in ring.names}
    out = []
    for stmt in loop.body:
        scale = lcm(*(pr.denominator for pr, _ in stmt.branches))
        branches = []
        for pr, exprs in stmt.branches:
            tops, dens = zip(*map(_numerators, (xs | dict(zip(stmt.targets, exprs))).values()))
            branches.append((pr.numerator * (scale // pr.denominator), _memo(one, tops), _memo(1, dens)))
        out.append((scale, branches))
    return out


def _lift(statements: list, nums: dict[tuple[int, ...], int], den: int) -> tuple[dict, int]:
    """`lift_polynomial_expectation` of nums / den in ints: (numerators,
    denominator) in lowest terms.  Per statement, from the last, every
    branch image of every monomial is an integer polynomial over an int
    denominator; their weighted sum goes over one denominator, the lcm of
    the images' times W times the incoming one, and its content is divided
    out once."""
    for scale, branches in reversed(statements):
        used = [(_used(m), c) for m, c in nums.items()]
        parts = [(w * c, _image(tops, u), _image(dens, u)) for w, tops, dens in branches for u, c in used]
        common = lcm(*(d for _, _, d in parts))
        acc: dict[tuple[int, ...], int] = {}
        for f, img, d in parts:
            f *= common // d
            for e, a in img.terms.items():
                acc[e] = acc.get(e, 0) + f * a
        den *= common * scale
        g = gcd(den, *acc.values())
        nums = {e: a // g for e, a in acc.items() if a}
        den //= g
    return nums, den


def _symbol_sort_key(e: tuple[int, ...]):
    return (sum(e), tuple(-x for x in e))


@dataclass
class MomentSystem:
    """v(n+1) = transition * v(n) over E[symbol] coordinates.

    `transition[i]` lists the nonzero (column, coefficient) pairs of row i.
    Symbol 0 is the constant moment E[1], whose row is the unit row; the
    initial vector holds each symbol evaluated at the init state.

    The iteration runs in ints: with D the lcm of the transition's
    denominators and e that of the initial vector's, A = D * transition and
    u = e * initial are integer, and v(n) = A^n u / (e * D^n); each walk of
    `_integer_powers` starts from u.  A system keeps only `_forms`, every
    coordinate's closed form or its error once `solve_closed_form` has run,
    which does not depend on the order of calls.
    """

    symbols: list[tuple[int, ...]]
    transition: list[list[tuple[int, Fraction]]]
    initial: list[Fraction]
    _index: dict[tuple[int, ...], int] = field(init=False, repr=False)
    _forms: list | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {e: i for i, e in enumerate(self.symbols)}
        self._forms = None

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: tuple[int, ...]) -> int:
        return self._index[tuple(symbol)]

    def _integer_powers(self) -> Iterator[tuple[int, list[int]]]:
        """(e * D^n, A^n u) for n = 0, 1, ...: the moment vector after n
        iterations as integers over one denominator."""
        d = lcm(*(a.denominator for row in self.transition for _, a in row))
        den = lcm(*(x.denominator for x in self.initial))
        rows = [[(j, a.numerator * (d // a.denominator)) for j, a in row] for row in self.transition]
        vec = [x.numerator * (den // x.denominator) for x in self.initial]
        while True:
            yield den, vec
            vec, den = [sum(a * vec[j] for j, a in row) for row in rows], den * d

    def vector_at(self, n: int) -> list[Fraction]:
        """Moment vector after n iterations (sparse power iteration)."""
        if n < 0:
            raise ValueError("defined for n >= 0")
        den, vec = next(islice(self._integer_powers(), n, None))
        return [Fraction(x, den) for x in vec]


def moment_closure(
    loop: LoopProgram,
    targets: list[tuple[int, ...]],
    budget: int = DEFAULT_CLOSURE_BUDGET,
) -> MomentSystem:
    """Close `targets` (plus E[1]) under the expectation transformer.

    Symbols are lifted lowest total degree first, so growing degrees fill
    the budget with cheap lifts before the costly high ones.

    Raises ClosureBudgetExceeded when the closure does not stabilize within
    `budget` symbols, which signals that some moment degree keeps growing
    and the loop sits outside the linear-recurrence-moment class.
    """
    if not targets:
        raise ValueError("at least one target moment required")
    ring = loop.variables
    unit = mono_one(ring.arity)
    symbols: set[tuple[int, ...]] = {unit, *map(tuple, targets)}
    work = sorted((sum(e), e) for e in symbols)  # a heap, lowest degree first
    lifted: dict[tuple[int, ...], tuple[dict, int]] = {}
    statements = _statements(loop)  # shared by every symbol's lift
    while work:
        _, sym = heappop(work)
        # every discovered symbol waits in `work`, so this sees each growth
        if len(symbols) > budget:
            raise ClosureBudgetExceeded(
                f"moment closure exceeded {budget} symbols; "
                "monomial degrees keep growing under lifting"
            )
        nums, _ = lifted[sym] = _lift(statements, {sym: 1}, 1)
        for e in nums:
            if e not in symbols:
                symbols.add(e)
                heappush(work, (sum(e), e))

    ordered = sorted(symbols, key=_symbol_sort_key)
    assert ordered[0] == unit
    index = {e: i for i, e in enumerate(ordered)}
    transition = [
        [(index[e], Fraction(c, den)) for e, c in nums.items()] for nums, den in map(lifted.get, ordered)
    ]
    at_init = _memo(Fraction(1), loop.init)
    initial = [_image(at_init, _used(sym)) for sym in ordered]
    return MomentSystem(ordered, transition, initial)


def degree_targets(ring: VarRing, max_degree: int) -> list[tuple[int, ...]]:
    """All monomials of total degree 1..max_degree, in symbol order."""
    if max_degree < 1:
        raise ValueError("degree must be at least 1")
    out: list[tuple[int, ...]] = []
    variables = range(ring.arity)
    for d in range(1, max_degree + 1):
        # each multiset of d variables, as its count of each variable
        combos = combinations_with_replacement(variables, d)
        out.extend(sorted((tuple(map(c.count, variables)) for c in combos), key=_symbol_sort_key))
    return out
