"""Moment closure: from a probabilistic loop to a linear moment recurrence.

Expectations of monomials in program variables are closed under the loop's
one-step expectation transformer whenever lifting stays inside a finite
monomial set; the transition matrix of that set drives every closed form
downstream.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations_with_replacement, islice
from math import lcm

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
    return _lift(_branch_memos(loop), p.lift(loop.variables))


def _branch_memos(loop: LoopProgram) -> list[list[tuple]]:
    """Per statement, per branch: its probability and an `algebra._image`
    memo at the branch's point, each target's expression and every other
    variable itself."""
    ring = loop.variables
    one = Polynomial.const(ring, 1)
    xs = {nm: Polynomial.var(ring, nm) for nm in ring.names}
    return [
        [(pr, _memo(one, (xs | dict(zip(stmt.targets, exprs))).values())) for pr, exprs in stmt.branches]
        for stmt in loop.body
    ]


def _lift(memos: list[list[tuple]], p: Polynomial) -> Polynomial:
    """`lift_polynomial_expectation` with the branch images in `memos`."""
    for branches in reversed(memos):
        acc: dict[tuple[int, ...], Fraction] = {}
        for pr, memo in branches:
            for m, c in p.terms.items():
                w = pr * c
                for e, d in _image(memo, _used(m)).terms.items():
                    acc[e] = acc.get(e, 0) + w * d
        p = Polynomial._make(p.ring, {e: c for e, c in acc.items() if c})
    return p


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
    lifted: dict[tuple[int, ...], Polynomial] = {}
    memos = _branch_memos(loop)  # shared by every symbol's lift
    while work:
        _, sym = heappop(work)
        # every discovered symbol waits in `work`, so this sees each growth
        if len(symbols) > budget:
            raise ClosureBudgetExceeded(
                f"moment closure exceeded {budget} symbols; "
                "monomial degrees keep growing under lifting"
            )
        q = _lift(memos, Polynomial.monomial(ring, sym))
        lifted[sym] = q
        for e in q.terms:
            if e not in symbols:
                symbols.add(e)
                heappush(work, (sum(e), e))

    ordered = sorted(symbols, key=_symbol_sort_key)
    assert ordered[0] == unit
    index = {e: i for i, e in enumerate(ordered)}
    transition = [
        [(index[e], c) for e, c in lifted[sym].terms.items()] for sym in ordered
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
