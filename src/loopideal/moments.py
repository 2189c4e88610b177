"""Moment closure: from a probabilistic loop to a linear moment recurrence.

Expectations of monomials in program variables are closed under the loop's
one-step expectation transformer whenever lifting stays inside a finite
monomial set; the transition matrix of that set drives every closed form
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import Polynomial, VarRing, mono_one, mono_value
from .errors import ClosureBudgetExceeded
from .loops import LoopProgram

DEFAULT_CLOSURE_BUDGET = 5_000


def lift_polynomial_expectation(loop: LoopProgram, p: Polynomial) -> Polynomial:
    """One-step expectation transformer.

    Returns q with E[p(state after one iteration) | state s] = q(s).
    Assignments are folded in reverse order; a probabilistic assignment
    contributes the probability-weighted sum of its branch substitutions.
    """
    for stmt in reversed(loop.body):
        acc = Polynomial.zero(loop.variables)
        for pr, exprs in stmt.branches:
            mapping = {nm: e for nm, e in zip(stmt.targets, exprs)}
            acc = acc + p.substitute(mapping) * pr
        p = acc
    return p


def _symbol_sort_key(e: tuple[int, ...]):
    return (sum(e), tuple(-x for x in e))


@dataclass
class MomentSystem:
    """v(n+1) = transition * v(n) over E[symbol] coordinates.

    `transition[i]` lists the nonzero (column, coefficient) pairs of row i.
    Symbol 0 is the constant moment E[1], whose row is the unit row; the
    initial vector holds each symbol evaluated at the init state.
    """

    symbols: list[tuple[int, ...]]
    transition: list[list[tuple[int, Fraction]]]
    initial: list[Fraction]
    _cache: list[list[Fraction]] = field(init=False, repr=False)
    _index: dict[tuple[int, ...], int] = field(init=False, repr=False)

    def __post_init__(self):
        self._cache = [list(self.initial)]
        self._index = {e: i for i, e in enumerate(self.symbols)}

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: tuple[int, ...]) -> int:
        return self._index[tuple(symbol)]

    def vector_at(self, n: int) -> list[Fraction]:
        """Moment vector after n iterations (cached sparse power iteration)."""
        while len(self._cache) <= n:
            prev = self._cache[-1]
            nxt = [
                sum((a * prev[j] for j, a in row), Fraction(0))
                for row in self.transition
            ]
            self._cache.append(nxt)
        return self._cache[n]


def moment_closure(
    loop: LoopProgram,
    targets: list[tuple[int, ...]],
    budget: int = DEFAULT_CLOSURE_BUDGET,
) -> MomentSystem:
    """Close `targets` (plus E[1]) under the expectation transformer.

    Raises ClosureBudgetExceeded when the closure does not stabilize within
    `budget` symbols, which signals that some moment degree keeps growing
    and the loop sits outside the linear-recurrence-moment class.
    """
    if not targets:
        raise ValueError("at least one target moment required")
    ring = loop.variables
    unit = mono_one(ring.arity)
    work = [unit] + [tuple(t) for t in targets]
    symbols: set[tuple[int, ...]] = set(work)
    lifted: dict[tuple[int, ...], Polynomial] = {}
    while work:
        sym = work.pop()
        # every discovered symbol waits in `work`, so this sees each growth
        if len(symbols) > budget:
            raise ClosureBudgetExceeded(
                f"moment closure exceeded {budget} symbols; "
                "monomial degrees keep growing under lifting"
            )
        q = lift_polynomial_expectation(loop, Polynomial.monomial(ring, sym))
        lifted[sym] = q
        for e in q.terms:
            if e not in symbols:
                symbols.add(e)
                work.append(e)

    ordered = sorted(symbols, key=_symbol_sort_key)
    assert ordered[0] == unit
    index = {e: i for i, e in enumerate(ordered)}
    transition = [
        [(index[e], c) for e, c in lifted[sym].terms.items()] for sym in ordered
    ]
    initial = [mono_value(sym, loop.init) for sym in ordered]
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
