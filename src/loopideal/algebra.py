"""Exact sparse multivariate polynomial arithmetic over the rationals.

Values are immutable after construction and all operations are pure, so
polynomials can be shared freely.  Coefficients are `fractions.Fraction`
(always in lowest terms, positive denominator) everywhere except inside
`multivariate_divide`, whose reduction loop runs on Python ints: integer
numerators over one running denominator, divided by primitive integer
divisors whose data each polynomial memoizes per order.  The division
tells most non-dividing leads from a term by an AND of two-bit-per-variable
divisibility masks before it compares exponents.  No floating point
appears anywhere.  Monomials are plain exponent tuples, one entry per ring
variable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add, le, neg, sub
from typing import Iterable, Mapping

from .errors import ArityMismatch, ParseError, UnknownVariable

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_MOMENT_RE = re.compile(r"E\[[^\[\]]+\]")
# p^k for a p of T > 1 terms has up to C(T - 1 + k, k) terms, with coefficients
# up to k times p's `_words`, and p*q up to len(p)*len(q) terms.  One parse is
# charged those term bounds times k, or times the longer words, for each '^'
# and '*' it expands, and stops where the sum passes this.
MAX_POWER_COST = 50_000


def _words(p: Polynomial) -> int:
    """64-bit words of p's longest coefficient, numerator and denominator."""
    bits = (c.numerator.bit_length() + c.denominator.bit_length() for c in p.terms.values())
    return -(-max(bits, default=0) // 64)


def parse_rational(text: str) -> Fraction:
    """Parse an optionally signed 'p' or 'p/q' into an exact rational."""
    parser = _Parser(text)
    q = parser.sign() * parser.rational()
    parser.end()
    return q


class VarRing:
    """An ordered tuple of distinct variable names.

    Names are plain identifiers or rendered moment symbols `E[...]`;
    `bracketed` says whether any name is a moment symbol.
    """

    __slots__ = ("names", "bracketed", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("ring needs at least one variable")
        seen = set()
        self.bracketed = False
        for nm in names:
            if _MOMENT_RE.fullmatch(nm):
                self.bracketed = True
            elif not _NAME_RE.fullmatch(nm):
                raise ValueError(f"bad variable name {nm!r}")
            if nm in seen:
                raise ValueError(f"duplicate variable {nm!r}")
            seen.add(nm)
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, VarRing) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarRing({', '.join(self.names)})"


def fresh_name(name: str, taken) -> str:
    """`name` with underscores appended until it is not in `taken`."""
    while name in taken:
        name += "_"
    return name


# -- monomial helpers (exponent tuples) -------------------------------------

def mono_one(arity: int) -> tuple[int, ...]:
    return (0,) * arity


def mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def mono_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_str(e: tuple[int, ...], ring: VarRing) -> str:
    """Render an exponent tuple as e.g. 'x^2*y'; the unit monomial is '1'."""
    parts = []
    for nm, k in zip(ring.names, e):
        if k == 1:
            parts.append(nm)
        elif k > 1:
            parts.append(f"{nm}^{k}")
    return "*".join(parts) if parts else "1"


def mono_value(e: tuple[int, ...], point) -> Fraction:
    """The monomial e evaluated at `point`, one value per ring variable."""
    v = Fraction(1)
    for x, k in zip(point, e):
        if k:
            v *= x**k
    return v


def format_terms(pairs) -> str:
    """Render (monomial text, nonzero coefficient) pairs, highest first, as
    e.g. '2*x^2 - y + 1'; the unit monomial is '1', and no pairs give '0'."""
    pieces = []
    for mono, c in pairs:
        if mono == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces) or "0"


def _grevlex(e: tuple[int, ...], rev_idx: tuple[int, ...]) -> tuple[int, ...]:
    """Graded, ties broken by the last variable with the *smaller* exponent
    winning; `rev_idx` lists the variables from lowest to highest."""
    negs = [-e[i] for i in rev_idx]
    return (-sum(negs), *negs)


class MonomialOrder:
    """A total, multiplicative, well-founded order on monomials.

    `kind` is 'lex' or 'degrevlex'; `priority` lists the ring variables from
    highest to lowest.  `eliminating(drop)` gives a block order for variable
    elimination; `drop` is empty for a plain order.

    A key is a flat tuple of ints, so keys compare as plain tuples and the
    heap key (the negated key, which a min-heap pops largest monomial
    first) is one tuple operation away.  Keys, heap keys and divisibility
    masks are memoized since the same monomials recur constantly during
    basis computations.
    """

    __slots__ = (
        "kind", "ring", "priority", "drop", "_hash", "_top_rev", "_low_idx",
        "_keys", "_heap_keys", "_masks",
    )

    def __init__(self, kind: str, ring: VarRing, priority: Iterable[str] | None = None):
        if kind not in ("lex", "degrevlex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.ring = ring
        prio = tuple(priority) if priority is not None else ring.names
        if sorted(prio) != sorted(ring.names):
            raise ValueError("priority must be a permutation of the ring variables")
        self.priority = prio
        self._split(frozenset())

    def _split(self, drop: frozenset) -> None:
        """Index tuples of the top block `drop` (degrevlex, lowest variable
        first) and of the rest (lex highest first, degrevlex lowest first)."""
        idx = [self.ring.index(nm) for nm in self.priority]
        low = [i for i in idx if self.ring.names[i] not in drop]
        self.drop = drop
        self._hash = hash((self.kind, self.ring, self.priority, drop))
        self._top_rev = tuple(i for i in reversed(idx) if self.ring.names[i] in drop)
        self._low_idx = tuple(low if self.kind == "lex" else reversed(low))
        self._keys: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._heap_keys: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._masks: dict[tuple[int, ...], int] = {}

    def _key(self, e: tuple[int, ...]) -> tuple[int, ...]:
        if self.kind == "lex":
            low = tuple([e[i] for i in self._low_idx])
        else:
            low = _grevlex(e, self._low_idx)
        return (*_grevlex(e, self._top_rev), *low) if self.drop else low

    def key(self, e: tuple[int, ...]) -> tuple[int, ...]:
        k = self._keys.get(e)
        if k is None:
            k = self._keys[e] = self._key(e)
        return k

    def heap_key(self, e: tuple[int, ...]) -> tuple[int, ...]:
        k = self._heap_keys.get(e)
        if k is None:
            k = self._heap_keys[e] = tuple(map(neg, self.key(e)))
        return k

    def mask(self, e: tuple[int, ...]) -> int:
        """Divisibility mask of e: bit 2i is set when e[i] >= 1 and bit
        2i + 1 when e[i] >= 2.  If a divides b, mask(a) & ~mask(b) == 0."""
        m = self._masks.get(e)
        if m is None:
            m = 0
            for i, k in enumerate(e):
                if k:
                    m |= (1 if k == 1 else 3) << 2 * i
            self._masks[e] = m
        return m

    def eliminating(self, drop: Iterable[str]) -> "MonomialOrder":
        """Block order for eliminating the variables in `drop`.

        The dropped variables form a top block compared by degrevlex in
        priority order, so any monomial containing one is larger than every
        monomial free of them.  The rest compare by this order's kind and
        priority, i.e. exactly as `restricted` to them.
        """
        drop = frozenset(drop)
        for nm in drop:
            self.ring.index(nm)
        if drop == self.drop:
            return self
        out = MonomialOrder(self.kind, self.ring, self.priority)
        out._split(drop)
        return out

    def restricted(self, subring: VarRing) -> "MonomialOrder":
        """The same kind and priority on a ring with a subset of the
        variables, as a plain order."""
        prio = tuple(nm for nm in self.priority if nm in subring)
        return MonomialOrder(self.kind, subring, prio)

    def to_json(self) -> dict:
        return {"kind": self.kind, "priority": list(self.priority)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.ring == other.ring
            and self.priority == other.priority
            and self.drop == other.drop
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        top = [nm for nm in self.priority if nm in self.drop]
        block = f", eliminating {','.join(top)}" if top else ""
        return f"MonomialOrder({self.kind}, {'>'.join(self.priority)}{block})"


class Polynomial:
    """A sparse multivariate polynomial with exact rational coefficients.

    `terms` maps exponent tuples to nonzero Fractions; the zero polynomial
    has an empty term map.  Instances are treated as immutable, which lets
    `_division` memoize, per order, the integer form the division kernel
    uses when the polynomial is a divisor.
    """

    __slots__ = ("ring", "terms", "_division")

    def __init__(self, ring: VarRing, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.ring = ring
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != ring.arity:
                    raise ArityMismatch(f"monomial arity {len(e)} != ring arity {ring.arity}")
                if c:
                    clean[e] = Fraction(c)
        self.terms = clean
        self._division = None

    @classmethod
    def _make(cls, ring: VarRing, terms: dict) -> "Polynomial":
        """Wrap an already clean term map (nonzero Fractions, right arity)."""
        out = cls.__new__(cls)
        out.ring, out.terms, out._division = ring, terms, None
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ring: VarRing) -> "Polynomial":
        return cls(ring)

    @classmethod
    def const(cls, ring: VarRing, c) -> "Polynomial":
        c = Fraction(c)
        return cls(ring, {mono_one(ring.arity): c} if c else {})

    @classmethod
    def var(cls, ring: VarRing, name: str) -> "Polynomial":
        e = [0] * ring.arity
        e[ring.index(name)] = 1
        return cls(ring, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, ring: VarRing, e: tuple[int, ...], c=1) -> "Polynomial":
        return cls(ring, {tuple(e): Fraction(c)})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[str]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(self.ring.names[i])
        return used

    def leading_term(self, order) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    # -- arithmetic ------------------------------------------------------

    def _require_same_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ArityMismatch("polynomials live in different rings")

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.ring, other)
        self._require_same_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial._make(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial.const(self.ring, other) - self

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            terms = {e: k * c for e, k in self.terms.items()} if c else {}
            return Polynomial._make(self.ring, terms)
        self._require_same_ring(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Polynomial._make(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative exponent")
        result = Polynomial.const(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def monic(self, order) -> "Polynomial":
        if self.is_zero():
            return self
        _, lc = self.leading_term(order)
        return self * (Fraction(1) / lc)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.ring, other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    # -- evaluation & substitution ----------------------------------------

    def eval(self, point) -> "Fraction | Polynomial":
        """The value at `point`, one value per ring variable.

        The values may be numbers or polynomials of one ring; each power
        `point[i] ** k` is computed once per call.
        """
        point = tuple(point)
        if len(point) != self.ring.arity:
            raise ArityMismatch(
                f"point arity {len(point)} != ring arity {self.ring.arity}"
            )
        total = Fraction(0)
        powers = {}
        # `mono_value` inlined: a call per term makes enumeration ~30% slower
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    x = powers.get((i, k))
                    if x is None:
                        x = powers[i, k] = point[i] ** k
                    v = v * x
            total = total + v
        return total

    def substitute(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials, fully expanded.

        All mapped polynomials must share one ring; unmapped variables must
        exist there too (so a super-ring of self.ring is allowed).
        """
        if not mapping:
            return self
        target = None
        for nm, q in mapping.items():
            self.ring.index(nm)
            if target is None:
                target = q.ring
            elif q.ring != target:
                raise ArityMismatch("substitution images live in different rings")
        assert target is not None
        images = [
            mapping[nm] if nm in mapping else Polynomial.var(target, nm)
            for nm in self.ring.names
        ]
        return Polynomial.zero(target) + self.eval(images)

    def lift(self, ring: VarRing) -> "Polynomial":
        """Re-express the polynomial in a ring containing all its variables."""
        return self if ring == self.ring else self.project(ring)

    def project(self, ring: VarRing) -> "Polynomial":
        """Re-express in another ring; fails if an occurring variable is not there."""
        idx = [ring.index(nm) if nm in ring else None for nm in self.ring.names]
        terms = {}
        for e, c in self.terms.items():
            new = [0] * ring.arity
            for i, k in enumerate(e):
                if not k:
                    continue
                if idx[i] is None:
                    raise UnknownVariable(
                        f"variable {self.ring.names[i]!r} not in target ring"
                    )
                new[idx[i]] = k
            terms[tuple(new)] = c
        return Polynomial(ring, terms)

    # -- formatting ------------------------------------------------------

    def format(self, order: MonomialOrder | None = None) -> str:
        """Canonical text: terms descending in the given (default ring) order."""
        if order is None:
            order = MonomialOrder("degrevlex", self.ring)
        return format_terms(
            (mono_str(e, self.ring), self.terms[e])
            for e in sorted(self.terms, key=order.key, reverse=True)
        )

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Polynomial({self.format()})"


# -- parsing -----------------------------------------------------------------

def _token_re(name: str) -> re.Pattern:
    return re.compile(rf"\s*(?:(?P<num>\d+)|(?P<name>{name})|(?P<op>[-+*^/()\[\],]))")


# Over a ring with moment symbols `E[...]` such a symbol is one name token;
# elsewhere `[` opens a branch probability.
_TOKEN_RES = {False: _token_re(_NAME), True: _token_re(_NAME + r"(?:\[[^\[\]]+\])?")}


def _tokenize(text: str, bracketed: bool) -> list[tuple[str, str, int]]:
    token_re = _TOKEN_RES[bracketed]
    tokens = []
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if not m or m.end() == pos:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for polynomials, rationals and loop branches.

    expr     := sign term (('+'|'-') term)*
    sign     := ('+'|'-')?
    term     := factor ('*' factor)*
    factor   := primary ('^' nat)?
    primary  := rational | name | '(' expr ')' | '-' factor
    rational := nat ('/' nat)?
    branch(k):= expr  (k == 1)  |  '(' expr (',' expr)* ')'  (k expressions)
    branches(k) := branch(k) ('[' rational ']' branch(k))* end
    """

    def __init__(self, text: str, ring: VarRing | None = None):
        self.tokens = _tokenize(text, ring is not None and ring.bracketed)
        self.i = 0
        self.ring = ring
        self.cost = 0  # the expansion charged so far, see MAX_POWER_COST

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, op: str) -> bool:
        kind, val, _ = self.tokens[self.i]
        if kind == "op" and val == op:
            self.i += 1
            return True
        return False

    def expect(self, op: str):
        if not self.accept(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])

    def end(self):
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)

    def nat(self, what: str) -> int:
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError(what, pos)
        try:
            return int(val)
        except ValueError:  # past the interpreter's int-to-string digit limit
            raise ParseError(f"number of {len(val)} digits is too long", pos) from None

    def parse(self) -> Polynomial:
        p = self.expr()
        self.end()
        return p

    def sign(self) -> int:
        if self.accept("-"):
            return -1
        self.accept("+")
        return 1

    def expr(self) -> Polynomial:
        sign = self.sign()
        p = self.term() * sign
        while True:
            if self.accept("+"):
                p = p + self.term()
            elif self.accept("-"):
                p = p - self.term()
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.accept("*"):
            pos, q = self.tokens[self.i - 1][2], self.factor()
            self.cost += len(p.terms) * len(q.terms) * max(_words(p), _words(q))
            if self.cost > MAX_POWER_COST:
                raise ParseError("product is too large to expand", pos)
            p = p * q
        return p

    def factor(self) -> Polynomial:
        p = self.primary()
        if not self.accept("^"):
            return p
        pos = self.peek()[2]
        k = self.nat("exponent must be a positive integer")
        t = len(p.terms)
        if t > 1:
            # a huge k is charged k, so that comb never runs on it
            self.cost += k if k > MAX_POWER_COST else comb(t - 1 + k, k) * k * _words(p)
            if self.cost > MAX_POWER_COST:
                raise ParseError(f"power {k} of a {t}-term polynomial is too large to expand", pos)
        return p ** k

    def primary(self) -> Polynomial:
        kind, val, pos = self.peek()
        if kind == "num":
            return Polynomial.const(self.ring, self.rational())
        self.next()
        if kind == "name":
            if val not in self.ring:
                raise UnknownVariable(f"unknown variable {val!r}")
            return Polynomial.var(self.ring, val)
        if val == "(":
            p = self.expr()
            self.expect(")")
            return p
        if val == "-":
            return -self.factor()
        raise ParseError(f"unexpected token {val!r}", pos)

    def rational(self) -> Fraction:
        num = self.nat("expected a number")
        if not self.accept("/"):
            return Fraction(num)
        pos = self.peek()[2]
        den = self.nat("denominator must be an integer")
        if den == 0:
            raise ParseError("zero denominator", pos)
        return Fraction(num, den)

    def branch(self, arity: int) -> tuple[Polynomial, ...]:
        if arity == 1:
            exprs = [self.expr()]
        else:
            if not self.accept("("):
                pos = self.peek()[2]
                raise ParseError("tuple assignment branch must be parenthesized", pos)
            exprs = [self.expr()]
            while self.accept(","):
                exprs.append(self.expr())
            self.expect(")")
        # the branch must end before its expressions are counted, so that
        # `(x + 1), y` is malformed text rather than one expression too few
        kind, val, pos = self.peek()
        if kind != "end" and val != "[":
            raise ParseError(f"unexpected token {val!r}", pos)
        if len(exprs) != arity:
            raise ArityMismatch(f"branch has {len(exprs)} expressions for {arity} targets")
        return tuple(exprs)

    def branches(self, arity: int):
        """The branches' expression tuples and the explicit probabilities
        between them."""
        exprs, probs = [self.branch(arity)], []
        while self.accept("["):
            probs.append(self.rational())
            self.expect("]")
            exprs.append(self.branch(arity))
        return exprs, probs


def poly_parse(text: str, ring: VarRing) -> Polynomial:
    """Parse polynomial text over the given ring (see the grammar above)."""
    return _Parser(text, ring).parse()


def parse_branches(
    text: str, ring: VarRing, arity: int
) -> tuple[list[tuple[Polynomial, ...]], list[Fraction]]:
    """Parse an assignment's right-hand side, `branches(arity)` above, into
    its branches' expression tuples and the explicit probabilities."""
    return _Parser(text, ring).branches(arity)


# `multivariate_divide` divides the work numerators and denominator by their
# common content whenever the denominator has grown this many bits since the
# last such check.
_CONTENT_BITS = 64


def _divisor_data(d: Polynomial, order) -> tuple:
    """Lead monomial and its mask, lead coefficient, tail and scale of d
    as a divisor.

    The integer form is the primitive part of d with a positive lead
    coefficient: d == (num / den) * (lc * x^lm + sum(tc * x^te)), where the
    ints lc > 0 and tc have no common factor and (num, den) is in lowest
    terms.
    Memoized on d per order, since Buchberger divides by the same basis
    elements over and over.
    """
    memo = d._division
    if memo is None:
        memo = d._division = {}
    data = memo.get(order)
    if data is None:
        if not d.terms:
            raise ValueError("zero divisor")
        lm, lead = d.leading_term(order)
        den = lcm(*(c.denominator for c in d.terms.values()))
        ints = {e: c.numerator * (den // c.denominator) for e, c in d.terms.items()}
        content = gcd(*ints.values())
        if lead < 0:
            content = -content
        scale = Fraction(content, den)
        tail = [(e, c // content) for e, c in ints.items() if e != lm]
        data = memo[order] = (
            lm, order.mask(lm), ints[lm] // content, tail, scale.numerator, scale.denominator
        )
    return data


def multivariate_divide(
    p: Polynomial, divisors: list[Polynomial], order
) -> tuple[list[Polynomial], Polynomial]:
    """Divide p by an ordered list of divisors.

    Returns (quotients, remainder) with p == sum(q_i * d_i) + r and no
    monomial of r divisible by any divisor's leading monomial.  The largest
    remaining term goes first, to the first divisor whose leading monomial
    divides it.  A heap of negated order keys finds that term; a term
    cancelled meanwhile has no entry left in `work` and is skipped.  A
    divisor whose lead mask (`MonomialOrder.mask`) has a bit the term's
    mask lacks cannot divide it and is passed over with one integer AND;
    the exponent comparison runs only on the rest.

    The loop runs on ints.  The work polynomial is `work / den`, integer
    numerators over one running denominator, and each divisor is its
    primitive integer form from `_divisor_data`.  Cancelling a term w
    against lead coefficient lc scales `work` and `den` by lc / gcd(w, lc)
    when that is not 1, then subtracts integer multiples of the tail; the
    common content of `work` and `den` is divided out as `den` grows.  Each
    remainder and quotient term keeps its own (numerator, denominator) and
    becomes a Fraction only on the way out.
    """
    data = [_divisor_data(d, order) for d in divisors]
    heap_key = order.heap_key
    mask = order.mask
    den = lcm(*(c.denominator for c in p.terms.values()))
    work = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    content_at = den.bit_length() + _CONTENT_BITS
    qterms: list[dict[tuple[int, ...], tuple[int, int]]] = [{} for _ in divisors]
    remainder: dict[tuple[int, ...], tuple[int, int]] = {}
    heap = [(heap_key(e), e) for e in work]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        w = work.pop(e, None)
        if w is None:
            continue
        off = ~mask(e)
        for (lm, lmask, lc, tail, num, dnm), q in zip(data, qterms):
            if not lmask & off and all(map(le, lm, e)):
                shift = tuple(map(sub, e, lm))
                m = 1
                if lc != 1:
                    g = gcd(w, lc)
                    m = lc // g
                    w //= g
                # each monomial leaves the heap once, so each shift is new
                q[shift] = (w * dnm, den * m * num)
                if m != 1:
                    den *= m
                    work = {k: v * m for k, v in work.items()}
                for te, tc in tail:
                    pe = tuple(map(add, te, shift))
                    old = work.get(pe)
                    if old is None:
                        work[pe] = -w * tc
                        heappush(heap, (heap_key(pe), pe))
                    else:
                        s = old - w * tc
                        if s:
                            work[pe] = s
                        else:
                            del work[pe]
                if den.bit_length() > content_at:
                    g = gcd(den, *work.values())
                    if g != 1:
                        den //= g
                        work = {k: v // g for k, v in work.items()}
                    content_at = den.bit_length() + _CONTENT_BITS
                break
        else:
            remainder[e] = (w, den)
    ring = p.ring
    quotients = [
        Polynomial._make(ring, {e: Fraction(n, d) for e, (n, d) in q.items()}) for q in qterms
    ]
    rem = Polynomial._make(ring, {e: Fraction(n, d) for e, (n, d) in remainder.items()})
    return quotients, rem
