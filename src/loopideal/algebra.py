"""Exact sparse multivariate polynomial arithmetic over the rationals.

Values change after construction only in memos whose entries depend on
their keys alone, and all operations are pure, so polynomials can be shared
freely, also between threads.  Coefficients are `fractions.Fraction` (always
in lowest terms, positive denominator) everywhere except inside
`_reduce`, the one reduction loop, shared by `multivariate_divide` and
`groebner.buchberger`, which runs on Python ints: integer numerators over
one running denominator, reduced by primitive integer polynomials
(`_primitive_form`, memoized per layout), and returns the terms it keeps
as (numerator, denominator) pairs.  No floating point appears anywhere.
Monomials are plain exponent tuples, one entry per ring variable, except
inside the kernel, where each is one int (`Layout`): packed exponent
fields below the order key, so that a product is one addition, a
divisibility test one subtraction and one AND, and a comparison one int
comparison.  Each monomial's value at a point (`eval`, so `substitute`,
`mono_value`, the moment lift) is one memoized `_image`, split by variables.
A `MonomialOrder` is built once, plain or as a block order for elimination,
and `Polynomial.project` is the one change of ring.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add, itemgetter, le, mul
from typing import Iterable, Mapping

from .errors import ArityMismatch, ParseError, UnknownVariable

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_MOMENT_RE = re.compile(r"E\[[^\[\]]+\]")
# p^k for a p of T > 1 terms has up to C(T - 1 + k, k) terms, with coefficients
# up to k times p's `_words`, and p*q up to len(p)*len(q) terms.  One parse is
# charged those term bounds times k, or times the longer words, for each '^' and
# '*' it expands, and a one-term p^k its coefficient's words; it stops past this.
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
    return Fraction(_image(_memo(Fraction(1), point), _used(e)))


def _used(e: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Monomial e as its used (variable, exponent) pairs: an `_image` key."""
    return tuple(filter(itemgetter(1), enumerate(e)))


def _memo(one, point) -> dict:
    """A memo of monomial images for `_image`, seeded with the value `one`
    of 1 and point[i] of variable i: numbers, or polynomials of one ring."""
    return {(): one} | {((i, 1),): x for i, x in enumerate(point)}


def _image(memo: dict, m: tuple[tuple[int, int], ...]):
    """The value of monomial m (see `_used`) at the point `memo` was seeded
    from: the product of the memoized images of m's first half of its used
    variables and of the rest, log2(len(m)) calls deep, and x^k is x `** k`."""
    q = memo.get(m)
    if q is None:
        if len(m) > 1:
            q = _image(memo, m[: len(m) // 2]) * _image(memo, m[len(m) // 2 :])
        else:
            ((i, k),) = m
            q = memo[((i, 1),)] ** k
        memo[m] = q
    return q


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
    highest to lowest.  A nonempty `drop` makes it the block order for
    eliminating those variables that `eliminating` describes.

    A key is a flat tuple of ints, so keys compare as plain tuples; each
    entry is linear in the exponents, which `Layout` packs into one int.
    Basis work compares those ints, so a key is computed afresh on each
    call; only the layout of each width is memoized.
    """

    __slots__ = (
        "kind", "ring", "priority", "drop", "_hash", "_top_rev", "_low_idx", "_layouts",
    )

    def __init__(
        self, kind: str, ring: VarRing, priority: Iterable[str] | None = None, drop: Iterable[str] = ()
    ):
        if kind not in ("lex", "degrevlex"):
            raise ValueError(f"unknown order kind {kind!r}")
        prio = tuple(priority) if priority is not None else ring.names
        if sorted(prio) != sorted(ring.names):
            raise ValueError("priority must be a permutation of the ring variables")
        drop = frozenset(drop)
        for nm in drop:
            ring.index(nm)
        self.kind, self.ring, self.priority, self.drop = kind, ring, prio, drop
        self._hash = hash((kind, ring, prio, drop))
        # the top block, lowest variable first, and the rest: lex highest
        # first, degrevlex lowest first
        self._top_rev = tuple(ring.index(nm) for nm in reversed(prio) if nm in drop)
        low = [ring.index(nm) for nm in prio if nm not in drop]
        self._low_idx = tuple(low if kind == "lex" else reversed(low))
        self._layouts: dict[int, Layout] = {}

    def key(self, e: tuple[int, ...]) -> tuple[int, ...]:
        if self.kind == "lex":
            low = tuple([e[i] for i in self._low_idx])
        else:
            low = _grevlex(e, self._low_idx)
        return (*_grevlex(e, self._top_rev), *low) if self.drop else low

    def layout(self, width: int) -> "Layout":
        """The packed monomials of this order at field width `width`, memoized."""
        lay = self._layouts.get(width)
        if lay is None:
            lay = self._layouts[width] = Layout(self, width)
        return lay

    def eliminating(self, drop: Iterable[str]) -> "MonomialOrder":
        """Block order for eliminating the variables in `drop`.

        The dropped variables form a top block compared by degrevlex in
        priority order, so any monomial containing one is larger than every
        monomial free of them.  The rest compare by this order's kind and
        priority, i.e. exactly as `restricted` to them.
        """
        drop = frozenset(drop)
        return self if drop == self.drop else MonomialOrder(self.kind, self.ring, self.priority, drop)

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
    `_division` memoize, per layout, the integer form the division kernel
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
        """One term in one step, else square-and-multiply from self: int coefficients stay int."""
        if k < 0:
            raise ValueError("negative exponent")
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return Polynomial._make(self.ring, {tuple(x * k for x in e): c**k})
        out = self if k else Polynomial.const(self.ring, 1)
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.ring, other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        c = self.terms.get(mono_one(self.ring.arity), 0)
        if len(self.terms) == (c != 0):
            # a constant equals its value, so it hashes as its value
            return hash(c)
        return hash((self.ring, frozenset(self.terms.items())))

    # -- evaluation & substitution ----------------------------------------

    def eval(self, point) -> "Fraction | Polynomial":
        """The value at `point`, one value per ring variable.

        The values may be numbers or polynomials of one ring; one `_image`
        memo serves every term, so each shared power is computed once.
        """
        point = tuple(point)
        if len(point) != self.ring.arity:
            raise ArityMismatch(
                f"point arity {len(point)} != ring arity {self.ring.arity}"
            )
        memo = _memo(Fraction(1), point)
        return sum((c * _image(memo, _used(e)) for e, c in self.terms.items()), Fraction(0))

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

    def project(self, ring: VarRing) -> "Polynomial":
        """Re-express in another ring; fails if an occurring variable is not there."""
        if ring == self.ring:
            return self
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
        return Polynomial._make(ring, terms)

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
    return re.compile(rf"\s*(?:(?P<num>\d+)|(?P<name>{name})|(?P<op>[-+*^/()\[\],])|(?P<bad>\S))")


# Over a ring with moment symbols `E[...]` such a symbol is one name token;
# elsewhere `[` opens a branch probability.
_TOKEN_RES = {False: _token_re(_NAME), True: _token_re(_NAME + r"(?:\[[^\[\]]+\])?")}


def _tokenize(text: str, bracketed: bool) -> list[tuple[str, str, int]]:
    tokens = []
    # every match is one token, so only trailing whitespace goes unmatched
    for m in _TOKEN_RES[bracketed].finditer(text):
        if m["bad"]:
            raise ParseError(f"unexpected character {m['bad']!r}", m.start("bad"))
        tokens.append((m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)))
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
        elif t:
            # a monomial's coefficient c grows to c^k, k times its bits beyond 1
            (c,) = p.terms.values()
            self.cost += -(-k * (c.numerator.bit_length() + c.denominator.bit_length() - 2) // 64)
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


# -- the division kernel on packed monomials -----------------------------------


class _Overflow(Exception):
    """A monomial the kernel formed has an exponent too wide for its layout."""


class Layout:
    """Monomials of one order as single ints, with fields of `width` bits.

    A monomial e is the int K * 2**pbits + P.  P holds e[i] in the field at
    bit i * width, whose top bit is a guard that every valid monomial keeps
    clear.  K is the order key as one signed int: `order.key` is linear in
    the exponents, and each of its entries is a digit of K in a power-of-two
    base above four times the largest entry any valid monomial has, so K
    compares as the key does, and so do sums of up to four keys with signs,
    such as the signature bounds in `groebner`.  Hence:

    - the int is `sum(e[i] * units[i])`, linear in e, so the product of two
      monomials is the sum of their ints, and their quotient the difference;
    - ints compare as the monomials do in the order;
    - d divides e iff `((e | guards) - d) & guards == guards`, the field-wise
      test e[i] >= d[i], which never borrows across a field;
    - a product or sum of valid monomials is valid iff its guard bits are
      clear, since a field's carry stops at its guard bit.

    `_reduce` and `groebner.buchberger` raise `_Overflow` when a monomial
    they form has a guard bit set, and `_widened` runs the call again at
    twice the width.
    """

    __slots__ = (
        "width", "pbits", "guards", "_field_max", "_ones", "_shifts", "_units", "_packs",
        "_unpacks",
    )

    def __init__(self, order: MonomialOrder, width: int):
        n = order.ring.arity
        self.width = width
        self.pbits = n * width
        self._field_max = (1 << (width - 1)) - 1
        self._shifts = tuple(range(0, self.pbits, width))
        self._ones = sum(1 << s for s in self._shifts)
        self.guards = self._ones << (width - 1)
        rows = [order.key(tuple(int(i == j) for j in range(n))) for i in range(n)]
        largest = max(sum(map(abs, digit)) for digit in zip(*rows)) * self._field_max
        base = (4 * largest).bit_length()
        m = len(rows[0])
        self._units = tuple(
            (sum(d << base * (m - 1 - j) for j, d in enumerate(row)) << self.pbits) + (1 << s)
            for row, s in zip(rows, self._shifts)
        )
        self._packs: dict[tuple[int, ...], int] = {}
        self._unpacks: dict[int, tuple[int, ...]] = {}

    def pack(self, e: tuple[int, ...]) -> int:
        """The int of e; each exponent must fit below its field's guard bit."""
        m = self._packs.get(e)
        if m is None:
            m = self._packs[e] = sum(map(mul, e, self._units))
        return m

    def unpack(self, m: int) -> tuple[int, ...]:
        """The exponent tuple of the monomial m; `pack` inverts it."""
        e = self._unpacks.get(m)
        if e is None:
            e = self._unpacks[m] = self._exponents(m)
            self._packs[e] = m
        return e

    def _exponents(self, m: int) -> tuple[int, ...]:
        field = self._field_max
        return tuple([(m >> s) & field for s in self._shifts])

    def cofactor(self, h: int, o: int) -> int:
        """lcm(h, o) / h, as a monomial: 0 (the unit) when o divides h.

        Field i of `(o | guards) - h` is 2**(width - 1) + o[i] - h[i], so its
        guard bit is set iff o[i] >= h[i], and then the bits below it hold
        o[i] - h[i]; masking each such field gives max(o[i] - h[i], 0).
        """
        d = (o | self.guards) - h
        ge = d & self.guards
        q = d & (ge - (ge >> (self.width - 1)))
        return sum(map(mul, self._exponents(q), self._units)) if q else 0

    def support(self, m: int) -> int:
        """The guard bits of m's nonzero fields: monomials are coprime iff
        theirs do not meet."""
        return ((m | self.guards) - self._ones) & self.guards


def _widened(run, order: MonomialOrder, top: int):
    """`run(layout)` and the layout it finished on: first at the least width
    of 8, 16, 32, ... bits whose fields hold 2 * top below the guard bit, so
    that the inputs' largest exponent `top` fits with room to grow, then at
    twice the width after each `_Overflow`."""
    width = 8
    while top >> (width - 2):
        width *= 2
    while True:
        layout = order.layout(width)
        try:
            return run(layout), layout
        except _Overflow:
            width *= 2


# `_reduce` divides the work numerators and denominator by their common
# content whenever the denominator has grown this many bits since the last
# such check.
_CONTENT_BITS = 64


def _primitive_form(pairs: dict, lead) -> tuple[dict, Fraction]:
    """The coprime integer coefficients, the one at `lead` positive, of the
    polynomial `pairs` maps to (numerator, denominator), and their scale.

    No result needs the positive lead; speed does.  A negated monic
    polynomial gets lc = 1, not -1, and `_reduce` rescales all of `work`
    for each term it cancels by a reducer whose lc is not 1.
    """
    den = lcm(*(d for _, d in pairs.values()))
    ints = {e: n * (den // d) for e, (n, d) in pairs.items()}
    content = gcd(*ints.values())
    if ints[lead] < 0:
        content = -content
    return {e: c // content for e, c in ints.items()}, Fraction(content, den)


def _top(d: Polynomial) -> int:
    """The largest exponent in d, memoized with d's divisor forms."""
    memo = d._division
    if memo is None:
        memo = d._division = {}
    top = memo.get(None)
    if top is None:
        top = memo[None] = max(map(max, d.terms), default=0)
    return top


def _divisor_data(d: Polynomial, layout: Layout) -> tuple:
    """Lead monomial, lead coefficient, tail and scale of d as a divisor,
    on `layout`'s packed monomials.

    The integer form is `_primitive_form` with d's lead positive:
    d == (num / den) * (lc * x^lead + sum(tc * x^te)), where the ints lc > 0
    and tc have no common factor and (num, den) is in lowest terms; the tail
    is a list of (te, tc).  Every exponent of d must fit the layout
    (`_top`).  Memoized on d per layout, since Buchberger divides by the
    same basis elements over and over.
    """
    memo = d._division
    if memo is None:
        memo = d._division = {}
    data = memo.get(layout)
    if data is None:
        if not d.terms:
            raise ValueError("zero divisor")
        pack = layout.pack
        pairs = {pack(e): c.as_integer_ratio() for e, c in d.terms.items()}
        lead = max(pairs)
        ints, scale = _primitive_form(pairs, lead)
        lc = ints.pop(lead)
        tail = list(ints.items())
        data = memo[layout] = (lead, lc, tail, *scale.as_integer_ratio())
    return data


def _reduce(work: dict, guards: int, pick) -> dict:
    """Reduce `work`, the integer terms of a polynomial keyed by packed
    monomials (`Layout`), by the reducers `pick` chooses: the remainder
    terms kept, largest first, each mapped to the pair (numerator,
    denominator) of its coefficient; {} when nothing remains.

    The largest remaining term e goes first.  `pick(e)` returns a reducer
    whose first entries are (lead, lc, tail, sink): a primitive integer
    polynomial lc * x^lead + sum(tc * x^te) with lc > 0 and lead dividing
    e, its tail a list of (te, tc), and a dict or None; or None to keep e
    in the remainder.  A heap of negated monomials finds that term; a term
    cancelled meanwhile has no entry left in `work` and is skipped.  Each
    monomial new to `work` is checked against the layout's `guards`, and
    `_Overflow` is raised if it has outgrown its fields.

    The loop runs on ints.  The polynomial is `work / den`, integer
    numerators over one running denominator that starts at 1.  Cancelling
    a term w against lc scales `work` and `den` by lc / gcd(w, lc) when that
    is not 1, then subtracts integer multiples of the tail; the common
    content of `work` and `den` is divided out as `den` grows.  The
    multiplier w / den of the reducer shifted by `shift` goes to
    sink[shift] as the pair (w, den) when the sink is a dict.
    """
    heap = [-e for e in work]
    heapify(heap)
    den = 1
    content_at = _CONTENT_BITS
    remainder: dict[int, tuple[int, int]] = {}
    while heap:
        e = -heappop(heap)
        w = work.pop(e, None)
        if w is None:
            continue
        r = pick(e)
        if r is None:
            remainder[e] = (w, den)
            continue
        lm, lc, tail, sink = r[:4]
        shift = e - lm
        if lc != 1:
            g = gcd(w, lc)
            m = lc // g
            w //= g
            if m != 1:
                den *= m
                work = {t: v * m for t, v in work.items()}
        if sink is not None:
            # each monomial leaves the heap once, so each shift is new
            sink[shift] = (w, den)
        for te, tc in tail:
            pe = te + shift
            old = work.get(pe)
            if old is None:
                # a guard bit set: no valid monomial, so never one in `work`
                if pe & guards:
                    raise _Overflow
                work[pe] = -w * tc
                heappush(heap, -pe)
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
                work = {t: v // g for t, v in work.items()}
            content_at = den.bit_length() + _CONTENT_BITS
    return remainder


def multivariate_divide(
    p: Polynomial, divisors: list[Polynomial], order
) -> tuple[list[Polynomial], Polynomial]:
    """Divide p by an ordered list of divisors.

    Returns (quotients, remainder) with p == sum(q_i * d_i) + r and no
    monomial of r divisible by any divisor's leading monomial.  `_reduce`
    runs on p's integer numerators over the lcm of its denominators, on
    packed monomials (`Layout`) wide enough for the largest exponent of p
    and the divisors, and gives each term to the first divisor whose
    leading monomial divides it, in the primitive integer form from
    `_divisor_data`; the divisibility test is one subtraction and one AND.  If a
    product outgrows the fields, the division runs again at twice the width
    (`_widened`).  The quotients and the remainder pairs the kernel kept
    are unpacked and become Fractions only on the way out.  p and every
    divisor must be in the order's ring (ArityMismatch).
    """
    ring = order.ring
    for q in (p, *divisors):
        if q.ring is not ring and q.ring != ring:
            raise ArityMismatch("the dividend or a divisor is not in the order's ring")
    den = lcm(*(c.denominator for c in p.terms.values()))
    top = max(map(max, p.terms), default=0)
    if divisors:
        top = max(top, *map(_top, divisors))

    def run(layout):
        pack, guards = layout.pack, layout.guards
        work = {pack(e): c.numerator * (den // c.denominator) for e, c in p.terms.items()}
        data = [_divisor_data(d, layout) for d in divisors]
        reducers = [(lead, lc, tail, {}) for lead, lc, tail, _, _ in data]

        def pick(e):
            e |= guards
            for r in reducers:
                if (e - r[0]) & guards == guards:
                    return r
            return None

        return _reduce(work, guards, pick), reducers, data

    (rem, reducers, data), layout = _widened(run, order, top)
    unpack = layout.unpack
    quotients = [
        Polynomial._make(
            ring, {unpack(e): Fraction(w * dnm, d * num * den) for e, (w, d) in r[3].items()}
        )
        for r, (_, _, _, num, dnm) in zip(reducers, data)
    ]
    return quotients, Polynomial._make(
        ring, {unpack(e): Fraction(w, d * den) for e, (w, d) in rem.items()}
    )
