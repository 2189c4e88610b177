from fractions import Fraction as Q
from itertools import islice
from math import prod

import pytest

from loopideal import LRSInstance, P2PInstance, parse_loop, simulate
from loopideal.loops import lrs_terms

TWO_WALKS = """\
vars: x, y
init: x = 0; y = 0
body:
  x = x + 2 [1/2] x - 1
  y = y + 1 [1/2] y - 2
"""

SYMMETRIC_WALK = """\
vars: x
init: x = 0
body:
  x = x + 1 [1/2] x - 1
"""

XY_SYSTEM = """\
vars: x, y
init: x = 0; y = 0
body:
  (x, y) = (x + 2, y + 3)
"""


def vector_at(system, n):
    """The moment vector of `system` after n iterations, read off its
    integer power iteration."""
    den, vec = next(islice(system._integer_powers(), n, None))
    return [Q(x, den) for x in vec]


@pytest.fixture
def two_walks():
    """Two independent asymmetric random walks from the origin."""
    return parse_loop(TWO_WALKS)


@pytest.fixture
def symmetric_walk():
    return parse_loop(SYMMETRIC_WALK)


@pytest.fixture
def xy_system():
    """Deterministic system x += 2, y += 3 used by the reachability tests."""
    return parse_loop(XY_SYSTEM)


@pytest.fixture
def lrs_order3():
    """u(n+3) = 2u(n+2) - 2u(n+1) - 12u(n); u = 2, -3, 3; first zero at n=5."""
    return LRSInstance.from_json({"coeffs": ["2", "-2", "-12"], "init": ["2", "-3", "3"]})


@pytest.fixture
def reach_46(xy_system):
    return P2PInstance(xy_system, (Q(4), Q(6)))


@pytest.fixture
def reach_57(xy_system):
    return P2PInstance(xy_system, (Q(5), Q(7)))


def _witness_violations(loop, lrs, horizon):
    """Both witness identities of `loop` against u at every n <= horizon.

    Simulates the loop and recomputes s_i(n) = prod_{l<n} x0(l) *
    prod_{l<i} x_l(n) from its states; the violations are listed in the
    order and form `verify_witness_identities` reports them.
    """
    k = lrs.order
    states = simulate(loop, horizon)
    u = list(islice(lrs_terms(lrs), horizon + k))
    found = []
    for n, st in enumerate(states):
        for i in range(k):
            xi, si = st[i], st[k + i]
            s_direct = prod(before[0] for before in states[:n]) * prod(st[:i])
            if xi != si * u[n + i]:
                found.append(
                    {"n": n, "i": i, "identity": "value", "lhs": str(xi),
                     "rhs": str(si * u[n + i])}
                )
            if si != s_direct:
                found.append(
                    {"n": n, "i": i, "identity": "product", "lhs": str(si),
                     "rhs": str(s_direct)}
                )
    return tuple(found)


@pytest.fixture
def witness_reference():
    """The witness identities checked by simulation alone, independent of
    `verify_witness_identities`: (loop, lrs, horizon) -> violations."""
    return _witness_violations
