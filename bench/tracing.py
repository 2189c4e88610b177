"""Spans and counts around the public functions of each loopideal module.

The tracer wraps functions from outside: every module of the package that
binds a traced function (the defining module, and callers that imported it
by name, such as `groebner.multivariate_divide` or `relations.eliminate`)
gets the wrapper, and `installed` restores the originals on exit.  Spans
(name, start, end, parent span, job) and counts stay in memory until the
run writes them out.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SPANNED = {
    "cli": ("main",),
    "loops": ("parse_loop", "simulate", "enumerate_distribution"),
    "moments": ("moment_closure",),
    "cfinite": ("solve_closed_form", "minimal_recurrence", "rational_roots"),
    "linalg": ("solve", "rref", "nullspace"),
    "relations": ("moment_invariant_ideal", "relations_ideal", "empirical_relations"),
    "groebner": ("buchberger", "eliminate", "ideal_intersect", "ideal_member", "ideal_equal"),
    "algebra": ("multivariate_divide",),
    "reductions": (
        "p2p_to_spinv",
        "skolem_to_spinv_direct",
        "verify_witness_identities",
        "detect_eventual_zero",
    ),
}


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


# Counts taken inside a span once the wrapped call has returned:
# hook(tracer, parent span name, args, result).
def _count_divide(t, parent, args, result):
    p, divisors, _ = args
    t.counts["algebra.multivariate_divide.terms_in"] += len(p.terms)
    if parent == "groebner.buchberger":
        # the divisor list is the basis built so far
        t.counts["groebner.buchberger.divisions"] += 1
        t.counts["groebner.buchberger.nonzero_remainders"] += bool(result[1].terms)
        t.maximum("groebner.buchberger.max_basis", len(divisors))


def _count_buchberger(t, parent, args, result):
    bits = (_bits(q) for g in result.generators for q in g.terms.values())
    t.maximum("groebner.basis_max_coeff_bits", max(bits, default=0))


def _count_eliminate(t, parent, args, result):
    if parent == "relations.relations_ideal":
        # the tail ideal's auxiliaries: counter, one per base magnitude, sign
        t.counts["relations.aux_vars"] += len(args[1])


def _count_rref(t, parent, args, result):
    rows = args[0]
    t.counts["linalg.rref.cells"] += len(rows) * len(rows[0]) if rows else 0


def _count_simulate(t, parent, args, result):
    t.counts["loops.simulate.states"] += len(result)


def _count_enumerate(t, parent, args, result):
    t.counts["loops.enumerate_distribution.support"] += len(result)


def _count_closure(t, parent, args, result):
    t.counts["moments.moment_closure.symbols"] += result.size


def _count_recurrence(t, parent, args, result):
    t.counts["cfinite.minimal_recurrence.order_sum"] += result.degree


def _count_roots(t, parent, args, result):
    t.maximum("cfinite.rational_roots.max_coeff_bits", max(map(_bits, args[0].coeffs), default=0))


HOOKS = {
    "loops.simulate": _count_simulate,
    "loops.enumerate_distribution": _count_enumerate,
    "moments.moment_closure": _count_closure,
    "cfinite.minimal_recurrence": _count_recurrence,
    "cfinite.rational_roots": _count_roots,
    "linalg.rref": _count_rref,
    "groebner.buchberger": _count_buchberger,
    "groebner.eliminate": _count_eliminate,
    "algebra.multivariate_divide": _count_divide,
}
COUNTS = (
    "loops.simulate.states",
    "loops.enumerate_distribution.support",
    "moments.moment_closure.symbols",
    "cfinite.minimal_recurrence.order_sum",
    "cfinite.rational_roots.max_coeff_bits",
    "linalg.rref.cells",
    "relations.aux_vars",
    "groebner.buchberger.max_basis",
    "groebner.buchberger.divisions",
    "groebner.buchberger.nonzero_remainders",
    "groebner.basis_max_coeff_bits",
    "algebra.multivariate_divide.terms_in",
)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or None, job index]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.current: int | None = None
        self.job: int | None = None
        self.enabled = True

    def maximum(self, key: str, value) -> None:
        self.counts[key] = max(self.counts[key], value)

    def start_job(self, job: int) -> None:
        self.job = job
        self.current = None

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.current
            parent_name = spans[parent][0] if parent is not None else None
            span = [name, 0.0, 0.0, parent, self.job]
            self.current = len(spans)
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook:
                    hook(self, parent_name, args, result)
                return result
            finally:
                span[2] = perf_counter()
                self.current = parent

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        package = [
            mod
            for name, mod in sys.modules.items()
            if name == "loopideal" or name.startswith("loopideal.")
        ]
        patched = []
        for short, names in SPANNED.items():
            home = sys.modules[f"loopideal.{short}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, job]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """calls and self_s per traced function, the counts, and the ratios."""
    out: dict = {}
    for short, names in SPANNED.items():
        for fn_name in names:
            out[f"{short}.{fn_name}.calls"] = 0
            out[f"{short}.{fn_name}.self_s"] = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        out[f"{span[0]}.calls"] += 1
        out[f"{span[0]}.self_s"] += own
    out.update({key: tracer.counts[key] for key in COUNTS})
    divisions = tracer.counts["groebner.buchberger.divisions"]
    useful = tracer.counts["groebner.buchberger.nonzero_remainders"]
    out["algebra.multivariate_divide.nonzero_ratio"] = useful / divisions if divisions else 0.0
    return out
