"""Batch command-line front end: files in, JSON or text out.

All rationals are printed exactly, never as decimals, and integers in
full at any length; results go to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import MonomialOrder, VarRing, parse_rational, poly_parse
from .errors import ParseError, ToolkitError
from .groebner import DEFAULT_BUDGET, IdealBasis, buchberger, ideal_member
from .loops import (
    LoopProgram,
    LRSInstance,
    enumerate_distribution,
    format_loop,
    parse_loop,
    simulate,
)
from .reductions import (
    P2PInstance,
    detect_eventual_zero,
    p2p_to_spinv,
    skolem_to_p2p,
    skolem_to_spinv_direct,
    verify_witness_identities,
)
from .relations import closed_forms, empirical_relations, moment_invariant_ideal


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason}", exc.start) from None


def _load_loop(path: str) -> LoopProgram:
    return parse_loop(_read(path))


def _load_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad JSON: {exc.msg}", exc.pos) from None


def _load_lrs(path: str) -> LRSInstance:
    return LRSInstance.from_json(_load_json(path))


def _load_basis(path: str) -> IdealBasis:
    return IdealBasis.from_json(_load_json(path))


def _order_for(ring: VarRing, args) -> MonomialOrder | None:
    """The order the flags ask for (degrevlex if only --var-order), or None."""
    kind, var_order = getattr(args, "order", None), getattr(args, "var_order", None)
    if kind is None and not var_order:
        return None
    priority = None
    if var_order:
        low_to_high = [nm.strip() for nm in var_order.split("<")]
        priority = list(reversed(low_to_high))
    try:
        return MonomialOrder(kind or "degrevlex", ring, priority)
    except ValueError as exc:
        raise ParseError(f"--var-order: {exc}") from None


def _reduced(basis: IdealBasis, args) -> IdealBasis:
    """The reduced basis of `basis` in the flags' order, else in its own."""
    order = _order_for(basis.ring, args)
    if order is None and basis.reduced:
        return basis
    return buchberger(list(basis.generators), order or basis.order, args.budget)


def _emit(args, payload: dict, text: str) -> int:
    print(json.dumps(payload, indent=2, sort_keys=False) if args.format == "json" else text)
    return 0


def _emit_basis(args, basis: IdealBasis) -> int:
    payload = basis.to_json()
    return _emit(args, payload, "\n".join(payload["generators"]) or "<0>")


# -- command handlers ---------------------------------------------------------

def _cmd_invariants(args) -> int:
    loop = _load_loop(args.loop)
    basis = _reduced(moment_invariant_ideal(loop, args.degree, budget=args.budget), args)
    return _emit_basis(args, basis)


def _cmd_closed_forms(args) -> int:
    mring, forms = closed_forms(_load_loop(args.loop), args.degree)
    payload = {"forms": []}
    lines = []
    for sym, form in zip(mring.symbols, forms):
        name = mring.name_of(sym)
        payload["forms"].append({"symbol": name, **form.to_json()})
        lines.append(f"{name} = {form.format()}")
    return _emit(args, payload, "\n".join(lines))


def _cmd_simulate(args) -> int:
    loop = _load_loop(args.loop)
    names = loop.variables.names
    states = [[str(v) for v in st] for st in simulate(loop, args.horizon)]
    payload = {"variables": list(names), "states": states}
    lines = [
        f"n={n}: " + ", ".join(f"{nm}={v}" for nm, v in zip(names, st))
        for n, st in enumerate(states)
    ]
    return _emit(args, payload, "\n".join(lines))


def _cmd_distribution(args) -> int:
    loop = _load_loop(args.loop)
    support = [
        {"state": [str(v) for v in st], "probability": str(pr)}
        for st, pr in sorted(enumerate_distribution(loop, args.horizon).items())
    ]
    payload = {"variables": list(loop.variables.names), "support": support}
    lines = [
        "(" + ", ".join(item["state"]) + f") with probability {item['probability']}"
        for item in support
    ]
    return _emit(args, payload, "\n".join(lines))


def _cmd_groebner(args) -> int:
    return _emit_basis(args, _reduced(_load_basis(args.ideal), args))


def _cmd_member(args) -> int:
    basis = _reduced(_load_basis(args.ideal), args)
    p = poly_parse(args.poly, basis.ring)
    member = ideal_member(p, basis)
    return _emit(args, {"member": member}, "yes" if member else "no")


def _cmd_reduce_skolem_p2p(args) -> int:
    p2p = skolem_to_p2p(_load_lrs(args.lrs))
    sys.stdout.write(format_loop(p2p.system))
    return 0


def _cmd_reduce_p2p_spinv(args) -> int:
    system = _load_loop(args.loop)
    target = tuple(parse_rational(v) for v in args.target.split(","))
    loop = p2p_to_spinv(P2PInstance(system, target))
    sys.stdout.write(format_loop(loop))
    return 0


def _cmd_reduce_skolem_spinv(args) -> int:
    loop = skolem_to_spinv_direct(_load_lrs(args.lrs))
    sys.stdout.write(format_loop(loop))
    return 0


def _cmd_detect_zero(args) -> int:
    hit = detect_eventual_zero(_reduced(_load_basis(args.ideal), args))
    return _emit(
        args,
        {"eventual_zero_at": hit},
        "absent" if hit is None else f"zero from iteration {hit}",
    )


def _cmd_verify_witness(args) -> int:
    report = verify_witness_identities(_load_lrs(args.lrs), args.horizon)
    text = (
        f"horizon {report.horizon}: {len(report.violations)} violations, "
        f"first zero {report.first_zero}"
    )
    return _emit(args, report.to_json(), text)


def _cmd_empirical(args) -> int:
    loop = _load_loop(args.loop)
    states = simulate(loop, args.horizon)
    table = [
        [st[j] for st in states] for j in range(loop.variables.arity)
    ]
    basis = _reduced(empirical_relations(table, loop.variables, args.degree, args.budget), args)
    return _emit_basis(args, basis)


_COMMANDS = {
    "invariants": (_cmd_invariants, ("loop", "degree", "order", "budget")),
    "closed-forms": (_cmd_closed_forms, ("loop", "degree")),
    "simulate": (_cmd_simulate, ("loop", "horizon")),
    "distribution": (_cmd_distribution, ("loop", "horizon")),
    "groebner": (_cmd_groebner, ("ideal", "order", "budget")),
    "member": (_cmd_member, ("ideal", "poly", "budget")),
    "reduce-skolem-p2p": (_cmd_reduce_skolem_p2p, ("lrs",)),
    "reduce-p2p-spinv": (_cmd_reduce_p2p_spinv, ("loop", "target")),
    "reduce-skolem-spinv": (_cmd_reduce_skolem_spinv, ("lrs",)),
    "detect-zero": (_cmd_detect_zero, ("ideal", "order", "budget")),
    "verify-witness": (_cmd_verify_witness, ("lrs", "horizon")),
    "empirical": (_cmd_empirical, ("loop", "degree", "horizon", "order", "budget")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopideal",
        description="Strongest polynomial (moment) invariants of unguarded loops, "
        "plus the reductions connecting recurrence zero-testing, reachability, "
        "and invariant synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        if "loop" in flags:
            p.add_argument("--loop", required=True, help="loop DSL file")
        if "lrs" in flags:
            p.add_argument("--lrs", required=True, help="recurrence JSON file")
        if "ideal" in flags:
            p.add_argument("--ideal", required=True, help="ideal JSON file")
        if "poly" in flags:
            p.add_argument("--poly", required=True, help="polynomial text")
        if "target" in flags:
            p.add_argument("--target", required=True, help="comma-separated rationals")
        if "degree" in flags:
            p.add_argument("--degree", type=int, default=1)
        if "horizon" in flags:
            p.add_argument("--horizon", type=int, default=20)
        if "order" in flags:
            p.add_argument("--order", choices=("lex", "degrevlex"))
            p.add_argument(
                "--var-order",
                help="variable order, lowest first, e.g. 'g<f<y<x'",
            )
        if "budget" in flags:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


# parsing leaves a parser as it was, so one serves every call of `main`
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler = _COMMANDS[args.command][0]
    # exact results are printed in full, however many digits they have;
    # Python 3.10.0-3.10.6 has no digit limit to lift
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for flag, least in (("degree", 1), ("horizon", 0), ("budget", 0)):
            if getattr(args, flag, least) < least:
                raise ParseError(f"--{flag} must be at least {least}")
        return handler(args)
    except ToolkitError as exc:
        print(json.dumps({"error": exc.name, "detail": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
