import json
import sys
from fractions import Fraction as Q
from math import comb
from pathlib import Path

import pytest

from loopideal import (
    MonomialOrder,
    VarRing,
    buchberger,
    ideal_equal,
    parse_loop,
    poly_parse,
    simulate,
)
from loopideal.cli import main

WALK2 = """\
vars: x, y
init: x = 0; y = 0
body:
  x = x + 2 [1/2] x - 1
  y = y + 1 [1/2] y - 2
"""

GOLDEN = Path(__file__).parent / "golden"

LRS32 = {"coeffs": ["2", "-2", "-12"], "init": ["2", "-3", "3"]}


@pytest.fixture
def walk2_file(tmp_path):
    path = tmp_path / "walk2.loop"
    path.write_text(WALK2)
    return str(path)


@pytest.fixture
def lrs_file(tmp_path):
    path = tmp_path / "ex.json"
    path.write_text(json.dumps(LRS32))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_matches_quoted_basis(capsys, walk2_file):
    code, out, _ = _run(capsys, "invariants", "--loop", walk2_file, "--degree", "2")
    assert code == 0
    blob = json.loads(out)
    ring = VarRing(blob["ring"])
    order = MonomialOrder(blob["order"]["kind"], ring, blob["order"]["priority"])
    got = buchberger([poly_parse(t, ring) for t in blob["generators"]], order)
    expected = buchberger(
        [
            poly_parse(t, ring)
            for t in (
                "E[x^2] - E[y^2]",
                "9*E[x] - 2*E[x*y] - 2*E[y^2]",
                "E[x*y]^2 + 2*E[x*y]*E[y^2] + 81/4*E[x*y] + E[y^2]^2",
                "2*E[x*y] + 9*E[y] + 2*E[y^2]",
            )
        ],
        order,
    )
    assert ideal_equal(got, expected)


def test_invariants_deterministic_output(capsys, walk2_file):
    _, first, _ = _run(capsys, "invariants", "--loop", walk2_file, "--degree", "2")
    _, second, _ = _run(capsys, "invariants", "--loop", walk2_file, "--degree", "2")
    assert first == second


def test_reduce_skolem_p2p_round_trip(capsys, lrs_file):
    code, out, _ = _run(capsys, "reduce-skolem-p2p", "--lrs", lrs_file)
    assert code == 0
    loop = parse_loop(out)
    assert loop.init == (Q(2), Q(-6), Q(-36))
    assert parse_loop(out) == loop


def test_reduce_p2p_spinv(capsys, tmp_path):
    sys_path = tmp_path / "sys.loop"
    sys_path.write_text("vars: x, y\ninit: x = 0; y = 0\nbody:\n  (x, y) = (x + 2, y + 3)\n")
    code, out, _ = _run(
        capsys, "reduce-p2p-spinv", "--loop", str(sys_path), "--target", "4,6"
    )
    assert code == 0
    loop = parse_loop(out)
    assert loop.variables.names == ("x", "y", "f", "g")


def test_reduce_skolem_spinv(capsys, lrs_file):
    code, out, _ = _run(capsys, "reduce-skolem-spinv", "--lrs", lrs_file)
    assert code == 0
    loop = parse_loop(out)
    assert loop.variables.arity == 6


def test_simulate_missing_file_is_usage_error(capsys):
    code, _, err = _run(capsys, "simulate", "--loop", "missing.loop")
    assert code == 2
    assert "usage error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = _run(capsys, "simulate", "--nope", "x")
    assert code == 2


def test_domain_error_is_exit_1_with_json(capsys, tmp_path):
    path = tmp_path / "guarded.loop"
    path.write_text("vars: x\ninit: x = 0\nbody:\n  if x = 0\n")
    code, _, err = _run(capsys, "simulate", "--loop", str(path))
    assert code == 1
    blob = json.loads(err)
    assert blob["error"] == "GuardUnsupported"


def test_simulate_output(capsys, tmp_path):
    path = tmp_path / "det.loop"
    path.write_text(
        "vars: x, y, f, g\ninit: x = 0; y = 0; f = 1; g = 0\nbody:\n"
        "  (x, y) = (x + 2, y + 3)\n"
        "  f = f*((x - 4)^2 + (y - 6)^2)\n"
        "  g = g + 1\n"
    )
    code, out, _ = _run(capsys, "simulate", "--loop", str(path), "--horizon", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["states"][2] == ["4", "6", "0", "2"]


def test_distribution_output(capsys, tmp_path):
    path = tmp_path / "walk.loop"
    path.write_text("vars: x\ninit: x = 0\nbody:\n  x = x + 1 [1/2] x - 1\n")
    code, out, _ = _run(capsys, "distribution", "--loop", str(path), "--horizon", "2")
    assert code == 0
    blob = json.loads(out)
    probs = {tuple(e["state"]): e["probability"] for e in blob["support"]}
    assert probs == {("-2",): "1/4", ("0",): "1/2", ("2",): "1/4"}


def test_groebner_and_member(capsys, tmp_path):
    ideal_path = tmp_path / "ideal.json"
    ideal_path.write_text(
        json.dumps(
            {
                "ring": ["g", "f", "y", "x"],
                "order": {"kind": "lex", "priority": ["x", "y", "f", "g"]},
                "generators": ["x - 2*g", "y - 3*g", "g*(g-1)*f"],
            }
        )
    )
    code, out, _ = _run(capsys, "groebner", "--ideal", str(ideal_path))
    assert code == 0
    blob = json.loads(out)
    assert "x - 2*g" in blob["generators"]

    code, out, _ = _run(
        capsys, "member", "--ideal", str(ideal_path), "--poly", "g*(g-1)*f"
    )
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = _run(capsys, "member", "--ideal", str(ideal_path), "--poly", "f")
    assert code == 0 and json.loads(out)["member"] is False


def test_detect_zero_command(capsys, tmp_path):
    ideal_path = tmp_path / "ideal.json"
    ideal_path.write_text(
        json.dumps(
            {
                "ring": ["g", "f", "y", "x"],
                "order": {"kind": "lex", "priority": ["x", "y", "f", "g"]},
                "generators": ["x - 2*g", "y - 3*g", "g*(g-1)*f"],
            }
        )
    )
    code, out, _ = _run(capsys, "detect-zero", "--ideal", str(ideal_path))
    assert code == 0 and json.loads(out)["eventual_zero_at"] == 2


def test_verify_witness_command(capsys, lrs_file):
    code, out, _ = _run(
        capsys, "verify-witness", "--lrs", lrs_file, "--horizon", "15"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob == {"horizon": 15, "violations": [], "first_zero": 5}


def test_empirical_command(capsys, tmp_path):
    path = tmp_path / "det.loop"
    path.write_text(
        "vars: x, y, f, g\ninit: x = 0; y = 0; f = 1; g = 0\nbody:\n"
        "  (x, y) = (x + 2, y + 3)\n"
        "  f = f*((x - 5)^2 + (y - 7)^2)\n"
        "  g = g + 1\n"
    )
    code, out, _ = _run(
        capsys, "empirical", "--loop", str(path), "--degree", "3", "--horizon", "25"
    )
    assert code == 0
    blob = json.loads(out)
    ring = VarRing(blob["ring"])
    got = {poly_parse(t, ring) for t in blob["generators"]}
    assert got == {poly_parse("x - 2*g", ring), poly_parse("y - 3*g", ring)}


def test_closed_forms_command(capsys, walk2_file):
    code, out, _ = _run(
        capsys, "closed-forms", "--loop", walk2_file, "--degree", "1", "--format", "text"
    )
    assert code == 0
    assert "E[x] = (1/2*n)*1^n" in out
    assert "E[y] = (-1/2*n)*1^n" in out


def test_empirical_with_explicit_order(capsys, tmp_path):
    path = tmp_path / "det.loop"
    path.write_text(
        "vars: x, y, f, g\ninit: x = 0; y = 0; f = 1; g = 0\nbody:\n"
        "  (x, y) = (x + 2, y + 3)\n"
        "  f = f*((x - 5)^2 + (y - 7)^2)\n"
        "  g = g + 1\n"
    )
    code, out, _ = _run(
        capsys,
        "empirical", "--loop", str(path), "--degree", "3", "--horizon", "25",
        "--order", "lex", "--var-order", "g<f<y<x",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["order"] == {"kind": "lex", "priority": ["x", "y", "f", "g"]}
    assert blob["generators"] == ["x - 2*g", "y - 3*g"]


def test_irrational_eigenvalue_reported(capsys, tmp_path):
    path = tmp_path / "swap.loop"
    path.write_text("vars: x, y\ninit: x = 1; y = 1\nbody:\n  (x, y) = (2*y, x)\n")
    code, _, err = _run(capsys, "closed-forms", "--loop", str(path))
    assert code == 1
    assert json.loads(err)["error"] == "IrrationalEigenvalue"


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("groebner", "--ideal", '{"ring": ["x", "y"], "order": {"kind": "lexx"}, "generators": ["x"]}'),
        ("groebner", "--ideal", '{"ring": ["x", "x"], "generators": ["x"]}'),
        ("groebner", "--ideal", '{"ring": ["x", "y"], "order": {"priority": ["x", "z"]}, "generators": ["x"]}'),
        ("groebner", "--ideal", '{"ring": ["x", "y"]}'),
        ("groebner", "--ideal", '{"ring": ["x", "y"], "generators": ["x"'),
        ("simulate", "--loop", "vars: 2x\ninit: x = 0\nbody:\n  x = x\n"),
        ("verify-witness", "--lrs", '{"coeffs": ["0"], "init": ["1"]}'),
        ("verify-witness", "--lrs", "coeffs: 1"),
        ("simulate", "--loop", "vars: x, y\ninit: x = 0; y = 0\nbody:\n  (x, x) = (x, y)\n"),
        ("simulate", "--loop", b"vars: x\ninit: x = 0\nbody:\n  x = x \xff\n"),
        ("invariants", "--loop", "vars: E[x], y\ninit: E[x] = 0; y = 0\nbody:\n  y = y + 1\n"),
        ("simulate", "--loop", "vars: x\ninit: x = 1e5000\nbody:\n  x = x\n"),
    ],
    ids=[
        "order-kind", "duplicate-ring", "priority", "no-generators", "ideal-json",
        "variable-name", "lrs-a0", "lrs-json", "repeated-target", "not-utf8",
        "moment-variable", "exponent-literal",
    ],
)
def test_malformed_input_file_is_parse_error(capsys, tmp_path, command, flag, text):
    path = tmp_path / "input"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, _, err = _run(capsys, command, flag, str(path))
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


FLAG_IDEAL = {
    "ring": ["g", "f", "y", "x"],
    "order": {"kind": "lex", "priority": ["x", "y", "f", "g"]},
    "generators": ["x - 2*g", "y - 3*g", "g*(g-1)*f"],
}


def test_detect_zero_reads_order_flag(capsys, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(FLAG_IDEAL))
    code, out, err = _run(capsys, "detect-zero", "--ideal", str(path), "--order", "degrevlex")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "OrderMismatch"


def test_groebner_explicit_degrevlex(capsys, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(FLAG_IDEAL))
    code, out, _ = _run(capsys, "groebner", "--ideal", str(path), "--order", "degrevlex")
    assert code == 0
    blob = json.loads(out)
    ring = VarRing(FLAG_IDEAL["ring"])
    order = MonomialOrder("degrevlex", ring)
    assert blob["order"] == order.to_json()
    expected = buchberger([poly_parse(t, ring) for t in FLAG_IDEAL["generators"]], order)
    assert blob["generators"] == expected.to_json()["generators"]


@pytest.mark.parametrize(
    "poly, position",
    [
        ("(x+y+f+g)^30", 10),
        ("(x+y+f+g)^60", 10),
        ("*".join(["(x+y+f+g)"] * 60), 209),  # at the 22nd factor's '*'
        ("(x+" + "7" * 4000 + ")^60", 4005),
    ],
    ids=["30", "60", "product", "long-coefficient-power"],
)
def test_member_refuses_a_power_too_large_to_expand(capsys, tmp_path, poly, position):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(FLAG_IDEAL))
    code, out, err = _run(capsys, "member", "--ideal", str(path), "--poly", poly)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"] == "ParseError" and blob["detail"].endswith(f"(at position {position})")


@pytest.mark.parametrize("command", ["invariants", "closed-forms"])
@pytest.mark.parametrize("degree", [160, 400])
def test_moment_count_over_the_closure_budget_is_refused(capsys, command, degree):
    loop = str(GOLDEN / "branches.loop")  # three variables
    code, out, err = _run(capsys, command, "--loop", loop, "--degree", str(degree))
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"] == "ClosureBudgetExceeded"
    assert f"at least {comb(3 + degree, 3)} symbols" in blob["detail"]


@pytest.mark.parametrize(
    "command, source, flag, value",
    [
        ("invariants", "--loop", "--degree", "0"),
        ("closed-forms", "--loop", "--degree", "0"),
        ("empirical", "--loop", "--degree", "0"),
        ("simulate", "--loop", "--horizon", "-3"),
        ("distribution", "--loop", "--horizon", "-3"),
        ("empirical", "--loop", "--horizon", "-3"),
        ("verify-witness", "--lrs", "--horizon", "-3"),
        ("invariants", "--loop", "--budget", "-3"),
        ("empirical", "--loop", "--budget", "-1"),
    ],
)
def test_out_of_range_number_is_parse_error(capsys, tmp_path, lrs_file, command, source, flag, value):
    path = tmp_path / "det.loop"
    path.write_text("vars: x, y\ninit: x = 0; y = 0\nbody:\n  (x, y) = (x + 2, y + 3)\n")
    code, out, err = _run(
        capsys, command, source, lrs_file if source == "--lrs" else str(path), flag, value
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ("groebner", "--ideal", "IDEAL", "--var-order", "a<b"),
        ("groebner", "--ideal", "IDEAL", "--order", "lex", "--var-order", "x<y<z"),
        ("invariants", "--loop", "LOOP", "--degree", "1", "--var-order", "E[x]<E[x]"),
    ],
)
def test_var_order_not_a_permutation_is_parse_error(capsys, tmp_path, argv):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(FLAG_IDEAL))
    loop = tmp_path / "det.loop"
    loop.write_text("vars: x, y\ninit: x = 0; y = 0\nbody:\n  (x, y) = (x + 2, y + 3)\n")
    paths = {"IDEAL": str(ideal), "LOOP": str(loop)}
    code, out, err = _run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "system, target, error",
    [
        ("(x, y) = (x + 2, y + 3)", "a,b", "ParseError"),
        ("(x, y) = (x + 2, y + 3)", "1/0,2", "ParseError"),
        ("(x, y) = (x + 2, y + 3)", "4", "ArityMismatch"),
        ("(x, y) = (x + 2, y + 3)", "4,6,8", "ArityMismatch"),
        ("x = x + 2 [1/2] x - 1\n  y = y + 3", "4,6", "NotDeterministic"),
    ],
    ids=["letters", "zero-denominator", "short-target", "long-target", "probabilistic"],
)
def test_reduce_p2p_spinv_bad_input_is_typed_error(capsys, tmp_path, system, target, error):
    path = tmp_path / "sys.loop"
    path.write_text(f"vars: x, y\ninit: x = 0; y = 0\nbody:\n  {system}\n")
    code, out, err = _run(capsys, "reduce-p2p-spinv", "--loop", str(path), "--target", target)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error


def test_reduce_p2p_spinv_two_statements(capsys, tmp_path):
    path = tmp_path / "sys.loop"
    path.write_text("vars: x, y\ninit: x = 0; y = 0\nbody:\n  x = x + 2\n  y = y + x\n")
    code, out, _ = _run(capsys, "reduce-p2p-spinv", "--loop", str(path), "--target", "4,6")
    assert code == 0
    flags = [st[2] for st in simulate(parse_loop(out), 6)]
    assert flags == [1, 20, 0, 0, 0, 0, 0]


def test_integers_print_in_full(capsys, tmp_path):
    path = tmp_path / "square.loop"
    path.write_text("vars: x\ninit: x = 10\nbody:\n  x = x*x\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, _ = _run(capsys, "simulate", "--loop", str(path), "--horizon", "13")
    assert code == 0
    assert len(json.loads(out)["states"][-1][0]) == 8193
    assert limit() == before
