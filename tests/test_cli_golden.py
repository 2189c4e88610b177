"""Byte-for-byte CLI outputs on a fixed corpus.

Each case runs one command on the inputs in `tests/golden/` and compares
its stdout with the checked-in `tests/golden/<case>.<format>.out`.  A change
that alters any of these bytes must say why.  After such a deliberate
change, `PYTHONPATH=src python tests/test_cli_golden.py` rewrites the
expected files.
"""

from pathlib import Path

import pytest

from loopideal.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "invariants": ("invariants", "--loop", "two_walks.loop", "--degree", "2"),
    "invariants-lex": (
        "invariants", "--loop", "two_walks.loop", "--degree", "2",
        "--order", "lex", "--var-order", "E[x]<E[y]<E[x^2]<E[x*y]<E[y^2]",
    ),
    "closed-forms": ("closed-forms", "--loop", "two_walks.loop", "--degree", "2"),
    "groebner-lex": ("groebner", "--ideal", "flag_ideal.json", "--order", "lex"),
    "member": ("member", "--ideal", "flag_ideal.json", "--poly", "g*(g-1)*f"),
    "empirical": (
        "empirical", "--loop", "flag.loop", "--degree", "3", "--horizon", "25",
    ),
    "detect-zero": ("detect-zero", "--ideal", "flag_ideal.json"),
    "invariants-transient": (
        "invariants", "--loop", "transient.loop", "--degree", "2",
    ),
    "closed-forms-transient": (
        "closed-forms", "--loop", "transient.loop", "--degree", "2",
    ),
    "reduce-skolem-p2p": ("reduce-skolem-p2p", "--lrs", "rec.json"),
    "reduce-skolem-spinv": ("reduce-skolem-spinv", "--lrs", "rec.json"),
    "reduce-p2p-spinv": (
        "reduce-p2p-spinv", "--loop", "system.loop", "--target", "4,6",
    ),
    "verify-witness": ("verify-witness", "--lrs", "rec.json", "--horizon", "15"),
}
FORMATS = ("json", "text")


def _argv(case: str, fmt: str) -> list[str]:
    argv = list(CASES[case])
    for flag in ("--loop", "--ideal", "--lrs"):
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = str(GOLDEN / argv[i])
    return argv + ["--format", fmt]


def _expected(case: str, fmt: str) -> Path:
    return GOLDEN / f"{case}.{fmt}.out"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_golden(capsys, case, fmt):
    assert main(_argv(case, fmt)) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == _expected(case, fmt).read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    for case in CASES:
        for fmt in FORMATS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(_argv(case, fmt)) == 0
            _expected(case, fmt).write_bytes(buf.getvalue().encode("utf-8"))
