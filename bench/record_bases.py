"""Write bench/bases.json: the reduced moment-invariant basis of every
moment_ideals input as drawn, with no variable negated.

    python3 bench/record_bases.py

The moment_ideals check maps these bases onto a run's sign-flipped copy of
each input and compares them with the job's result, so a result that lacks
generators fails.  The file holds the program's own answers at the commit
that added the benchmark; every one of them vanishes on the exact moments,
and the two walks' degree-2 basis equals criterion 1's quoted one.  Rerun
only when the answer is meant to change, and check the new bases first.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import loopideal as li  # noqa: E402

import corpus  # noqa: E402


def main() -> None:
    base = random.Random(corpus.CRITERION6_SEED)
    inputs = [
        (f"fuzz-{i:02d}", corpus.fuzz_affine_loop(li, base), corpus.MOMENT_IDEAL_DEGREE)
        for i in range(corpus.FUZZ_COUNT)
    ]
    for name, text, degrees in corpus.PAPER_LOOPS:
        inputs += [(f"{name}-d{d}", li.parse_loop(text), d) for d in degrees]
    bases = {}
    for label, loop, degree in inputs:
        bases[label] = li.moment_invariant_ideal(loop, degree).to_json()["generators"]
        print(label, len(bases[label]), flush=True)
    (HERE / "bases.json").write_text(json.dumps(bases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
