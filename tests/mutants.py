"""Mutants of src/ that named tests must kill.

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the named ones

Each entry gives a file under src/fiberbound, a fragment that must occur in
it exactly once, its replacement, and the test node ids that must fail once
the fragment is replaced.  For each mutant the runner copies src/ to a
temporary directory, applies the one edit there, and runs
`python -m pytest -x -q` on those tests with the copy first on PYTHONPATH,
then reports the mutant as killed or survived.  Before the mutants, the
named tests must pass on an unmutated copy.  The exit status is 1 when a
mutant survives, a fragment does not occur exactly once, or the named tests
fail unmutated.  Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    path: str       # relative to src/fiberbound
    fragment: str
    replacement: str
    tests: tuple    # node ids, relative to the repository root


LINALG = "tests/test_linalg.py::"
SYZYGY = "tests/test_syzygy.py::"

MUTANTS = [
    Mutant("no conditional subtraction", "linalg.py",
           "    return y - ((y + ((1 << bits - 1) - p) * ones) >> bits - 1 & ones) * p\n",
           "    return y\n",
           (LINALG + "test_the_pivot_reduction_is_the_slot_wise_remainder",)),
    Mutant("Barrett constant one too large", "linalg.py",
           "barrett = (1 << bits) // p\n", "barrett = (1 << bits) // p + 1\n",
           (LINALG + "test_the_pivot_reduction_is_the_slot_wise_remainder",)),
    Mutant("odd slots left unreduced", "linalg.py",
           "y = x - (lo | hi << bits) * p\n", "y = x - lo * p\n",
           (LINALG + "test_the_pivot_reduction_is_the_slot_wise_remainder",)),
    Mutant("a row joins one column late", "linalg.py",
           "joins[c].append(x >> c * bits)\n",
           "joins[min(c + 1, ncols - 1)].append(x >> min(c + 1, ncols - 1) * bits)\n",
           (LINALG + "test_packed_elimination_on_staircase_matrices",)),
    Mutant("negated pivot built from the unreduced row", "linalg.py",
           "            y = _reduced(live.pop(k), p, bits, ones, evens)\n"
           "            npivot = p * ones - y\n",
           "            y = live.pop(k)\n"
           "            npivot = p * ones - y\n"
           "            y = _reduced(y, p, bits, ones, evens)\n",
           (LINALG + "test_packed_elimination_on_staircase_matrices",)),
    Mutant("handed-over rank one too high", "syzygy.py",
           "basis = graded_syzygy_kernel(inp, nu, r)\n",
           "basis = graded_syzygy_kernel(inp, nu, r if r is None else r + 1)\n",
           (SYZYGY + "test_the_probe_hands_its_rank_to_the_kernel",)),
    Mutant("probe reports the block one too low", "syzygy.py",
           "return nu - source[c // n1][0], r\n",
           "return nu - source[c // n1][0] - 1, r\n",
           (SYZYGY + "test_planted_syzygies_of_every_degree_below_the_hit[fp]",)),
    Mutant("line test without the full-degree condition", "jacobian.py",
           "        if ui.total_degree() < full:\n            return None\n",
           "",
           ("tests/test_line_proof.py::test_line_path_and_expansion_give_the_same"
            "_report[P2_d4-sparse-Fp]",)),
]


def run_tests(src: Path, tests) -> int:
    """Exit status of pytest on the tests, importing the package from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print("no such mutant:", ", ".join(sorted(unknown)))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in chosen for t in m.tests})
        if run_tests(copy_src(tmp), tests) != 0:
            print("the named tests fail on the unmutated source")
            return 1
    failures = 0
    for m in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            path = src / "fiberbound" / m.path
            text = path.read_text(encoding="utf-8")
            count = text.count(m.fragment)
            if count != 1:
                print(f"STALE     {m.name}: fragment occurs {count} times "
                      f"in {m.path}")
                failures += 1
                continue
            path.write_text(text.replace(m.fragment, m.replacement),
                            encoding="utf-8")
            status = run_tests(src, m.tests)
        # pytest exits 1 when a test failed; any other status (no test
        # collected, a usage error) means the entry names no runnable test.
        if status in (1, -1):
            print(f"killed    {m.name}" + (" (timed out)" if status < 0 else ""))
        else:
            print(f"{'survived' if status == 0 else 'ERROR':9} {m.name}"
                  + ("" if status == 0 else f": pytest exited {status}"))
            failures += 1
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
