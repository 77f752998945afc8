"""Mutation check: does the test suite catch small, deliberate faults?

Each record names a file under ``src/``, an exact text that occurs there
once, its replacement, and the tests that must fail once it is made. For
each record the script copies ``src/``, ``tests/`` and ``pyproject.toml``
into a temporary directory, makes the one replacement there, and runs the
named tests with pytest in that copy, each on its own. A mutant is caught
when every named test fails; the script prints caught, or the tests that
missed it, for each, and exits 1 if any is missed. It exits 2 before any
mutant when a named test fails on the unchanged copy, and when a record's
text does not occur exactly once. The repository itself is never
modified.

Run from anywhere, optionally naming some records:

    python tests/mutants.py [name ...]

pytest does not collect this file, and it is not part of the Tier-1 suite.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/gwrange
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


_P_UP = "moves = rng.negative_binomial(entries, w_up / (w_up + down))"


def _p_up_scaled(factor):
    return Mutant(
        f"p_up-x{factor}", "walk.py", _P_UP,
        f"moves = rng.negative_binomial(entries, np.minimum({factor} * w_up / (w_up + down), 1.0))",
        ("tests/test_walk.py::TestTransition",
         "tests/test_acceptance.py::test_acc09_band_volume_trend"))


MUTANTS = (
    Mutant("child-order-reversed", "environment.py",
           "            for x in d:\n                disp[pos] = x",
           "            for x in d[::-1]:\n                disp[pos] = x",
           ("tests/test_tree.py::TestGenerationDigests::test_arrays_bitwise_pinned",)),
    Mutant("H-without-H_parent", "tree.py",
           "H.append(1.0 + np.exp(V[g - 1][p] - V[g]) * H[-1][p])",
           "H.append(1.0 + np.exp(V[g - 1][p] - V[g]))",
           ("tests/test_tree.py::TestConductance",)),
    _p_up_scaled(1.02),
    _p_up_scaled(1.05),
    _p_up_scaled(0.95),
    Mutant("first_child-off-by-one", "tree.py",
           "    head -= n_children[:n_int]\n    head += 1\n",
           "    head -= n_children[:n_int]\n    head += 2\n",
           ("tests/test_tree.py::TestGenerationDigests",
            "tests/test_tree.py::TestTreeFromParents")),
    Mutant("additive_martingale-no-undrawn-term", "tree.py",
           "        total += float(np.exp(log_mean).sum())",
           "        total += 0.0",
           ("tests/test_grow.py",)),
    Mutant("draw_children-displacements-x1.05", "tree.py",
           "        v = self.V[rows]\n        v += disp\n",
           "        v = self.V[rows]\n        v += 1.05 * disp\n",
           ("tests/test_grow.py",)),
    # the layout of complete trees in tree_from_parents
    Mutant("generation-offsets-off-by-one", "tree.py",
           "end = 1 + int(up.searchsorted(hi))",
           "end = 1 + int(up.searchsorted(hi + 1))",
           ("tests/test_tree.py::TestTreeFromParents",
            "tests/test_tree.py::TestGenerationDigests")),
    Mutant("V-from-wrong-parent-row", "tree.py",
           "np.add(V[parent[hi:end]], disp[hi:end], out=V[hi:end])",
           "np.add(V[parent[hi:end] + 1], disp[hi:end], out=V[hi:end])",
           ("tests/test_tree.py::TestTreeFromParents",
            "tests/test_tree.py::TestGenerationDigests")),
    Mutant("parent-order-check-removed", "tree.py",
           "    if (up[:1] < 0).any() or (up[1:] < up[:-1]).any():\n",
           "    if (up[:1] < 0).any():\n",
           ("tests/test_tree.py::TestSnapshot::test_children_listed_in_parent_order",)),
)


def _copy_tree(tmp: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")


def _fails(tmp: Path, test: str) -> bool:
    """Whether pytest fails ``test`` in the copy at ``tmp``. A test module
    that no longer imports counts as failing: the unchanged copy has shown
    that every named test exists and passes."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", "addopts=", test],
        cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode != 0


def run_mutant(m: Mutant) -> list:
    """The tests of ``m`` that still pass with the mutation made."""
    with tempfile.TemporaryDirectory(prefix="gwrange-mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        path = tmp / "src" / "gwrange" / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            raise LookupError(f"{m.name}: the old text occurs {text.count(m.old)} times "
                              f"in src/gwrange/{m.file}, not once")
        path.write_text(text.replace(m.old, m.new))
        return [t for t in m.tests if not _fails(tmp, t)]


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    # a test that fails without a mutation would catch every mutant
    with tempfile.TemporaryDirectory(prefix="gwrange-mutant-") as tmp:
        _copy_tree(Path(tmp))
        failing = [t for t in dict.fromkeys(t for m in chosen for t in m.tests)
                   if _fails(Path(tmp), t)]
    if failing:
        print(f"fail without a mutation: {', '.join(failing)}", file=sys.stderr)
        return 2
    missed = 0
    for m in chosen:
        t0 = time.perf_counter()
        try:
            passing = run_mutant(m)
        except LookupError as err:
            print(err, file=sys.stderr)
            return 2
        missed += bool(passing)
        verdict = f"MISSED by {', '.join(passing)}" if passing else "caught"
        print(f"{m.name}: {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(chosen) - missed} of {len(chosen)} caught in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
