"""Known-wrong edits of the package, each with the tests that must catch it.

Run the table from the root of a checkout:

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME [NAME]  # only the named ones

`src/`, `tests/` and `pyproject.toml` are copied to a temporary directory,
once.  The tests named anywhere in the table first run there unchanged and
must pass, so that no mutant counts as caught by a test that fails anyway.
Then each mutant in turn replaces its one occurrence of `old` by `new` in
its file, runs only its own tests (pytest -x, hypothesis seed 0) and puts
the file back; it is caught when pytest reports a failing test (exit 1).  A
collection error, an unknown test id or a timeout is not a catch.  Exits 1
unless every mutant is caught.  tests/test_mutants.py checks, in tier-1,
that each `old` still occurs exactly once, so a refactor that moves the code
fails there and the mutant is updated rather than dropped.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout's root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout's root


MUTANTS = (
    # The demand rule, stated once, and the vertex-only tree draw that rests on it.
    Mutant("demand-range-check-dropped", "src/flowfactory/graphs.py",
           "if not -into <= d <= out:",
           "if False:",
           ("tests/test_graphs.py::test_demands_outside_a_nodes_degree_range_are_rejected",)),
    Mutant("demand-range-check-skips-edgeless-nodes", "src/flowfactory/graphs.py",
           "if not -into <= d <= out:",
           "if v in bits and not -into <= d <= out:",
           ("tests/test_graphs.py::test_demands_outside_a_nodes_degree_range_are_rejected",)),
    Mutant("sample-flip-tree-without-vertex-check", "src/flowfactory/spanning.py",
           "    _require_vertex(P, f)\n    if not qualifying_tree_count(P, f, root):\n",
           "    if not qualifying_tree_count(P, f, root):\n",
           ("tests/test_spanning.py::test_sample_flip_tree_rejects_a_non_vertex_before_any_draw",)),
    # The stage-1 vertex test and its bulk scan.
    Mutant("scan-inverts-in-edges", "src/flowfactory/spanning.py",
           "carry = ~rows[e] if out >> e & 1 else rows[e]",
           "carry = rows[e] if out >> e & 1 else ~rows[e]",
           ("tests/test_rounds.py::test_first_hit_matches_flip_round_loop",
            "tests/test_rounds.py::test_bulk_scan_matches_per_round_path[circ4]")),
    Mutant("exit-count-outdeg-plus-demand", "src/flowfactory/spanning.py",
           "out.bit_count() - P.demand(label)",
           "out.bit_count() + P.demand(label)",
           ("tests/test_rounds.py::test_vertex_test_matches_is_vertex_random",
            "tests/test_rounds.py::test_tree_count_and_exit_tables_match_reference")),
    # The exchange check's array form.
    Mutant("exchange-checks-2-3-never-fail", "src/flowfactory/oracle.py",
           "    failed[2] = ((leaving != entering) | (leaving > 1)).any(axis=0)\n"
           "    failed[3] = plus & turned != 0\n",
           "",
           ("tests/test_exchange_reference.py::test_array_exchange_check_agrees_with_the_reference[eta-circ3]",)),
    Mutant("exchange-tail-bits-out-alone", "src/flowfactory/oracle.py",
           "count(arcs & (out | into << width))",
           "count(arcs & out)",
           ("tests/test_exchange_reference.py::test_array_exchange_check_agrees_with_the_reference[honest-kflow4_2]",
            "tests/test_exchange_reference.py::test_array_exchange_check_agrees_with_the_reference[honest-match3]")),
    Mutant("exchange-drops-leaving-entering", "src/flowfactory/oracle.py",
           "((leaving != entering) | (leaving > 1))",
           "(leaving > 1)",
           ("tests/test_exchange_reference.py::test_array_exchange_check_agrees_with_the_reference[eta-circ3]",)),
    # The oracle's integer weight table and its readers.
    Mutant("weights-buffered-add", "src/flowfactory/oracle.py",
           "np.add.at(sums, positions, np.repeat(terms, np.diff(offsets)))",
           "sums[positions] += np.repeat(terms, np.diff(offsets))",
           ("tests/test_orientation_reference.py::test_both_weight_dtypes_match_the_reference_on_circ4[int64]",)),
    Mutant("qualifying-counts-without-minlength", "src/flowfactory/oracle.py",
           "np.bincount(table.entries(root)[1], minlength=len(table.vertices))",
           "np.bincount(table.entries(root)[1])",
           ("tests/test_rounds.py::test_unreachable_root_raises_before_any_walk",)),
    Mutant("row-reversed", "src/flowfactory/oracle.py",
           "self.row = {f: j for j, f in enumerate(self.vertices)}",
           "self.row = {f: j for j, f in enumerate(reversed(self.vertices))}",
           ("tests/test_oracle.py::test_eval_polynomial_reads_the_read_only_integer_table",)),
    Mutant("statistical-test-bins-reversed", "src/flowfactory/oracle.py",
           "observed = np.bincount(rows, minlength=len(table.vertices))",
           "observed = np.bincount(len(table.vertices) - 1 - rows, minlength=len(table.vertices))",
           ("tests/test_oracle_goldens.py::test_statistical_test_report_golden[circ4-2000-0]",)),
    Mutant("marginals-from-complement-bits", "src/flowfactory/oracle.py",
           "observed @ table.bits / n",
           "observed @ ~table.bits / n",
           ("tests/test_oracle_goldens.py::test_statistical_test_report_golden[circ4-2000-0]",)),
    Mutant("parallel-to-circ-always-true", "src/flowfactory/oracle.py",
           "return bool((net == net[:1]).all())",
           "return True",
           ("tests/test_oracle.py::test_check_parallel_to_circ_fails_on_an_off_balance_vertex[triangle]",)),
    Mutant("interior-point-accepts-a-zero-coordinate", "src/flowfactory/oracle.py",
           "if 0 < used.min() and used.max() < total:",
           "if 0 <= used.min() and used.max() < total:",
           ("tests/test_oracle.py::test_random_interior_point_rejects_a_fixed_coordinate[edge-never-used]",)),
    # The sampler's once-per-sampler NoArborescence check.
    Mutant("no-arborescence-guard-removed", "src/flowfactory/factory.py",
           "if not qualifying_tree_count(self.P, f, self.root):",
           "if False:",
           ("tests/test_rounds.py::test_unreachable_root_raises_before_any_walk",
            "tests/test_rounds.py::test_no_arborescence_raises_at_every_call[b-0]")),
    Mutant("qualifies-set-before-the-check", "src/flowfactory/factory.py",
           "            if not self.qualifies:\n",
           "            if not self.qualifies:\n                self.qualifies = True\n",
           ("tests/test_rounds.py::test_no_arborescence_raises_at_every_call[unreachable-root]",)),
    Mutant("qualifies-never-set", "src/flowfactory/factory.py",
           "                self.qualifies = True\n",
           "",
           ("tests/test_rounds.py::test_tree_count_runs_once_per_sampler",)),
)


def _pytest(where: str, tests) -> int:
    # No bytecode is written: a mutant and its original can share a size and
    # a modification second, and a cached .pyc of one would then serve the other.
    env = {**os.environ, "PYTHONPATH": os.path.join(where, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    try:
        return subprocess.run(argv, cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    if not mutants or len(mutants) < len(set(names)):
        print(f"unknown mutant among {names}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as where:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".benchmarks")
        for tree in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, tree), os.path.join(where, tree), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), where)
        named = sorted({t for m in mutants for t in m.tests})
        if (code := _pytest(where, named)) != 0:
            print(f"the named tests fail without a mutant (pytest exit {code})", file=sys.stderr)
            return 1
        missed = []
        for m in mutants:
            path = os.path.join(where, m.path)
            with open(path) as fh:
                text = fh.read()
            start = time.perf_counter()
            if text.count(m.old) != 1:
                code = None
            else:
                with open(path, "w") as fh:
                    fh.write(text.replace(m.old, m.new))
                code = _pytest(where, m.tests)
                with open(path, "w") as fh:
                    fh.write(text)
            caught = code == 1
            print(f"{'caught' if caught else 'MISSED':6}  {m.name}  (pytest exit {code}, "
                  f"{time.perf_counter() - start:.1f} s)")
            if not caught:
                missed.append(m.name)
    print(f"{len(mutants) - len(missed)} of {len(mutants)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
