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
           "e + m * (out >> e & 1)",
           "e + m * (1 - (out >> e & 1))",
           ("tests/test_rounds.py::test_first_hit_matches_flip_round_loop",
            "tests/test_rounds.py::test_bulk_scan_matches_per_round_path[circ4]")),
    Mutant("scan-drops-a-full-adders-carry", "src/flowfactory/spanning.py",
           "            carry |= b\n",
           "",
           ("tests/test_rounds.py::test_scan_matches_membership_round_by_round[circ4]",
            "tests/test_rounds.py::test_scan_matches_membership_round_by_round[circ5m]")),
    Mutant("exit-pairs-take-the-tail", "src/flowfactory/spanning.py",
           "(e, ends[e][0] ^ ends[e][1] ^ v)",
           "(e, ends[e][0])",
           ("tests/test_rounds.py::test_tree_count_and_exit_tables_match_reference",)),
    # The round buffer's run-wise refill and the tree stage's draw.
    Mutant("run-key-merges-tail-edges", "src/flowfactory/coins.py",
           "0 if (1 << _SLICED) % b.denominator == 0 else e",
           "0",
           ("tests/test_draw_reference.py::test_run_refill_matches_per_edge_reference",)),
    Mutant("below-accepts-u-equal-to-n", "src/flowfactory/factory.py",
           "if (r := getrandbits(k)) < n:",
           "if (r := getrandbits(k)) <= n:",
           ("tests/test_rounds.py::test_below_matches_randrange_draw_for_draw",)),
    Mutant("exit-count-outdeg-plus-demand", "src/flowfactory/spanning.py",
           "out.bit_count() - P.demand(label)",
           "out.bit_count() + P.demand(label)",
           ("tests/test_rounds.py::test_vertex_test_matches_is_vertex_random",
            "tests/test_rounds.py::test_tree_count_and_exit_tables_match_reference")),
    # Every edge's ends as positions in the incident nodes, and the Laplacians' minors.
    Mutant("ends-are-labels-minus-one", "src/flowfactory/graphs.py",
           "ends = np.searchsorted(self.incident_nodes,\n"
           "                               np.array(self.edges, dtype=np.intp).reshape(len(self.edges), 2).T)",
           "ends = np.array(self.edges, dtype=np.intp).reshape(len(self.edges), 2).T - 1",
           ("tests/test_graphs.py::test_edge_ends_and_node_bits_match_each_edge",
            "tests/test_spanning.py::test_flip_laplacians_match_a_per_arc_build",
            "tests/test_orientation_reference.py::test_bulk_table_matches_the_reference_on_random_instances")),
    Mutant("root-minors-int64-past-the-bound", "src/flowfactory/spanning.py",
           "np.int64 if 2 * big ** (2 * k - 2) < 2 ** 63 else object",
           "np.int64 if big ** (k - 1) < 2 ** 63 else object",
           ("tests/test_spanning.py::test_root_minors_run_in_int64_only_below_its_bound[65536-object]",)),
    Mutant("det-stack-swap-keeps-the-sign", "src/flowfactory/spanning.py",
           "            sign[at] *= -1\n",
           "",
           ("tests/test_spanning.py::test_det_bareiss_small",)),
    Mutant("flip-image-weights-swapped", "src/flowfactory/spanning.py",
           "np.where(bits, np.array(turned, dtype=dtype), np.array(kept, dtype=dtype))",
           "np.where(bits, np.array(kept, dtype=dtype), np.array(turned, dtype=dtype))",
           ("tests/test_spanning.py::test_flip_laplacians_sum_the_arcs_that_share_a_cell",
            "tests/test_cli.py::test_oracle_bytes_golden_circ4[match3-verify]")),
    # The exchange check's array form.
    Mutant("exchange-check-2-never-fails", "src/flowfactory/oracle.py",
           "    failed[2] = ((leaving != entering) | (leaving > 1)).any(axis=0)\n",
           "",
           ("tests/test_exchange_reference.py::test_array_exchange_check_agrees_with_the_reference[eta-circ3]",)),
    Mutant("exchange-minus-arcs-not-reversed", "src/flowfactory/oracle.py",
           "plus | (minus & ~plus) << width",
           "plus | (minus & ~plus)",
           ("tests/test_exchange_reference.py::test_array_exchange_check_agrees_with_the_reference[honest-circ3]",
            "tests/test_cli.py::test_oracle_bytes_golden_circ4[verify]")),
    Mutant("exchange-tail-bits-out-alone", "src/flowfactory/oracle.py",
           "count(arcs & (out | into << width))",
           "count(arcs & out)",
           ("tests/test_exchange_reference.py::test_array_exchange_check_agrees_with_the_reference[honest-kflow4_2]",
            "tests/test_exchange_reference.py::test_array_exchange_check_agrees_with_the_reference[honest-match3]")),
    Mutant("exchange-drops-leaving-entering", "src/flowfactory/oracle.py",
           "((leaving != entering) | (leaving > 1))",
           "(leaving > 1)",
           ("tests/test_exchange_reference.py::test_array_exchange_check_agrees_with_the_reference[eta-circ3]",)),
    Mutant("bijection-compares-sizes-only", "src/flowfactory/oracle.py",
           "        failed[4, source[kept][(f[:split] ^ g)[kept] != f[split:][same[target - a]]]] = True\n",
           "",
           ("tests/test_exchange_reference.py::test_array_exchange_check_agrees_with_the_reference[mask-circ4]",)),
    # The oracle's tree table: each tree's orientation toward a root, and its entries.
    Mutant("reversed-edges-point-away-from-the-root", "src/flowfactory/oracle.py",
           "self.sides >> np.uint64(self._nodes.index(root)) & np.uint64(1) == 0",
           "self.sides >> np.uint64(self._nodes.index(root)) & np.uint64(1) != 0",
           ("tests/test_orientation_reference.py::test_both_weight_dtypes_match_the_reference_on_circ4[int64]",)),
    Mutant("head-side-is-the-tails-subtree", "src/flowfactory/oracle.py",
           "np.take_along_axis(labels, ends[1, tree_edges][..., None], axis=2)",
           "np.take_along_axis(labels, ends[0, tree_edges][..., None], axis=2)",
           ("tests/test_orientation_reference.py::test_both_weight_dtypes_match_the_reference_on_circ4[int64]",
            "tests/test_cli.py::test_oracle_bytes_golden_circ4[verify]")),
    Mutant("tree-labels-skip-the-last-merge", "src/flowfactory/spanning.py",
           "for j in range(tails.shape[1]):",
           "for j in range(tails.shape[1] - 1):",
           ("tests/test_orientation_reference.py::test_tree_labels_match_union_find_and_traversal_on_random_instances",
            "tests/test_spanning.py::test_enumerate_directed_trees")),
    Mutant("entry-offsets-lose-the-leading-zero", "src/flowfactory/oracle.py",
           "counts, positions = [np.zeros(1, dtype=np.intp)]",
           "counts, positions = [np.zeros(0, dtype=np.intp)]",
           ("tests/test_orientation_reference.py::test_both_weight_dtypes_match_the_reference_on_circ4[int64]",)),
    Mutant("entries-match-the-complemented-pattern", "src/flowfactory/oracle.py",
           "== patterns[b:b + step, None])",
           "== ~patterns[b:b + step, None])",
           ("tests/test_oracle.py::test_positivity",
            "tests/test_cli.py::test_oracle_bytes_golden_circ4[verify]")),
    # The oracle's integer weight table and its readers.
    Mutant("int64-bound-without-the-node-count", "src/flowfactory/oracle.py",
           "size ** (len(num) + len(P.graph.incident_nodes))",
           "size ** len(num)",
           ("tests/test_orientation_reference.py::test_both_weight_dtypes_match_the_reference_on_circ4[just-past-int64]",
            "tests/test_oracle.py::test_marginal_identity")),
    Mutant("prefix-swaps-x-and-one-minus-x", "src/flowfactory/oracle.py",
           "return np.where(bits, num, den - num).prod(axis=1)",
           "return np.where(bits, den - num, num).prod(axis=1)",
           ("tests/test_oracle.py::test_marginal_identity",
            "tests/test_cli.py::test_oracle_bytes_golden_circ4[match3-verify]")),
    Mutant("weights-buffered-add", "src/flowfactory/oracle.py",
           "np.add.at(sums, positions, np.repeat(terms, np.diff(offsets)))",
           "sums[positions] += np.repeat(terms, np.diff(offsets))",
           ("tests/test_orientation_reference.py::test_both_weight_dtypes_match_the_reference_on_circ4[int64]",)),
    Mutant("qualifying-counts-without-minlength", "src/flowfactory/oracle.py",
           "np.bincount(table.entries(root)[1], minlength=len(table.vertices))",
           "np.bincount(table.entries(root)[1])",
           ("tests/test_rounds.py::test_unreachable_root_raises_before_any_walk",)),
    Mutant("qualifying-counts-at-the-first-root", "src/flowfactory/oracle.py",
           "np.bincount(table.entries(root)[1], minlength",
           "np.bincount(table.entries(P.graph.incident_nodes[0])[1], minlength",
           ("tests/test_oracle.py::test_qualifying_trees_match_brute_force_on_random_instances",
            "tests/test_cli.py::test_oracle_bytes_golden_circ4[match3-verify]")),
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
    # The CLI's one-command parse, which must parse as the whole parser does.
    Mutant("one-command-parse-ignores-leftovers", "src/flowfactory/cli.py",
           "        if not extras:\n            return args\n",
           "        return args\n",
           ("tests/test_cli.py::test_one_command_parse_matches_the_whole_parser[extra-positional]",
            "tests/test_cli.py::test_one_command_parse_matches_the_whole_parser[unknown-flag]")),
    Mutant("one-command-parse-drops-the-command-name", "src/flowfactory/cli.py",
           "argparse.Namespace(command=argv[0])",
           "argparse.Namespace(command=None)",
           ("tests/test_cli.py::test_one_command_parse_matches_the_whole_parser[out-equals]",
            "tests/test_cli.py::test_sample_path_rejects_a_directed_cycle_under_unit_demands")),
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
