"""The flowfactory names that perfbench looks up must exist.

perfbench wraps the functions in `spans.WRAPPED` only on a traced run, so a
name deleted from the package would go unnoticed until then.  This reads
perfbench's sources without importing them.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Names that perfbench/run.py's gates and perfbench/worker.py call.
CALLED = (
    "graphs.enumerate_vertices",
    "graphs.is_vertex",
    "spanning.directed_tree_count",
    "oracle.eval_polynomial_factored",
    "oracle.statistical_test",
    "cli._external_rng",
    "cli.main",
    "graphs.require_interior_point",
    "coins.SimulatedCoins",
    "factory.FlowSampler",
    "io.polytope_from_dict",
    "io.coins_from_dict",
    "io.load_json",
    "io.sample_line",
    "io.flow_key",
)

#: Names that perfbench/worker.py reads as data rather than calls.
READ = ("cli._ALL_CHECKS",)


def _wrapped():
    module = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    (value,) = [node.value for node in module.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)]
    return ast.literal_eval(value)


@pytest.mark.parametrize("name", [name for name, _ in _wrapped()] + list(CALLED))
def test_perfbench_name_resolves(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"flowfactory.{module}"), attr, None)), name


@pytest.mark.parametrize("name", READ)
def test_perfbench_data_name_exists(name):
    module, attr = name.split(".")
    assert hasattr(importlib.import_module(f"flowfactory.{module}"), attr), name
