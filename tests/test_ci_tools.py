"""tests/ci_tools.py, the CI jobs' coin-file writer and peak-RSS gate."""

import json
import os
import subprocess
import sys
from fractions import Fraction

from flowfactory import build_circulation_polytope
from flowfactory.io import coins_from_dict, polytope_to_dict

TOOLS = os.path.join(os.path.dirname(__file__), "ci_tools.py")


def _tools(*args, cwd):
    return subprocess.run([sys.executable, TOOLS, *args], capture_output=True, text=True, cwd=cwd, timeout=120)


def test_coins_puts_every_edge_at_the_bias(tmp_path):
    (tmp_path / "circ4.json").write_text(json.dumps(polytope_to_dict(build_circulation_polytope(4))))
    assert _tools("coins", "circ4.json", "1", "3", "coins.json", cwd=tmp_path).returncode == 0
    assert coins_from_dict(json.loads((tmp_path / "coins.json").read_text()), 12) == (Fraction(1, 3),) * 12


def test_coins_puts_each_cycle_at_its_own_bias(tmp_path):
    P = build_circulation_polytope(4)
    (tmp_path / "circ4.json").write_text(json.dumps(polytope_to_dict(P)))
    args = ("coins", "circ4.json", "1", "2", "coins.json", "1,2,3", "3", "4", "1,4,2", "2", "3")
    assert _tools(*args, cwd=tmp_path).returncode == 0
    expected = {(1, 2): Fraction(3, 4), (2, 3): Fraction(3, 4), (3, 1): Fraction(3, 4),
                (1, 4): Fraction(2, 3), (4, 2): Fraction(2, 3), (2, 1): Fraction(2, 3)}
    biases = coins_from_dict(json.loads((tmp_path / "coins.json").read_text()), 12)
    assert biases == tuple(expected.get(arc, Fraction(1, 2)) for arc in P.edges)


def test_peak_rss_passes_the_exit_code_and_fails_above_the_limit(tmp_path):
    ok = _tools("peak-rss", "150", sys.executable, "-c", "pass", cwd=tmp_path)
    assert ok.returncode == 0 and ok.stdout.endswith(" MB\n"), ok
    assert _tools("peak-rss", "150", sys.executable, "-c", "raise SystemExit(3)", cwd=tmp_path).returncode == 3
    assert _tools("peak-rss", "0", sys.executable, "-c", "pass", cwd=tmp_path).returncode == 1
    assert _tools("bogus", cwd=tmp_path).returncode == 1
