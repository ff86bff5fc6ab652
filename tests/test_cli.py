import hashlib
import json
import subprocess
import sys

import pytest

from flowfactory import build_circulation_polytope
from flowfactory.cli import main
from flowfactory.io import (
    coins_from_dict,
    coins_to_dict,
    polytope_from_dict,
    polytope_to_dict,
)

from fractions import Fraction

from instances import subprocess_env, triangle, two_node


def _write_two_node(tmp_path, num=1, den=3):
    poly = tmp_path / "poly.json"
    coins = tmp_path / "coins.json"
    poly.write_text(json.dumps(polytope_to_dict(two_node())))
    coins.write_text(json.dumps({
        "coins": [
            {"edge": 0, "num": num, "den": den},
            {"edge": 1, "num": num, "den": den},
        ]
    }))
    return str(poly), str(coins)


def test_polytope_round_trip():
    P = triangle()
    assert polytope_from_dict(polytope_to_dict(P)) == P


def test_polytope_schema_errors():
    with pytest.raises(ValueError):
        polytope_from_dict({"nodes": 2, "edges": [], "demands": [0]})
    with pytest.raises(ValueError):
        polytope_from_dict({"nodes": 2, "edges": [{"id": 5, "from": 1, "to": 2}], "demands": [0, 0]})
    with pytest.raises(ValueError):
        polytope_from_dict([1, 2])
    with pytest.raises(ValueError):
        polytope_from_dict({"nodes": True, "edges": [], "demands": [0]})
    for eid in (False, 0.0):
        with pytest.raises(ValueError):
            polytope_from_dict({"nodes": 2, "edges": [{"id": eid, "from": 1, "to": 2}], "demands": [0, 0]})


def test_coins_round_trip():
    biases = (Fraction(1, 3), Fraction(2, 5))
    assert coins_from_dict(coins_to_dict(biases), 2) == biases
    with pytest.raises(ValueError):
        coins_from_dict({"coins": [{"edge": 0, "num": 1, "den": 3}]}, 2)
    with pytest.raises(ValueError):
        coins_from_dict({"coins": [{"edge": 0, "num": 1, "den": 0}, {"edge": 1, "num": 1, "den": 2}]}, 2)


def test_gen_matches_library(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["gen", "circulation", "--nodes", "3", "--out", str(out)]) == 0
    assert polytope_from_dict(json.loads(out.read_text())) == triangle()
    # round trip through gen -> parse -> serialize is byte identical
    text1 = out.read_text()
    reparsed = polytope_to_dict(polytope_from_dict(json.loads(text1)))
    assert json.dumps(reparsed, sort_keys=True, indent=2) + "\n" == text1


@pytest.mark.parametrize("module", ["flowfactory", "flowfactory.cli"])
def test_python_m_runs_the_cli(capsys, module):
    argv = ["gen", "circulation", "--nodes", "3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected and proc.stdout == expected


def test_gen_invalid_size():
    assert main(["gen", "circulation", "--nodes", "1"]) == 4


@pytest.mark.parametrize("k", [0, 3, 5])
def test_gen_kflow_k_outside_one_to_n_minus_1_exits_4(tmp_path, capsys, k):
    # On 3 nodes node 1 has 2 out-edges, so k = 3 or 5 leaves the polytope without a vertex.
    out = tmp_path / "kflow.json"
    assert main(["gen", "kflow", "--nodes", "3", "--k", str(k), "--out", str(out)]) == 4
    assert not out.exists()
    assert "InvalidInstance" in capsys.readouterr().err
    assert main(["gen", "kflow", "--nodes", "3", "--k", "2", "--out", str(out)]) == 0


def test_sample_deterministic(tmp_path, capsys):
    poly, coins = _write_two_node(tmp_path)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    args = ["sample", poly, coins, "--samples", "200", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    sum1 = capsys.readouterr().out
    assert main(args + ["--out", str(out2)]) == 0
    sum2 = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert sum1 == sum2
    lines = out1.read_text().splitlines()
    assert len(lines) == 200
    rec = json.loads(lines[0])
    assert set(rec) == {"flips", "flow", "restarts"}


def test_sample_empty_flow_frequency(tmp_path, capsys):
    poly, coins = _write_two_node(tmp_path)
    out = tmp_path / "s.jsonl"
    assert main(["sample", poly, coins, "--samples", "20000", "--seed", "1", "--out", str(out)]) == 0
    empties = sum(1 for line in out.read_text().splitlines() if json.loads(line)["flow"] == [])
    # exact probability 2/3; generous 4-sigma band
    assert abs(empties / 20000 - 2 / 3) < 0.014


def test_sample_boundary_coin_exit(tmp_path, capsys):
    poly, coins = _write_two_node(tmp_path, num=1, den=1)
    assert main(["sample", poly, coins, "--samples", "10"]) == 3


def test_sample_off_polytope_exit(tmp_path, capsys):
    poly = tmp_path / "p.json"
    coins = tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(two_node())))
    coins.write_text(json.dumps({"coins": [
        {"edge": 0, "num": 1, "den": 3}, {"edge": 1, "num": 1, "den": 2}]}))
    assert main(["sample", str(poly), str(coins), "--samples", "10"]) == 4


def test_sample_disconnected_exit(tmp_path, capsys):
    from instances import disconnected_pair

    poly = tmp_path / "p.json"
    coins = tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(disconnected_pair())))
    coins.write_text(json.dumps({"coins": [
        {"edge": i, "num": 1, "den": 3} for i in range(4)]}))
    assert main(["sample", str(poly), str(coins), "--samples", "10"]) == 5


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    poly, coins = _write_two_node(tmp_path)
    assert main(["sample", str(bad), coins]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize(
    "field,value",
    [("from", "1"), ("from", 1.0), ("from", [1]), ("to", True), ("id", False), ("id", 0.0)],
    ids=["str", "float", "list", "bool", "id-bool", "id-float"],
)
@pytest.mark.parametrize("command", ["sample", "verify", "dist"])
def test_non_int_endpoint_is_parse_error(tmp_path, capsys, command, field, value):
    poly, coins = _write_two_node(tmp_path)
    data = polytope_to_dict(two_node())
    data["edges"][0][field] = value
    with open(poly, "w") as fh:
        json.dump(data, fh)
    assert main([command, poly, coins]) == 2
    err = capsys.readouterr().err
    assert f"non-integer {'id' if field == 'id' else 'endpoint'}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field,value", [("edge", False), ("num", True), ("den", True)])
def test_bool_coin_field_is_parse_error(tmp_path, capsys, field, value):
    poly, coins = _write_two_node(tmp_path)
    with open(coins) as fh:
        data = json.load(fh)
    data["coins"][0][field] = value
    with open(coins, "w") as fh:
        json.dump(data, fh)
    assert main(["dist", poly, coins]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("command", ["sample", "sample-path", "bench"])
def test_sample_count_below_one_is_parse_error(tmp_path, capsys, command, count):
    poly, coins = _write_two_node(tmp_path)
    out = tmp_path / "out"
    assert main([command, poly, coins, "--samples", count, "--out", str(out)]) == 2
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "sample-path", "bench"])
def test_negative_restart_cap_is_parse_error(tmp_path, capsys, command):
    poly, coins = _write_two_node(tmp_path)
    out = tmp_path / "out"
    assert main([command, poly, coins, "--max-restarts", "-5", "--out", str(out)]) == 2
    assert "--max-restarts" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "sample-path", "bench"])
def test_negative_seed_is_parse_error(tmp_path, capsys, command):
    poly, coins = _write_two_node(tmp_path)
    out = tmp_path / "out"
    assert main([command, poly, coins, "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_dist_output(tmp_path, capsys):
    poly, coins = _write_two_node(tmp_path)
    assert main(["dist", poly, coins]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["probabilities"] == {
        "00": {"den": 3, "num": 2},
        "11": {"den": 3, "num": 1},
    }
    assert data["marginals"] == [
        {"den": 3, "edge": 0, "num": 1},
        {"den": 3, "edge": 1, "num": 1},
    ]


@pytest.mark.parametrize("command", ["dist", "verify"])
def test_oracle_bytes_golden_circ4(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    P = build_circulation_polytope(4)
    (tmp_path / "poly.json").write_text(json.dumps(polytope_to_dict(P)))
    (tmp_path / "coins.json").write_text(json.dumps(coins_to_dict([Fraction(1, 2)] * len(P.edges))))
    assert main([command, "poly.json", "coins.json", "--out", "out.json"]) == 0
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == {
        "dist": "dfe415d656c9c5fd957fdc3ae805dd3a9f1dbf2ad2f7e08d33f0582be1cd5a3d",
        "verify": "6049760440f3eee34549959997f12d747d601b57345b8859b5228c1222ee4065",
    }[command]


def test_dist_root_outside_graph(tmp_path, capsys):
    poly, coins = _write_two_node(tmp_path)
    assert main(["dist", poly, coins, "--root", "99"]) == 4
    assert "InvalidInstance: root 99 touches no variable edge" in capsys.readouterr().err


def test_dist_marginals_echo_coins(tmp_path, capsys):
    poly = tmp_path / "p.json"
    coins = tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(triangle())))
    coins.write_text(json.dumps({"coins": [
        {"edge": i, "num": 1, "den": 3} for i in range(6)]}))
    assert main(["dist", str(poly), str(coins)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["probabilities"]) == 10
    total = sum(Fraction(v["num"], v["den"]) for v in data["probabilities"].values())
    assert total == 1
    for rec in data["marginals"]:
        assert (rec["num"], rec["den"]) == (1, 3)


def test_verify_all_pass(tmp_path, capsys):
    poly, coins = _write_two_node(tmp_path)
    assert main(["verify", poly, coins]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in report["checks"])
    assert report["exact_marginals"] == [
        {"den": 3, "edge": 0, "num": 1},
        {"den": 3, "edge": 1, "num": 1},
    ]


def test_verify_positivity_failure_exit(tmp_path, capsys):
    from instances import disconnected_pair

    poly = tmp_path / "p.json"
    coins = tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(disconnected_pair())))
    coins.write_text(json.dumps({"coins": [
        {"edge": i, "num": 1, "den": 3} for i in range(4)]}))
    out = tmp_path / "report.json"
    code = main(["verify", str(poly), str(coins), "--checks", "positivity", "--out", str(out)])
    assert code == 8
    report = json.loads(out.read_text())
    assert report["checks"][0]["name"] == "positivity"
    assert report["checks"][0]["pass"] is False


def _write_triangle(tmp_path):
    poly = tmp_path / "p.json"
    coins = tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(triangle())))
    coins.write_text(json.dumps({"coins": [
        {"edge": i, "num": 1, "den": 3} for i in range(6)]}))
    return str(poly), str(coins)


@pytest.mark.parametrize("check, module, name, detail", [
    ("factored-form", "flowfactory.cli", "eval_polynomial_factored", "mismatch"),
    ("matrix-tree", "flowfactory.spanning", "qualifying_tree_count", "count mismatch"),
])
def test_verify_check_fails_on_a_perturbed_side(tmp_path, monkeypatch, check, module, name, detail):
    # Perturb the side of the comparison that no table caches, at the last
    # vertex and the last root, so the check has to reach it to fail.
    import importlib

    from flowfactory.graphs import enumerate_vertices
    from flowfactory.io import flow_key

    P = triangle()
    f_bad, r_bad = enumerate_vertices(P)[-1], P.graph.incident_nodes[-1]
    mod = importlib.import_module(module)
    honest = getattr(mod, name)

    def perturbed(P, f, root, *rest):
        return honest(P, f, root, *rest) + (f == f_bad and root == r_bad)

    monkeypatch.setattr(mod, name, perturbed)
    out = tmp_path / "report.json"
    assert main(["verify", *_write_triangle(tmp_path), "--checks", check, "--out", str(out)]) == 8
    report = json.loads(out.read_text())
    assert report["checks"] == [{
        "name": check, "pass": False,
        "detail": f"{detail} at f={flow_key(f_bad)} root={r_bad}",
    }]


def test_verify_evaluates_each_vertex_polynomial_once_per_root(tmp_path, monkeypatch):
    import re
    from collections import Counter
    from pathlib import Path

    from flowfactory import cli, oracle

    calls, orientations = [], Counter()
    honest = oracle.eval_polynomial
    orient_toward = oracle._orient_toward

    def counted(*args):
        calls.append(args[1:3])
        return honest(*args)

    def counted_orientation(edges, root):
        orientations[tuple(edges), root] += 1
        return orient_toward(edges, root)

    oracle.polynomial_values.cache_clear()
    oracle._orientations.cache_clear()
    monkeypatch.setattr(oracle, "eval_polynomial", counted)
    monkeypatch.setattr(oracle, "_orient_toward", counted_orientation)
    assert main(["verify", *_write_triangle(tmp_path)]) == 0
    assert len(calls) == 30 and len(set(calls)) == 30  # 10 vertices x 3 roots
    # One orientation per (tree, node): 12 trees x 3 nodes.
    assert len(orientations) == 36 and max(orientations.values()) == 1
    text = Path(cli.__file__).read_text()
    for name in ("flip_tree", "is_arborescence", "eval_polynomial", "_orient_toward"):
        assert not re.search(rf"\b{name}\b", text), name


def test_verify_bijection_fails_on_one_perturbed_flip_image(tmp_path, monkeypatch):
    # Flip the bit that one (tree, root) pattern asks of the tree's first
    # edge, so that root's family is the vertices with the wrong flip image:
    # the exchange map must then break, and mend once it is gone.
    from flowfactory import oracle
    from flowfactory.graphs import enumerate_vertices

    P = triangle()
    tree = oracle.enumerate_directed_trees(P.graph)[0]
    root = P.graph.incident_nodes[0]
    honest = oracle._Orientations.orientation

    def perturbed(self, t, r):
        toward, members = honest(self, t, r)
        if (t, r) == (tree, root):
            want = [int(P.edges[i] not in toward) for i in t]
            want[0] ^= 1
            members = sum(1 << j for j, f in enumerate(enumerate_vertices(P))
                          if [f[i] for i in t] == want)
        return toward, members

    paths = _write_triangle(tmp_path)
    out = tmp_path / "report.json"
    argv = ["verify", *paths, "--checks", "bijection", "--out", str(out)]
    oracle._orientations.cache_clear()
    monkeypatch.setattr(oracle._Orientations, "orientation", perturbed)
    assert main(argv) == 8
    (check,) = json.loads(out.read_text())["checks"]
    assert not check["pass"] and check["detail"].startswith("IdentityViolated: "), check
    monkeypatch.undo()
    oracle._orientations.cache_clear()
    assert main(argv) == 0
    assert json.loads(out.read_text())["checks"][0]["pass"] is True


@pytest.mark.parametrize("command", ["verify", "dist", "sample", "sample-path", "bench"])
def test_empty_edge_list_exits_5(tmp_path, capsys, command):
    poly = tmp_path / "p.json"
    coins = tmp_path / "c.json"
    poly.write_text(json.dumps({"nodes": 2, "edges": [], "demands": [0, 0]}))
    coins.write_text(json.dumps({"coins": []}))
    assert main([command, str(poly), str(coins)]) == 5
    captured = capsys.readouterr()
    assert captured.err == ("error: DisconnectedEdges: the edge list is empty: "
                            "no variable edge to sample or verify\n")
    assert captured.out == ""


@pytest.mark.parametrize("checks", ["bogus", ",", "positivity,bogus", ""])
def test_verify_unknown_check_is_parse_error(tmp_path, checks):
    paths = _write_two_node(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "flowfactory", "verify", *paths, "--checks", checks],
        capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "unknown check" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["verify", "dist"])
def test_oracle_command_above_enumeration_limit_exits_7(tmp_path, capsys, command):
    P = build_circulation_polytope(6)  # 30 edges
    poly = tmp_path / "p.json"
    coins = tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(P)))
    coins.write_text(json.dumps(coins_to_dict([Fraction(1, 2)] * len(P.edges))))
    assert main([command, str(poly), str(coins)]) == 7
    err = capsys.readouterr().err
    assert "TooLargeForOracle" in err
    assert "Traceback" not in err


def test_sample_path_cli(tmp_path, capsys):
    from instances import diamond_dag

    poly = tmp_path / "p.json"
    coins = tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(diamond_dag())))
    coins.write_text(json.dumps({"coins": [
        {"edge": i, "num": 1, "den": 2} for i in range(4)]}))
    out = tmp_path / "paths.jsonl"
    assert main(["sample-path", str(poly), str(coins), "--samples", "500", "--seed", "3", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        flow = json.loads(line)["flow"]
        assert flow in ([0, 2], [1, 3])


def test_sample_path_rejects_cycle(tmp_path, capsys):
    poly, coins = _write_two_node(tmp_path)
    assert main(["sample-path", poly, coins, "--samples", "5"]) == 4


def test_bench_deterministic_stats(tmp_path, capsys):
    poly, coins = _write_two_node(tmp_path)
    assert main(["bench", poly, coins, "--samples", "100", "--seed", "4"]) == 0
    d1 = json.loads(capsys.readouterr().out)
    assert main(["bench", poly, coins, "--samples", "100", "--seed", "4"]) == 0
    d2 = json.loads(capsys.readouterr().out)
    assert d1["stats"] == d2["stats"]
    assert main(["bench", poly, coins, "--samples", "1"]) == 0
    capsys.readouterr()


def test_cli_calls_do_not_import_scipy(tmp_path):
    """Only the statistical harness needs scipy; sample and verify must not pay its import."""
    poly, coins = _write_two_node(tmp_path)
    out = str(tmp_path / "out.jsonl")
    script = (
        "import sys, flowfactory\n"
        "from flowfactory.cli import main\n"
        f"assert main(['sample', {poly!r}, {coins!r}, '--samples', '5', '--seed', '0', '--out', {out!r}]) == 0\n"
        f"assert main(['verify', {poly!r}, {coins!r}, '--out', {out!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
