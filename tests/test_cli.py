import argparse
import hashlib
import json
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowfactory import (
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    random_interior_point,
)
from flowfactory import cli
from flowfactory.cli import main
from flowfactory.io import (
    coins_from_dict,
    empirical,
    polytope_from_dict,
    polytope_to_dict,
    sample_line,
)

from fractions import Fraction

from instances import circ5m, coins_to_dict, replace_entry, subprocess_env, triangle, two_node


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


@pytest.mark.parametrize("command", ["dist", "bench"])
def test_disconnected_support_exits_5(tmp_path, capsys, command):
    # dist finds every sampling polynomial zero there (DegenerateDistribution).
    from instances import disconnected_pair

    poly = tmp_path / "p.json"
    coins = tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(disconnected_pair())))
    coins.write_text(json.dumps(coins_to_dict([Fraction(1, 3)] * 4)))
    assert main([command, str(poly), str(coins)]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_every_error_type_has_its_documented_exit_code():
    import inspect

    from flowfactory import cli, errors

    documented = {
        "FlowFactoryError": 4, "InvalidInstance": 4, "NotInPolytope": 4, "NotCirculation": 4,
        "IdentityViolated": 4, "BoundaryCoin": 3, "DisconnectedEdges": 5, "NoArborescence": 5,
        "DegenerateDistribution": 5, "MaxRestartsExceeded": 6, "TooLargeForOracle": 7,
    }
    types = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
             if issubclass(cls, errors.FlowFactoryError)}
    assert {name: cli._exit_code(cls("x")) for name, cls in types.items()} == documented


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    poly, coins = _write_two_node(tmp_path)
    assert main(["sample", str(bad), coins]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize("which", ["polytope", "coins"])
def test_deeply_nested_json_is_parse_error(tmp_path, capsys, which):
    poly, coins = _write_two_node(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = [str(deep), coins] if which == "polytope" else [poly, str(deep)]
    assert main(["dist", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b'{"nodes": ' + b"9" * 5000 + b"}"],
                         ids=["not-utf8", "integer-past-the-digit-limit"])
def test_a_json_file_that_cannot_be_read_is_a_parse_error(tmp_path, capsys, text):
    # Both raise a ValueError other than JSONDecodeError inside json.load
    # (the integer where Python limits the digits of an int read from text).
    poly, coins = _write_two_node(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert main(["dist", str(bad), coins]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_only_input_errors_exit_2(tmp_path, monkeypatch):
    # io's schema and JSON faults raise InputError, a ValueError, and exit 2.
    # Any other ValueError, as a numpy shape fault inside the oracle raises,
    # is a fault of the program, not of the input: it is not reported as a
    # parse error but propagates.
    from flowfactory import oracle
    from flowfactory.errors import InputError

    assert issubclass(InputError, ValueError)
    with pytest.raises(InputError):
        coins_from_dict({"coins": []}, 1)

    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(oracle, "_weights", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["verify", *_write_triangle(tmp_path), "--checks", "positivity"])


@pytest.mark.parametrize("command", ["gen", "sample", "sample-path", "dist", "verify", "bench"])
def test_empty_out_writes_to_stdout(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    P = build_kflow_polytope(4, 1)  # a DAG with unit demands, so sample-path runs on it too
    (tmp_path / "poly.json").write_text(json.dumps(polytope_to_dict(P)))
    x = random_interior_point(P, random.Random(3))
    (tmp_path / "coins.json").write_text(json.dumps(coins_to_dict(x)))
    argv = {"gen": ["kflow", "--nodes", "4"], "dist": ["poly.json", "coins.json"],
            "verify": ["poly.json", "coins.json"]}.get(command, ["poly.json", "coins.json", "--samples", "20"])
    outputs = []
    for extra in ([], ["--out", ""]):
        assert main([command, *argv, *extra]) == 0
        out, err = capsys.readouterr()
        outputs.append((json.loads(out)["stats"] if command == "bench" else out, err))
    assert outputs[0] == outputs[1] and outputs[0][0]


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


@pytest.mark.parametrize("instance, command", [
    pytest.param("circ4", "dist", id="dist"),
    pytest.param("circ4", "verify", id="verify"),
    pytest.param("circ5m", "dist", id="circ5m-dist"),
    pytest.param("circ5m", "verify", id="circ5m-verify"),
    pytest.param("match3", "dist", id="match3-dist"),
    pytest.param("match3", "verify", id="match3-verify"),
    pytest.param("kflow5_2", "dist", id="kflow5_2-dist"),
    pytest.param("kflow5_2", "verify", id="kflow5_2-verify"),
])
def test_oracle_bytes_golden_circ4(tmp_path, capsys, monkeypatch, instance, command):
    # circ4 and circ5m (|V| = 2,440) at 1/2; match3 and kflow5_2, with nonzero
    # demands, at an uneven interior point.
    monkeypatch.chdir(tmp_path)
    if instance in ("circ4", "circ5m"):
        P = build_circulation_polytope(4) if instance == "circ4" else circ5m()
        x = [Fraction(1, 2)] * len(P.edges)
    else:
        P = build_matching_polytope(3) if instance == "match3" else build_kflow_polytope(5, 2)
        x = random_interior_point(P, random.Random(3))
    (tmp_path / "poly.json").write_text(json.dumps(polytope_to_dict(P)))
    (tmp_path / "coins.json").write_text(json.dumps(coins_to_dict(x)))
    assert main([command, "poly.json", "coins.json", "--out", "out.json"]) == 0
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == {
        ("circ4", "dist"): "dfe415d656c9c5fd957fdc3ae805dd3a9f1dbf2ad2f7e08d33f0582be1cd5a3d",
        ("circ4", "verify"): "6049760440f3eee34549959997f12d747d601b57345b8859b5228c1222ee4065",
        ("circ5m", "dist"): "89155b32e095afd5b1d9d3d48de136fd992b4d23fcfb54a58138ee1e551514b8",
        ("circ5m", "verify"): "17257a73377adcecb337a17983aeab578c3601178eae32a97a03f8a58952486d",
        ("match3", "dist"): "9a3e2e513b02c494b0801a640730691714bdd91a8d81dacb77996795e7dee23d",
        ("match3", "verify"): "1ff6f4dec2ed4bf0e927c2d8e4220f6f95d5ded988a389f5aa01a586140f362c",
        ("kflow5_2", "dist"): "4fd47b6c81f1e17e3c937500262782e4695963d6990feb24fd6377713cc4d886",
        ("kflow5_2", "verify"): "223289dbf459e7497618a5d9af51b7940b1813aa86cf8c8008eaa1169eb3a1a1",
    }[instance, command]


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


def test_verify_twice_in_process_writes_equal_reports_from_one_parser(tmp_path):
    # The parser is built once per process and shared by every call; a call
    # with a --checks subset in between leaves no state in it for the next.
    poly, coins = _write_triangle(tmp_path)
    cli.command_parser.cache_clear()
    first, subset, second = (str(tmp_path / name) for name in ("first.json", "subset.json", "second.json"))
    assert main(["verify", poly, coins, "--out", first]) == 0
    assert main(["verify", poly, coins, "--checks", "zls,positivity", "--out", subset]) == 0
    assert main(["verify", poly, coins, "--out", second]) == 0
    with open(first, "rb") as a, open(second, "rb") as b:
        report = a.read()
        assert report == b.read()
    assert [c["name"] for c in json.loads(report)["checks"]] == list(cli._ALL_CHECKS)
    assert cli.command_parser.cache_info().misses == 1


_COMMANDS = ("gen", "sample", "sample-path", "dist", "verify", "bench")

# Each argv runs through main and through the whole parser; P, C and OUT stand
# for the two-node instance's files and a report path.
_PARSE_CASES = {
    "no-argv": [], "help": ["-h"], "unknown-command": ["nonsense"],
    **{f"{name}-help": [name, "-h"] for name in _COMMANDS},
    "missing-positional": ["verify", "P"],
    "extra-positional": ["verify", "P", "C", "extra"],
    "unknown-flag": ["sample", "P", "C", "--bogus"],
    "out-equals": ["verify", "P", "C", "--out=OUT"],
    "abbreviated-flag": ["sample", "P", "C", "--sam", "5"],
    "zero-samples": ["bench", "P", "C", "--samples", "0"],
    "negative-seed": ["sample-path", "P", "C", "--seed", "-1"],
    "unknown-check": ["verify", "P", "C", "--checks", "bogus"],
    "gen-kflow": ["gen", "kflow", "--nodes", "4", "--k", "2"],
}


@pytest.mark.parametrize("argv", _PARSE_CASES.values(), ids=_PARSE_CASES)
def test_one_command_parse_matches_the_whole_parser(tmp_path, capsys, monkeypatch, argv):
    # The same exit code, stdout, stderr and written file, and on success the same namespace.
    poly, coins = _write_two_node(tmp_path)
    out = tmp_path / "out.json"
    names = {"P": poly, "C": coins, "--out=OUT": f"--out={out}"}
    argv = [names.get(a, a) for a in argv]

    def run(parse):
        parsed = []
        monkeypatch.setattr(cli, "parse_args", lambda argv: parsed.append(parse(argv)) or parsed[-1])
        code = main(argv)
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, capsys.readouterr(), written, parsed

    one = run(cli.parse_args)
    assert one == run(lambda argv: cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [["verify", "P", "C", "--checks", "zls"]] + [[name, "-h"] for name in _COMMANDS])
def test_a_named_command_builds_one_parser(tmp_path, capsys, monkeypatch, argv):
    poly, coins = _write_two_node(tmp_path)
    argv = [{"P": poly, "C": coins}.get(a, a) for a in argv]
    cli.build_parser.cache_clear()
    cli.command_parser.cache_clear()
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw))
    assert main(argv) == 0
    assert built == [f"flowfactory {argv[0]}"]


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "built, init = [], argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **kw: built.append(kw) or init(self, *a, **kw)\n"
            "import flowfactory.cli\n"
            "print(len(built))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(),
                          timeout=120, check=True)
    assert done.stdout == "0\n"


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


def test_verify_report_on_a_disconnected_support(tmp_path):
    # No spanning tree, so every root's entries are empty and every weight is
    # 0: each check's row is pinned as written before the integer table.
    from instances import disconnected_pair

    poly, coins, out = tmp_path / "p.json", tmp_path / "c.json", tmp_path / "report.json"
    poly.write_text(json.dumps(polytope_to_dict(disconnected_pair())))
    coins.write_text(json.dumps({"coins": [{"edge": i, "num": 1, "den": 3} for i in range(4)]}))
    assert main(["verify", str(poly), str(coins), "--out", str(out)]) == 8
    report = json.loads(out.read_text())
    assert [(c["name"], c["pass"], c["detail"]) for c in report["checks"]] == [
        ("root-independence", True, "polynomial values agree across roots"),
        ("marginal", True, "sum_f (f-x) P_f(x) == 0"),
        ("positivity", False, "all polynomials vanish"),
        ("factored-form", True, "tree-sum equals prefix * arborescence-sum everywhere"),
        ("bijection", True, "verified 0 (tree, eta) pairs"),
        ("parallel-to-circ", True, "vertex differences are balanced"),
        ("zls", True, "all principal cofactors equal"),
        ("matrix-tree", True, "determinant counts match enumeration"),
    ]
    assert report["exact_marginals"] == []


def _write_triangle(tmp_path):
    poly = tmp_path / "p.json"
    coins = tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(triangle())))
    coins.write_text(json.dumps({"coins": [
        {"edge": i, "num": 1, "den": 3} for i in range(6)]}))
    return str(poly), str(coins)


@pytest.mark.parametrize("check, module, detail", [
    ("factored-form", "flowfactory.oracle", "mismatch"),
    ("matrix-tree", "flowfactory.oracle", "count mismatch"),
], ids=["factored-form", "matrix-tree"])
def test_verify_check_fails_on_a_perturbed_side(tmp_path, monkeypatch, check, module, detail):
    # Perturb the side of the comparison that no table caches, the stacked
    # root minors, at the last vertex and the last root, so the check has to
    # reach it to fail.
    import importlib

    from flowfactory.graphs import enumerate_vertices
    from flowfactory.io import flow_key

    P = triangle()
    f_bad, r_bad = enumerate_vertices(P)[-1], P.graph.incident_nodes[-1]
    mod = importlib.import_module(module)
    honest = mod.root_minors

    def perturbed(L, at):
        minors = honest(L, at)  # per root in `at` (an array of node indices), one per vertex
        minors[:, -1] += at == P.graph.incident_nodes.index(r_bad)
        return minors

    monkeypatch.setattr(mod, "root_minors", perturbed)
    out = tmp_path / "report.json"
    assert main(["verify", *_write_triangle(tmp_path), "--checks", check, "--out", str(out)]) == 8
    report = json.loads(out.read_text())
    assert report["checks"] == [{
        "name": check, "pass": False,
        "detail": f"{detail} at f={flow_key(f_bad)} root={r_bad}",
    }]


def test_verify_checks_name_their_first_mismatch_in_their_own_order(tmp_path, monkeypatch):
    # The stacked root minors are off at two cells, (first vertex, last root)
    # and (last vertex, first root).  factored-form goes root by root, so it
    # names the second; matrix-tree goes vertex by vertex, so it names the first.
    from flowfactory import oracle
    from flowfactory.graphs import enumerate_vertices
    from flowfactory.io import flow_key

    P = triangle()
    vertices, roots = enumerate_vertices(P), P.graph.incident_nodes
    honest = oracle.root_minors

    def perturbed(L, at):
        minors = honest(L, at)  # per root in `at` (an array of node indices), one per vertex
        minors[:, 0] += at == len(roots) - 1
        minors[:, -1] += at == 0
        return minors

    monkeypatch.setattr(oracle, "root_minors", perturbed)
    out = tmp_path / "report.json"
    argv = ["verify", *_write_triangle(tmp_path), "--checks", "factored-form,matrix-tree", "--out", str(out)]
    assert main(argv) == 8
    assert json.loads(out.read_text())["checks"] == [
        {"name": "factored-form", "pass": False,
         "detail": f"mismatch at f={flow_key(vertices[-1])} root={roots[0]}"},
        {"name": "matrix-tree", "pass": False,
         "detail": f"count mismatch at f={flow_key(vertices[0])} root={roots[-1]}"},
    ]


def test_verify_passes_where_the_minors_exceed_int64(tmp_path):
    # circ3 at a point over a denominator near 2^70: every M_f(x) weight is
    # near 2^70, so its 2x2 root minors exceed int64, and the stacked
    # elimination must still take them exactly.
    from flowfactory.graphs import enumerate_vertices
    from flowfactory.oracle import _over_common_denominator
    from flowfactory.spanning import flip_laplacians, root_minors

    P = build_circulation_polytope(3)
    vertices = enumerate_vertices(P)
    weights = [2 ** 70 + 3 ** k for k in range(len(vertices))]
    x = tuple(sum(Fraction(w) * f[i] for w, f in zip(weights, vertices)) / sum(weights)
              for i in range(len(P.edges)))
    num, den = _over_common_denominator(x)
    laplacians = flip_laplacians(P, vertices, num, [den - n for n in num])
    assert min(abs(v) for at in range(3) for v in root_minors(laplacians, at)) > 2 ** 63
    poly, coins = tmp_path / "p.json", tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(P)))
    coins.write_text(json.dumps(coins_to_dict(x)))
    out = tmp_path / "report.json"
    argv = ["verify", str(poly), str(coins), "--checks", "factored-form,matrix-tree", "--out", str(out)]
    assert main(argv) == 0
    assert [(c["name"], c["pass"]) for c in json.loads(out.read_text())["checks"]] == [
        ("factored-form", True), ("matrix-tree", True)]


def _root_minors_off_at_the_last_root(oracle, P):
    honest = oracle.root_minors
    last = len(P.graph.incident_nodes) - 1
    # `at` is an array of node indices, one row of minors each.
    return "root_minors", lambda L, at: honest(L, at) + (at == last)[:, None]


def _weights_edited(edit):
    """A perturbation of the integer weight table that the value checks read:
    edit(w, P, root) changes a copy of each root's table."""
    def perturb(oracle, P):
        honest = oracle._weights

        def perturbed(P, x, root):
            w = honest(P, x, root).copy()
            edit(w, P, root)
            return w

        return "_weights", perturbed
    return perturb


def _first_weight_up(w, P, root):
    w[0] += 1


def _last_weight_up_at_the_last_root(w, P, root):
    w[-1] += root == P.graph.incident_nodes[-1]


def _every_weight_zero(w, P, root):
    w[:] = 0


@pytest.mark.parametrize("check, perturb, detail", [
    ("zls", _root_minors_off_at_the_last_root, "cofactors differ"),
    ("marginal", _weights_edited(_first_weight_up), "marginal identity fails"),
    ("root-independence", _weights_edited(_last_weight_up_at_the_last_root), "root disagreement"),
    ("positivity", _weights_edited(_every_weight_zero), "all polynomials vanish"),
], ids=["zls", "marginal", "root-independence", "positivity"])
def test_verify_identity_check_fails_on_a_perturbed_input(tmp_path, monkeypatch, check, perturb, detail):
    from flowfactory import oracle

    monkeypatch.setattr(oracle, *perturb(oracle, triangle()))
    out = tmp_path / "report.json"
    assert main(["verify", *_write_triangle(tmp_path), "--checks", check, "--out", str(out)]) == 8
    assert json.loads(out.read_text())["checks"] == [{"name": check, "pass": False, "detail": detail}]


def test_verify_parallel_to_circ_fails_on_an_off_balance_vertex(tmp_path, monkeypatch):
    # One 0/1 vector that meets no demand, among the vertices the check reads,
    # fails it.  The tables are built first, so the exact marginals of the
    # report read the honest vertices, and no later test sees the extra one.
    from flowfactory import oracle

    P = triangle()
    oracle.exact_output_distribution(P, [Fraction(1, 3)] * 6)
    honest = oracle.enumerate_vertices
    monkeypatch.setattr(oracle, "enumerate_vertices", lambda P: honest(P) + [(1, 0, 0, 0, 0, 0)])
    out = tmp_path / "report.json"
    assert main(["verify", *_write_triangle(tmp_path), "--checks", "parallel-to-circ", "--out", str(out)]) == 8
    assert json.loads(out.read_text())["checks"] == [
        {"name": "parallel-to-circ", "pass": False, "detail": "unbalanced difference"}]


def test_verify_evaluates_each_vertex_polynomial_once_per_root(tmp_path, monkeypatch):
    import re
    from pathlib import Path

    from flowfactory import cli, oracle

    builds = []
    head_sides = oracle._head_sides

    def counted_build(ends, tree_edges, k):
        builds.append(len(tree_edges))
        return head_sides(ends, tree_edges, k)

    oracle._weights.cache_clear()
    oracle._orientations.cache_clear()
    monkeypatch.setattr(oracle, "_head_sides", counted_build)
    assert main(["verify", *_write_triangle(tmp_path)]) == 0
    assert oracle._weights.cache_info().misses == 3  # one integer table per root
    # The sides are built once per polytope, for all 12 trees and every root.
    assert builds == [12]
    text = Path(cli.__file__).read_text()
    for name in ("flip_tree", "is_arborescence", "eval_polynomial", "_orient_toward"):
        assert not re.search(rf"\b{name}\b", text), name


def _verify_with_one_entry_replaced(monkeypatch, argv, change):
    """main(argv) with the triangle's first tree's entry toward its first node
    replaced by change(table, pattern, positions) (instances.replace_entry),
    from an empty tree table and weight cache, which are emptied again after."""
    from flowfactory import oracle

    P = triangle()
    oracle._orientations.cache_clear()
    oracle._weights.cache_clear()
    try:
        with monkeypatch.context() as patch:
            replace_entry(patch, oracle.enumerate_directed_trees(P.graph)[0], P.graph.incident_nodes[0], change)
            return main(argv)
    finally:
        oracle._orientations.cache_clear()
        oracle._weights.cache_clear()


def test_verify_bijection_fails_on_one_perturbed_flip_image(tmp_path, monkeypatch):
    # Flip the bit that one (tree, root) pattern asks of the tree's first
    # edge, so that root's family is the vertices with the wrong flip image:
    # the exchange map must then break, and mend once it is gone.
    from flowfactory.graphs import enumerate_vertices

    def perturbed(table, pattern, positions):
        tree = table.trees[0]
        pattern ^= 1 << tree[0]
        return pattern, [j for j, f in enumerate(enumerate_vertices(triangle()))
                         if all(f[i] == pattern >> i & 1 for i in tree)]

    paths = _write_triangle(tmp_path)
    out = tmp_path / "report.json"
    argv = ["verify", *paths, "--checks", "bijection", "--out", str(out)]
    assert _verify_with_one_entry_replaced(monkeypatch, argv, perturbed) == 8
    (check,) = json.loads(out.read_text())["checks"]
    assert not check["pass"] and check["detail"].startswith("IdentityViolated: "), check
    assert main(argv) == 0
    assert json.loads(out.read_text())["checks"][0]["pass"] is True


def test_verify_bijection_fails_on_a_family_off_its_pattern(tmp_path, monkeypatch):
    # Keep one (tree, root) pattern, so the exchange vector stays sound, but
    # list as its vertices those whose bits on the tree's first edge differ
    # from it: the family check, not the vector checks, must then fail.
    from flowfactory.graphs import enumerate_vertices

    def perturbed(table, pattern, positions):
        tree = table.trees[0]
        wrong = pattern ^ 1 << tree[0]
        return pattern, [j for j, f in enumerate(enumerate_vertices(triangle()))
                         if all(f[i] == wrong >> i & 1 for i in tree)]

    out = tmp_path / "report.json"
    argv = ["verify", *_write_triangle(tmp_path), "--checks", "bijection", "--out", str(out)]
    assert _verify_with_one_entry_replaced(monkeypatch, argv, perturbed) == 8
    (check,) = json.loads(out.read_text())["checks"]
    assert check["detail"] == "IdentityViolated: exchange map is not a bijection onto the target family"


def test_verify_bijection_fails_on_one_flipped_vertex_bit(tmp_path):
    # Flip edge 0's bit in the first vertex's edge-bit int once every root's
    # entries are built: their positions keep the honest bit, so a family
    # split on eta's bit goes wrong and the exchange map must break.
    from flowfactory import oracle

    out = tmp_path / "report.json"
    argv = ["verify", *_write_triangle(tmp_path), "--checks", "bijection", "--out", str(out)]
    oracle._orientations.cache_clear()
    try:
        table = oracle._orientations(triangle())
        for root in triangle().graph.incident_nodes:
            table.entries(root)
        table.masks[0] ^= 1
        assert main(argv) == 8
    finally:
        oracle._orientations.cache_clear()
    (check,) = json.loads(out.read_text())["checks"]
    assert not check["pass"] and check["detail"].startswith("IdentityViolated: "), check
    assert main(argv) == 0


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


_OUT_OF_RANGE = {
    # Node 1 has one out-edge and no in-edge, so it sends 0 or 1 units.
    "above-out-degree": ({"nodes": 2, "edges": [{"id": 0, "from": 1, "to": 2}], "demands": [2, -2]},
                         '{"coins": [{"edge": 0, "num": 1, "den": 2}]}', "[0, 1]", 2),
    # No edge: the demand rule comes before the empty-edge-list check (exit 5).
    "edgeless": ({"nodes": 2, "edges": [], "demands": [1, -1]}, '{"coins": []}', "[0, 0]", 1),
    # The polytope file loads first, so the malformed coin file (exit 2) is never read.
    "malformed-coins": ({"nodes": 2, "edges": [{"id": 0, "from": 1, "to": 2}], "demands": [2, -2]},
                        "{not json", "[0, 1]", 2),
}


@pytest.mark.parametrize("case", list(_OUT_OF_RANGE))
@pytest.mark.parametrize("command", ["sample", "dist", "verify", "sample-path", "bench"])
def test_a_demand_outside_its_nodes_range_exits_4_when_the_polytope_loads(tmp_path, capsys, command, case):
    polytope, coin_text, bounds, demand = _OUT_OF_RANGE[case]
    poly, coins = tmp_path / "p.json", tmp_path / "c.json"
    poly.write_text(json.dumps(polytope))
    coins.write_text(coin_text)
    assert main([command, str(poly), str(coins), "--out", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: InvalidInstance: demand {demand} of node 1 lies outside its range {bounds}\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_a_demand_outside_its_nodes_range_exits_4_without_traceback(tmp_path):
    polytope, coin_text, _, _ = _OUT_OF_RANGE["above-out-degree"]
    poly, coins = tmp_path / "p.json", tmp_path / "c.json"
    poly.write_text(json.dumps(polytope))
    coins.write_text(coin_text)
    proc = subprocess.run([sys.executable, "-m", "flowfactory", "sample", str(poly), str(coins)],
                          capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: InvalidInstance: demand 2 of node 1 lies outside its range [0, 1]\n"
    assert proc.stdout == ""


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


def test_sample_path_rejects_a_directed_cycle_under_unit_demands(tmp_path, capsys):
    from instances import crossed_diamond

    P, x = crossed_diamond()
    poly, coins = tmp_path / "p.json", tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(P)))
    coins.write_text(json.dumps(coins_to_dict(x)))
    assert main(["sample-path", str(poly), str(coins), "--samples", "5"]) == 4
    assert "graph contains a directed cycle; not a DAG" in capsys.readouterr().err


def test_bench_deterministic_stats(tmp_path, capsys):
    poly, coins = _write_two_node(tmp_path)
    assert main(["bench", poly, coins, "--samples", "100", "--seed", "4"]) == 0
    d1 = json.loads(capsys.readouterr().out)
    assert main(["bench", poly, coins, "--samples", "100", "--seed", "4"]) == 0
    d2 = json.loads(capsys.readouterr().out)
    assert d1["stats"] == d2["stats"]
    assert main(["bench", poly, coins, "--samples", "1"]) == 0
    capsys.readouterr()


def test_bench_means_match_the_sample_lines(tmp_path, capsys):
    P = build_circulation_polytope(4)
    poly, coins = tmp_path / "p.json", tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(P)))
    coins.write_text(json.dumps(coins_to_dict([Fraction(1, 2)] * len(P.edges))))
    argv = [str(poly), str(coins), "--samples", "100", "--seed", "5"]
    out = tmp_path / "s.jsonl"
    assert main(["sample", *argv, "--out", str(out)]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    capsys.readouterr()
    assert main(["bench", *argv]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["mean_flips"] == empirical(sum(r["flips"] for r in recs) / len(recs))
    assert stats["mean_restarts"] == empirical(sum(r["restarts"] for r in recs) / len(recs))


def _write_circ4(tmp_path):
    P = build_circulation_polytope(4)
    poly, coins = tmp_path / "p.json", tmp_path / "c.json"
    poly.write_text(json.dumps(polytope_to_dict(P)))
    coins.write_text(json.dumps(coins_to_dict([Fraction(1, 2)] * len(P.edges))))
    return str(poly), str(coins)


def test_sample_summary_marginals_match_the_lines(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    assert main(["sample", *_write_circ4(tmp_path), "--samples", "300", "--seed", "2", "--out", str(out)]) == 0
    flows = [json.loads(line)["flow"] for line in out.read_text().splitlines()]
    summary = json.loads(capsys.readouterr().out)
    assert summary["empirical_marginals"] == [empirical(sum(e in f for f in flows) / 300) for e in range(12)]


def test_sample_restart_cap_writes_no_out_file(tmp_path, capsys):
    # About two in three circ4 samples at 1/2 end within 1,500 restarts, so
    # lines are made before the sample that exits 6; none of them is written.
    out = tmp_path / "s.jsonl"
    argv = ["sample", *_write_circ4(tmp_path), "--samples", "40", "--seed", "0", "--max-restarts", "1500"]
    assert main([*argv, "--out", str(out)]) == 6
    assert not out.exists() and capsys.readouterr().out == ""
    assert main([*argv[:5], "--samples", "1", "--out", str(out)]) == 0  # the first sample ends within the cap


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=150), st.integers(0, 10**18), st.integers(0, 10**18))
@example([], 0, 0)
@example([1] * 70, 10**18, 10**18)
def test_sample_line_is_sorted_key_json(f, flips, restarts):
    assert sample_line(tuple(f), flips, restarts) == json.dumps(
        {"flips": flips, "flow": [i for i, b in enumerate(f) if b], "restarts": restarts}, sort_keys=True)


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
