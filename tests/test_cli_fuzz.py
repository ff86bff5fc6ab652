"""Mutated instance and coin files never end a CLI call in a traceback.

Each case takes the polytope and coin JSON of a small instance, replaces,
deletes or retypes one of their fields (with small ints only, so that no
instance grows large), and runs every command that reads them in-process.
Every call must return 0 or a documented error code, 2 to 8.
"""

import json
from random import Random

import pytest

from flowfactory import (
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    random_interior_point,
)
from flowfactory import io
from flowfactory.cli import main

from instances import coins_to_dict

CASES = 120
DRAW = ["--samples", "2", "--max-restarts", "2000", "--seed", "7"]
RUNS = (["sample", *DRAW], ["sample-path", *DRAW], ["bench", *DRAW], ["dist"], ["verify"])


def _files():
    for P in (build_circulation_polytope(3), build_kflow_polytope(4, 1), build_matching_polytope(2)):
        x = random_interior_point(P, Random(0))
        yield io.polytope_to_dict(P), coins_to_dict(x)


def _fields(data):
    """Every (container, key or index) in the JSON value `data`."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in list(items):
        yield data, key
        if isinstance(value, (dict, list)):
            yield from _fields(value)


def _mutate(data, rng):
    """Replace an int field of `data` with a small int, or delete or retype any field, in place."""
    fields = list(_fields(data))
    action = rng.choice(("replace", "replace", "delete", "retype"))
    if action == "replace":
        fields = [(c, k) for c, k in fields if type(c[k]) is int] or fields
    container, key = rng.choice(fields)
    value = container[key]
    if action == "replace":
        container[key] = rng.randrange(-1, 6)
    elif action == "delete":
        del container[key]
    else:
        container[key] = rng.choice([str(value), [value], None, True, 1.5, {}])


def test_mutated_files_exit_with_a_documented_code(tmp_path, capsys):
    rng = Random(2024)
    bases = list(_files())
    poly, coins = tmp_path / "p.json", tmp_path / "c.json"
    for _ in range(CASES):
        P, x = json.loads(json.dumps(rng.choice(bases)))
        _mutate(rng.choice((P, x)), rng)
        poly.write_text(json.dumps(P))
        coins.write_text(json.dumps(x))
        for command, *flags in RUNS:
            argv = [command, str(poly), str(coins), *flags]
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - the test is that nothing escapes
                pytest.fail(f"{argv} on {P} / {x} raised {exc!r}")
            assert code == 0 or 2 <= code <= 8, (argv, P, x, code)
        capsys.readouterr()
