"""JSON (de)serialization for polytopes, coin files, and CLI outputs.

All output JSON has sorted keys and no floating point in exact sections:
rationals travel as num/den pairs, empirical values as 6-digit decimal
strings.  Schema problems raise ValueError so the CLI can map them to its
parse-error exit code.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .graphs import FlowPolytope, Graph


def polytope_to_dict(P: FlowPolytope) -> dict:
    return {
        "nodes": P.n,
        "edges": [
            {"id": i, "from": u, "to": v} for i, (u, v) in enumerate(P.edges)
        ],
        "demands": list(P.demands),
    }


def _is_int(value) -> bool:
    """True for a JSON integer; bools are ints in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def polytope_from_dict(data: dict) -> FlowPolytope:
    if not isinstance(data, dict):
        raise ValueError("polytope file must hold a JSON object")
    try:
        n = data["nodes"]
        raw_edges = data["edges"]
        demands = data["demands"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"polytope file missing field: {exc}") from exc
    if not _is_int(n) or not isinstance(raw_edges, list) or not isinstance(demands, list):
        raise ValueError("polytope fields have wrong types")
    edges = []
    for pos, rec in enumerate(raw_edges):
        try:
            eid, u, v = rec["id"], rec["from"], rec["to"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"edge record {pos} malformed: {exc}") from exc
        if not _is_int(eid):
            raise ValueError(f"edge record {pos} has a non-integer id")
        if eid != pos:
            raise ValueError(f"edge id {eid} does not match its position {pos}")
        if not (_is_int(u) and _is_int(v)):
            raise ValueError(f"edge record {pos} has a non-integer endpoint")
        edges.append((u, v))
    if not all(_is_int(d) for d in demands):
        raise ValueError("demands must be integers")
    if len(demands) != n:
        raise ValueError(f"expected {n} demands, got {len(demands)}")
    return FlowPolytope(Graph(n, tuple(edges)), tuple(demands))


def coins_from_dict(data: dict, num_edges: int) -> tuple[Fraction, ...]:
    if not isinstance(data, dict) or "coins" not in data:
        raise ValueError('coin file must hold {"coins": [...]}')
    recs = data["coins"]
    if not isinstance(recs, list) or len(recs) != num_edges:
        raise ValueError(f"expected {num_edges} coin records, got {len(recs) if isinstance(recs, list) else 'non-list'}")
    biases = [None] * num_edges
    for rec in recs:
        try:
            i, num, den = rec["edge"], rec["num"], rec["den"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"coin record malformed: {exc}") from exc
        if not (_is_int(i) and 0 <= i < num_edges):
            raise ValueError(f"coin record names unknown edge {i}")
        if biases[i] is not None:
            raise ValueError(f"duplicate coin record for edge {i}")
        if not (_is_int(num) and _is_int(den) and den > 0):
            raise ValueError(f"coin for edge {i} is not a num/den rational")
        biases[i] = Fraction(num, den)
    if any(b is None for b in biases):
        raise ValueError("some edges lack a coin record")
    return tuple(biases)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def rational(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def empirical(value: float) -> str:
    """Decimal string with 6 digits; clearly not an exact quantity."""
    return f"{value:.6f}"


def flow_key(f) -> str:
    """Stable text key for a 0/1 vertex, e.g. '0110'."""
    return "".join(str(b) for b in f)


def sample_line(f, flips: int, restarts: int) -> str:
    """One JSONL record, the bytes of json.dumps({"flips", "flow", "restarts"}, sort_keys=True)."""
    flow = ", ".join([str(i) for i, b in enumerate(f) if b])
    return f'{{"flips": {flips}, "flow": [{flow}], "restarts": {restarts}}}'
