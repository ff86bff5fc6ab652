"""Span recording around calls into flowfactory's layers, from outside the package.

A span is (name, start, end, parent, trace): `parent` is the index of the
enclosing span (-1 for a top-level span) and `trace` the index of the
top-level span it belongs to, so every span of one sample or one verify call
shares an identifier.  Spans live in flat arrays while the program runs and
are written out once at the end.

Functions are wrapped under the name their caller looks them up by: modules
that did `from .graphs import flip_tree` hold their own reference, so the
same wrapper is installed in every such module namespace.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

# (span name, the modules whose namespace holds a reference callers use).
# `factory.FlowSampler._qualifying_trees` and `cli._run_check` import from
# `graphs` / `spanning` at call time, so patching those modules covers them.
WRAPPED = (
    ("graphs.enumerate_vertices", ("graphs", "factory", "oracle")),
    ("graphs.flip_tree", ("graphs", "oracle")),
    ("spanning.is_arborescence", ("spanning", "oracle")),
    ("spanning.enumerate_directed_trees", ("spanning", "factory", "oracle")),
    ("spanning.directed_tree_count", ("spanning", "factory")),
    ("spanning.count_arborescences", ("spanning",)),
    ("oracle.eval_polynomial", ("oracle", "cli")),
    ("oracle.eval_polynomial_factored", ("oracle", "cli")),
    ("oracle.check_bijection", ("oracle", "cli")),
    ("oracle.exact_output_distribution", ("oracle", "cli")),
)


class Recorder:
    """In-memory span store with a wrapper factory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def span(self, name: str, fn):
        """Return fn wrapped so that each call records one span called `name`."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_a, parent_a, trace_a = self.name, self.parent, self.trace
        start_a, end_a, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start_a)
            up = stack[-1]
            name_a.append(nid)
            parent_a.append(up)
            trace_a.append(i if up < 0 else trace_a[up])
            end_a.append(0.0)
            stack.append(i)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trace": np.frombuffer(self.trace, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def summarize(self) -> dict:
        """Calls, busy time and self time per span name, plus the layer totals.

        Self time is a span's duration minus the durations of its direct
        children; summed over every span it must equal the top-level total.
        """
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(a["name"], minlength=k)
        busy = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_t, minlength=k)
        top = float(dur[~nested].sum())
        per_name = {
            n: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }
        layers: dict[str, float] = {}
        for n, v in per_name.items():
            layer = n.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + v["self_s"]
        return {
            "spans": int(len(dur)),
            "top_s": top,
            "self_sum_s": float(self_t.sum()),
            "min_self_s": float(self_t.min()) if len(dur) else 0.0,
            "names": per_name,
            "layers": layers,
        }


def install(rec: Recorder, modules: dict) -> None:
    """Wrap every function in WRAPPED at each namespace that looks it up."""
    for name, where in WRAPPED:
        attr = name.split(".", 1)[1]
        wrapped = rec.span(name, getattr(modules[name.split(".")[0]], attr))
        for mod in where:
            setattr(modules[mod], attr, wrapped)


class StageCounts:
    """Per-round stage outcomes, inferred at the coin and rng boundaries.

    A round is one flip_round call; stage 1 passed if the round drew from the
    rng (the tree stage ran); stage 2 passed if it re-flipped any coin.
    """

    def __init__(self):
        self.rounds = 0
        self.stage1 = 0
        self.stage2 = 0
        self.masks: set[int] = set()
        self.mask = 0
        self.rng_seen = False
        self.flip_seen = False


class CoinProxy:
    """CoinSource that delegates to another one, timing flip_round and flip.

    Any other attribute passes through to the wrapped source untimed.
    """

    def __init__(self, coins, rec: Recorder, stages: StageCounts):
        self._coins = coins
        self._stages = stages
        self.flip_round = rec.span("coins.flip_round", self._flip_round)
        self.flip = rec.span("coins.flip", self._flip)

    def _flip_round(self) -> int:
        mask = self._coins.flip_round()
        st = self._stages
        st.rounds += 1
        st.mask = mask
        st.rng_seen = st.flip_seen = False
        return mask

    def _flip(self, edge: int) -> int:
        st = self._stages
        if not st.flip_seen:
            st.flip_seen = True
            st.stage2 += 1
        return self._coins.flip(edge)

    def __getattr__(self, name):
        return getattr(self._coins, name)


class RngProxy:
    """random.Random stand-in that times randrange and passes the rest through."""

    def __init__(self, rng, rec: Recorder, stages: StageCounts):
        self._rng = rng
        self._stages = stages
        self.randrange = rec.span("rng.randrange", self._randrange)

    def _randrange(self, *args):
        st = self._stages
        if not st.rng_seen:
            st.rng_seen = True
            st.stage1 += 1
            st.masks.add(st.mask)
        return self._rng.randrange(*args)

    def __getattr__(self, name):
        return getattr(self._rng, name)
