"""Coin sources: the opaque flip interface and its test-harness implementation.

A coin source exposes nothing but bits.  SimulatedCoins holds the hidden
rational biases and produces exact Bernoulli(p) flips by comparing uniform
random digits with the binary digits of p.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import TYPE_CHECKING, Generator, Sequence

import numpy as np

from .errors import BoundaryCoin, InvalidInstance

if TYPE_CHECKING:
    from .spanning import ExitTables

_BUFFER = 1 << 15
# Digits of a bias compared for a whole row of flips, one raw word per 64
# flips, before each flip still undecided takes a raw word of its own.
_SLICED = 6


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of `words` as a bool row, bit j of word w at 64w + j."""
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little").view(bool)


class CoinSource:
    """Provider of i.i.d. Bernoulli bits, one independent coin per edge id."""

    num_edges: int

    def flip(self, edge: int) -> int:
        raise NotImplementedError

    def flip_round(self) -> int:
        """Flip every coin once, in edge order; bit i of the mask is edge i."""
        mask = 0
        for e in range(self.num_edges):
            mask |= self.flip(e) << e
        return mask

    def hits_in(self, test: ExitTables, limit: int) -> Generator[tuple[list[int], range], int | None, None]:
        """Flip up to `limit` rounds, handing over the masks of those in `test` a list at a time.

        `test` is any round test with `__contains__` and `scan`, as
        ExitTables.  Each yield is (masks, span): the next hits, in round
        order, are masks[i] for i in span.  This walk flips round by round
        and yields one hit at a time.  A caller done with every hit of a
        span resumes the walk.  One that stops at hit masks[i] sends i: the
        walk then leaves the cursor just past that hit, answers with the
        rounds it flipped up to and including it, and ends.  While the walk
        is suspended its caller may flip single coins but must draw no rounds
        by other means.
        """
        flip_round = self.flip_round
        for n in range(1, limit + 1):
            if (mask := flip_round()) in test and (yield [mask], range(1)) is not None:
                yield n
                return


class SimulatedCoins(CoinSource):
    """Seeded coins with hidden rational biases strictly inside (0,1).

    Flips are exact: a flip of a p = num/den coin is [U < p] for U a uniform
    binary fraction, decided at the first digit where U and p differ.  The
    digits come from the raw 64-bit words of the generator, one bit a flip,
    so each word serves 64 flips at once (see _draw_bits).  Draws are
    buffered through numpy for speed.

    Two cursors count everything.  Single flips of edge e come from a row of
    _BUFFER flips, read at position _flip_counts[e] % _BUFFER and redrawn at
    0, so the per-edge tally of single flips is also the read position.
    Rounds come from buffers of _BUFFER rounds, kept as one row of flip words
    per edge just as _draw_bits decides them (round j at bit j % 64 of word
    j // 64), in an array allocated once and reused by every refill;
    _rounds counts the rounds flipped and _drawn those drawn, and the buffer
    holds rounds _drawn - _BUFFER to _drawn.  _passing reads a buffer: for a
    round test it runs the test's scan over the rows, for None it takes
    every round, and builds the masks of those rounds alone as Python ints,
    cached per buffer and key.  flip_round and hits_in both read through it,
    so the rng is drawn in the same order and every bit is the same whichever
    of them flips a round.  hits_in hands over a buffer's cached masks with
    the span its walk reaches, and moves _rounds when resumed or stopped.
    """

    def __init__(self, biases: Sequence[Fraction], seed: int = 0):
        self.num_edges = len(biases)
        self._biases = tuple(Fraction(b) for b in biases)
        for i, b in enumerate(self._biases):
            if b <= 0 or b >= 1:
                raise BoundaryCoin(f"bias of edge {i} is {b}, not strictly inside (0,1)")
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        # Per-edge tallies of single flips; every round adds one flip to each
        # edge, counted from _rounds on read.
        self._flip_counts = [0] * self.num_edges
        self._bits = np.empty((self.num_edges, _BUFFER // 64), dtype=np.uint64)
        self._rows = np.empty((self.num_edges, _BUFFER // 64), dtype=np.uint64)
        self._hits: dict[ExitTables | None, tuple[list[int], list[int]]] = {}
        self._rounds = 0
        self._drawn = 0

    @property
    def flip_counts(self) -> tuple[int, ...]:
        rounds = self._rounds
        return tuple(c + rounds for c in self._flip_counts)

    @property
    def total_flips(self) -> int:
        return sum(self._flip_counts) + self._rounds * self.num_edges

    def _draw_bits(self, edge: int, n: int, out: np.ndarray) -> None:
        """Decide n flips of `edge` into the words `out`: flip j is bit j % 64 of word j // 64.

        Flip j is [U_j < p] for a uniform binary fraction U_j, decided at the
        first digit where U_j and p differ.  p's first _SLICED digits (long
        division of num by den) are compared for every flip at once, one row
        of raw words a digit: that digit of U_j is bit j % 64 of word j // 64.
        The first digit assigns the first (n + 63) // 64 words of `out`, and
        later digits update them in place.  A dyadic p stops at its last
        digit, since a flip still equal to p there has U_j >= p.  The flips
        still open after _SLICED digits, about one in 64, then take one raw
        word each, compared as an integer with p's next 64 digits, until
        they differ.  Bits from n on in the last word are not flips.
        """
        num, den = self._biases[edge].numerator, self._biases[edge].denominator
        raw = self._rng.bit_generator.random_raw
        words = (n + 63) // 64
        ones = out[:words]  # flips decided heads
        open_ = raw(words)  # flips equal to p so far
        r = num << 1
        if r >= den:  # p's digit is 1: U's digit 0 decides heads
            r -= den
            np.invert(open_, out=ones)
        else:  # p's digit is 0: U's digit 1 decides tails
            ones.fill(0)
            np.invert(open_, out=open_)
        for _ in range(_SLICED - 1):
            if not r:
                break
            u = raw(words)
            r <<= 1
            if r >= den:
                r -= den
                np.invert(u, out=u)
                u &= open_
                ones |= u
            else:
                u &= open_
            open_ ^= u  # drop the flips this digit decided
        if r:
            lanes = np.flatnonzero(_unpack(open_, n))
            while r and len(lanes):
                d, r = divmod(r << 64, den)
                u = raw(len(lanes))
                heads = lanes[u < np.uint64(d)]
                np.bitwise_or.at(ones, heads >> 6, np.uint64(1) << (heads & 63).astype(np.uint64))
                # Lanes still equal take p's next 64 digits; where p ends, they are tails.
                lanes = lanes[u == np.uint64(d)]

    def flip(self, edge: int) -> int:
        if not 0 <= edge < self.num_edges:
            raise InvalidInstance(f"unknown edge id {edge}")
        pos = self._flip_counts[edge] % _BUFFER
        if not pos:
            self._draw_bits(edge, _BUFFER, self._bits[edge])
        self._flip_counts[edge] += 1
        return int(self._bits[edge, pos >> 6]) >> (pos & 63) & 1

    def _refill(self) -> None:
        """Draw the next _BUFFER rounds, edge by edge, into the flip rows."""
        self._drawn = self._rounds + _BUFFER
        self._hits.clear()
        for e, row in enumerate(self._rows):
            self._draw_bits(e, _BUFFER, row)

    def _passing(self, test: ExitTables | None) -> tuple[list[int], list[int]]:
        """Positions in the current buffer of the rounds passing `test`, and their masks.

        The key None passes every round.  Refills first when every round
        drawn has been flipped.
        """
        if self._rounds == self._drawn:
            self._refill()
        hits = self._hits.get(test)
        if hits is None:
            if test is None:
                at = np.arange(_BUFFER)
            else:
                at = np.flatnonzero(_unpack(test.scan(self._rows), _BUFFER))
            bits = (self._rows.view(np.uint8)[:, at >> 3] >> (at & 7).astype(np.uint8)) & 1
            # Byte b of round j's mask holds edges 8b..8b+7; 8 bytes make a word.
            words = max(1, (self.num_edges + 63) // 64)
            packed = np.zeros((bits.shape[1], 8 * words), dtype=np.uint8)
            packed[:, :(self.num_edges + 7) // 8] = np.packbits(bits, axis=0, bitorder="little").T
            packed = packed.view(np.uint64)
            masks = packed[:, 0].tolist()
            for row in range(1, words):
                masks = [a | (b << 64 * row) for a, b in zip(masks, packed[:, row].tolist())]
            hits = self._hits[test] = (at.tolist(), masks)
        return hits

    def flip_round(self) -> int:
        masks = self._passing(None)[1]
        pos = self._rounds - self._drawn + _BUFFER
        self._rounds += 1
        return masks[pos]

    def hits_in(self, test: ExitTables, limit: int) -> Generator[tuple[list[int], range], int | None, None]:
        first = self._rounds  # rounds flipped when the walk began
        last = first + limit
        while self._rounds < last:
            at, masks = self._passing(test)
            start = self._drawn - _BUFFER  # round number of the buffer's position 0
            stop = min(last, self._drawn)
            lo, hi = bisect_left(at, self._rounds - start), bisect_left(at, stop - start)
            if lo < hi and (i := (yield masks, range(lo, hi))) is not None:
                self._rounds = start + at[i] + 1
                yield self._rounds - first
                return
            self._rounds = stop
