"""The coin draw with fresh arrays per call, as the reference for SimulatedCoins' in-place draw.

`reference_draw_bits` decides n flips into new `ones` and `open_` rows and
a bool row for the tail, as the draw did before it wrote into its
destination words.  Drawn from equal generators, the two must return the
same words, flips beyond n in the last word included, and leave the
generators in the same state, so the same raw words give the same flips.
Round buffers drawn a run of edges at a time must equal it edge by edge.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowfactory import SimulatedCoins
from flowfactory.coins import _BUFFER, _SLICED, _unpack

from instances import HALF, THIRD, WORD


def reference_draw_bits(coins: SimulatedCoins, edge: int, n: int) -> np.ndarray:
    """n flips of `edge` as words, from coins' generator: flip j is bit j % 64 of word j // 64."""
    num, den = coins._biases[edge].numerator, coins._biases[edge].denominator
    raw = coins._rng.bit_generator.random_raw
    words = (n + 63) // 64
    ones = np.zeros(words, dtype=np.uint64)  # flips decided heads
    open_ = np.full(words, WORD, dtype=np.uint64)  # flips equal to p so far
    r = num
    for _ in range(_SLICED):
        u = raw(words)
        r <<= 1
        if r >= den:  # p's digit is 1: U's digit 0 decides heads
            r -= den
            ones |= open_ & ~u
            open_ &= u
        else:  # p's digit is 0: U's digit 1 decides tails
            open_ &= ~u
        if not r:
            break
    if r:
        lanes = np.flatnonzero(_unpack(open_, n))
        heads = np.zeros(64 * words, dtype=bool)
        while r and len(lanes):
            d, r = divmod(r << 64, den)
            u = raw(len(lanes))
            heads[lanes[u < np.uint64(d)]] = True
            lanes = lanes[u == np.uint64(d)]
        ones |= np.packbits(heads, bitorder="little").view(np.uint64)
    return ones


# Odd numerators over 2^k: digits that end before _SLICED, at it, within the
# 64-digit tail word and beyond it.
dyadic = st.integers(1, 2 * _SLICED + 70).flatmap(
    lambda k: st.integers(0, (1 << (k - 1)) - 1).map(lambda j: Fraction(2 * j + 1, 1 << k)))
biases = st.one_of(dyadic, st.just(THIRD), st.just(Fraction(2**64, 2**65 + 1)),
                   st.fractions(0, 1).filter(lambda p: 0 < p < 1))


@settings(max_examples=150, deadline=None)
@given(biases, st.sampled_from([1, 63, 64, 65, _BUFFER]), st.integers(0, 2**32))
@example(Fraction(1, 2), _BUFFER, 0)
@example(Fraction(5, 1 << _SLICED), 65, 1)  # the last sliced digit is p's last
@example(Fraction(5, 1 << (_SLICED - 1)), 63, 2)
@example(Fraction(5, 1 << (_SLICED + 1)), 64, 3)  # one digit into the tail word
@example(THIRD, _BUFFER, 4)
@example(Fraction(2**64, 2**65 + 1), _BUFFER, 5)
def test_in_place_draw_matches_reference(p, n, seed):
    coins, ref = SimulatedCoins([p], seed=seed), SimulatedCoins([p], seed=seed)
    out = np.full(_BUFFER // 64, 0x5555_5555_5555_5555, dtype=np.uint64)  # stale words of an earlier draw
    coins._draw_bits(p, n, out[None])
    words = (n + 63) // 64
    assert out[:words].tolist() == reference_draw_bits(ref, 0, n).tolist()
    assert (out[words:] == 0x5555_5555_5555_5555).all()  # words past the draw stay as they were
    assert coins._rng.bit_generator.state == ref._rng.bit_generator.state


# Biases with no digit past _SLICED (1/2, 3/8, 1/2^_SLICED), which share a run
# with equal neighbours, and two that reach the tail (1/3, and 5/2^(_SLICED+1),
# dyadic one digit past _SLICED), each a run of its own.
run_biases = st.sampled_from([HALF, Fraction(3, 8), Fraction(1, 1 << _SLICED), THIRD,
                              Fraction(5, 1 << (_SLICED + 1))])


@settings(max_examples=20, deadline=None)
@given(st.lists(run_biases, min_size=1, max_size=10), st.lists(st.integers(0, 9), max_size=3),
       st.integers(0, 2**32))
@example([HALF] * 3 + [Fraction(3, 8)] * 3, [], 0)  # two runs
@example([HALF, HALF, THIRD, HALF, HALF, Fraction(3, 8), THIRD, Fraction(3, 8)], [2, 0], 1)  # runs split by 1/3
@example([Fraction(5, 1 << (_SLICED + 1))] * 3 + [HALF] * 2, [0, 4, 0], 2)  # equal tail biases stay apart
@example([THIRD, HALF, HALF], [1, 1], 3)  # one edge's single flips cross a flip-buffer end
def test_run_refill_matches_per_edge_reference(biases, flips, seed):
    """Round buffers drawn a run at a time equal per-edge reference draws, with
    single-flip buffers drawn between them: the same rows, flips and rng state."""
    coins, ref = SimulatedCoins(biases, seed=seed), SimulatedCoins(biases, seed=seed)
    for k in range(len(flips) + 1):
        coins._refill()
        assert coins._rows.tolist() == [reference_draw_bits(ref, e, _BUFFER).tolist() for e in range(len(biases))]
        assert coins._rng.bit_generator.state == ref._rng.bit_generator.state
        if k < len(flips):
            # A whole flip buffer of one edge: it is drawn at the first flip,
            # where the edge's last buffer, if any, ended.
            e = flips[k] % len(biases)
            got = [coins.flip(e) for _ in range(_BUFFER)]
            assert got == _unpack(reference_draw_bits(ref, e, _BUFFER), _BUFFER).tolist()
            assert coins._rng.bit_generator.state == ref._rng.bit_generator.state
