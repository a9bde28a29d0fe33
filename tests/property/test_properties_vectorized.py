"""Property-based tests of the vectorized backend's building blocks.

The collapsed simulations rest on three representational claims, each
checked here over randomized instances:

1. **Packing** — ``pack_rows``/``unpack_rows`` round-trip the trial×round
   bit-matrix, popcounts survive packing, and ``mask_int`` produces the
   scalar ML decoder's exact integer-mask packing (byte per position,
   big-endian).
2. **Noise streams** — a :class:`FlipStream` (and every row of a
   :class:`BatchFlips` prefetch) serves the same flip indicators, in the
   same draw order, as the scalar channel's ``random()`` comparisons —
   including mid-stream handoff from a partially consumed generator and
   the burst channel's two-draw Markov rule — and ``peek`` reads ahead
   without moving the stream.
3. **Decoding** — :class:`VectorizedMLDecoder` agrees with the scalar
   memoized :class:`MLDecoder` symbol-for-symbol on random codebooks,
   noise models and received words, across the finite-weights fast path,
   the ``-inf``-guarded path, and the min-distance fallback regime; its
   bit-packed agreement counts are exact at every codeword length.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import (
    BurstNoiseChannel,
    CorrelatedNoiseChannel,
    OneSidedNoiseChannel,
    SuppressionNoiseChannel,
)
from repro.coding import GreedyRandomCode, MLDecoder
from repro.coding.ml import _word_to_int
from repro.core.formal import NoiseModel
from repro.vectorized import (
    BatchFlips,
    FlipStream,
    ThresholdRule,
    VectorizedMLDecoder,
    bits_from_mask,
    flip_rule,
    mask_int,
    numpy_stream,
    pack_rows,
    popcount_rows,
    unpack_rows,
)
from repro.vectorized.decoder import (
    _ones_by_bitwise_count,
    _ones_by_byte_table,
    _pack64,
)
from repro.vectorized.noise import _FLIP_BLOCK

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _threshold(seed, epsilon):
    """The threshold rule ``u < epsilon`` over a fresh generator."""
    return ThresholdRule(numpy_stream(random.Random(seed)), epsilon)


# ----------------------------------------------------------------------
# 1. Packed bit-matrices
# ----------------------------------------------------------------------


@given(seed=seeds, rows=st.integers(1, 7), columns=st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_pack_unpack_round_trip(seed, rows, columns):
    rng = np.random.RandomState(seed)
    bits = (rng.random_sample((rows, columns)) < 0.4).astype(np.uint8)
    packed = pack_rows(bits)
    assert packed.shape == (rows, -(-columns // 8))
    assert (unpack_rows(packed, columns) == bits).all()
    assert (popcount_rows(packed) == bits.sum(axis=1)).all()


@given(seed=seeds, length=st.integers(1, 48))
@settings(max_examples=60, deadline=None)
def test_mask_int_matches_scalar_word_packing(seed, length):
    rng = np.random.RandomState(seed)
    bits = (rng.random_sample(length) < 0.5).astype(np.uint8)
    mask = mask_int(bits)
    assert mask == _word_to_int([int(bit) for bit in bits])
    assert (bits_from_mask(mask, length) == bits).all()


# ----------------------------------------------------------------------
# 2. Noise streams vs scalar channels
# ----------------------------------------------------------------------


@given(seed=seeds, draws=st.integers(1, 400))
@settings(max_examples=40, deadline=None)
def test_numpy_stream_continues_random_random(seed, draws):
    scalar = random.Random(seed)
    scalar.random()  # consume mid-stream before the transfer
    stream = numpy_stream(scalar)
    expected = [scalar.random() for _ in range(draws)]
    assert list(stream.random_sample(draws)) == expected


@given(
    seed=seeds,
    epsilon=st.sampled_from([0.0, 0.1, 0.3, 0.5]),
    pattern=st.lists(st.integers(0, 1), min_size=1, max_size=120),
)
@settings(max_examples=60, deadline=None)
def test_flipstream_matches_correlated_channel(seed, epsilon, pattern):
    """Round for round, FlipStream-reconstructed delivery equals the
    scalar correlated channel's (which draws every round)."""
    channel = CorrelatedNoiseChannel(epsilon, rng=seed)
    flips = FlipStream(flip_rule(channel))
    for or_value in pattern:
        expected = channel.transmit_shared(or_value, beeps=or_value)
        assert (or_value ^ flips.take1()) == expected


@given(seed=seeds, pattern=st.lists(st.integers(0, 1), min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_flipstream_matches_one_sided_and_suppression(seed, pattern):
    """The conditional-draw channels (one-sided: silent rounds only,
    suppression: beeping rounds only) consume the same stream."""
    epsilon = 0.3
    one_sided = OneSidedNoiseChannel(epsilon, rng=seed)
    flips = FlipStream(flip_rule(one_sided))
    for or_value in pattern:
        expected = one_sided.transmit_shared(or_value, beeps=or_value)
        got = 1 if or_value else flips.take1()
        assert got == expected

    suppression = SuppressionNoiseChannel(epsilon, rng=seed)
    flips = FlipStream(flip_rule(suppression))
    for or_value in pattern:
        expected = suppression.transmit_shared(or_value, beeps=or_value)
        got = (0 if flips.take1() else 1) if or_value else 0
        assert got == expected


@given(
    seed=seeds,
    trials=st.integers(1, 6),
    columns=st.integers(0, 70),
    burst=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_batchflips_rows_match_per_trial_streams(seed, trials, columns, burst):
    """Every row of a batched prefetch serves the identical indicator
    sequence as a freshly transferred per-trial FlipStream — across the
    prefetch boundary, where a burst row's interference state must carry
    into its stream."""
    total = columns + 13  # cross the prefetch boundary

    def rule(index):
        if burst:
            return flip_rule(
                BurstNoiseChannel(0.05, 0.6, 0.3, 0.1, rng=seed + index)
            )
        return _threshold(seed + index, 0.25)

    batch = BatchFlips(
        [rule(index) for index in range(trials)], columns=columns
    )
    references = [FlipStream(rule(index)) for index in range(trials)]
    for index, reference in enumerate(references):
        row = batch.stream(index)
        for _ in range(total):
            assert row.take1() == reference.take1()


@given(seed=seeds, chunks=st.lists(st.integers(1, 40), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_flipstream_access_patterns_agree(seed, chunks):
    """take1 / count / take are three views of one stream: consuming the
    same windows through any of them yields consistent indicators."""
    epsilon = 0.35
    reference = FlipStream(_threshold(seed, epsilon))
    counted = FlipStream(_threshold(seed, epsilon))
    taken = FlipStream(_threshold(seed, epsilon))
    for rounds in chunks:
        singles = [reference.take1() for _ in range(rounds)]
        assert counted.count(rounds) == sum(singles)
        assert list(taken.take(rounds)) == singles


#: Stream positions around the refill boundaries: the 4096-column
#: BatchFlips preload and FlipStream's 8192-indicator block.
BOUNDARIES = [0, 4096, _FLIP_BLOCK, 2 * _FLIP_BLOCK]


@given(
    seed=seeds,
    preload=st.booleans(),
    start=st.sampled_from(BOUNDARIES),
    offset=st.integers(-40, 40),
    windows=st.lists(
        st.tuples(st.integers(0, 9000), st.integers(0, 9000)),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=40, deadline=None)
def test_peek_is_the_following_take(seed, preload, start, offset, windows):
    """``peek(k)`` consumes nothing and serves exactly the indicators
    the following ``take`` does — repeated, and across the preload and
    block refills — so consuming a prefix of a peek leaves the stream
    where per-word draws would."""
    epsilon = 0.3
    if preload:
        stream = BatchFlips([_threshold(seed, epsilon)]).stream(0)
    else:
        stream = FlipStream(_threshold(seed, epsilon))
    reference = FlipStream(_threshold(seed, epsilon))
    skip = max(0, start + offset)
    stream.take(skip)
    reference.take(skip)
    for peeked, taken in windows:
        taken = min(taken, peeked)
        before = stream.draws
        first = stream.peek(peeked).copy()
        again = stream.peek(peeked)
        assert stream.draws == before
        assert len(first) == peeked
        assert (again == first).all()
        assert (stream.peek(taken) == first[:taken]).all()
        assert (stream.take(taken) == first[:taken]).all()
        assert stream.draws == before + taken
        assert (reference.take(taken) == first[:taken]).all()
        # The unconsumed rest of the peek is still next in line.
        assert (stream.peek(peeked - taken) == first[taken:]).all()
    tail = [reference.take1() for _ in range(50)]
    assert [stream.take1() for _ in range(50)] == tail


#: Burst transition probabilities: p_enter > p_exit makes constant-1
#: maps (enter from good, stay in bad) occur, and 1.0 forces a move.
probabilities = st.one_of(
    st.just(1.0), st.floats(min_value=0.001, max_value=1.0)
)


@given(
    seed=seeds,
    epsilon_good=st.floats(min_value=0.0, max_value=0.99),
    epsilon_bad=st.floats(min_value=0.0, max_value=0.99),
    p_enter=probabilities,
    p_exit=probabilities,
    in_burst=st.booleans(),
    preload=st.booleans(),
    start=st.sampled_from(BOUNDARIES),
    offset=st.integers(-40, 40),
    peeked=st.integers(0, 9000),
)
@settings(max_examples=40, deadline=None)
def test_burst_stream_matches_scalar_deliver(
    seed, epsilon_good, epsilon_bad, p_enter, p_exit, in_burst, preload,
    start, offset, peeked,
):
    """A burst channel's flip stream — two uniforms per indicator, its
    interference state carried across every block — serves exactly the
    flips of the scalar per-round ``_deliver``, through a ``peek``, the
    4096-column preload and the 8192-indicator refills."""

    def channel():
        made = BurstNoiseChannel(
            epsilon_good, epsilon_bad, p_enter, p_exit, rng=seed
        )
        made._in_burst = in_burst
        return made

    scalar = channel()
    if preload:
        stream = BatchFlips([flip_rule(channel())]).stream(0)
    else:
        stream = FlipStream(flip_rule(channel()))
    skip = max(0, start + offset)
    expected = [
        scalar._deliver(0, 1)[0] for _ in range(skip + peeked + 50)
    ]
    assert stream.take(skip).tolist() == expected[:skip]
    window = expected[skip : skip + peeked]
    assert stream.peek(peeked).tolist() == window
    assert stream.take(peeked).tolist() == window
    assert [stream.take1() for _ in range(50)] == expected[skip + peeked :]


# ----------------------------------------------------------------------
# 3. Vectorized ML decode vs the scalar memoized decoder
# ----------------------------------------------------------------------


def _random_word(rng, length):
    return [rng.randint(0, 1) for _ in range(length)]


@given(
    seed=seeds,
    num_symbols=st.integers(2, 12),
    up=st.sampled_from([0.0, 0.05, 0.2, 0.45]),
    down=st.sampled_from([0.0, 0.05, 0.2, 0.45]),
    length=st.sampled_from([24, 1, 7, 8, 63, 64, 65, 85, 130]),
)
@settings(max_examples=120, deadline=None)
def test_vectorized_decode_matches_scalar(seed, num_symbols, up, down, length):
    """Symbol-for-symbol agreement on random received words, covering the
    finite path (up, down > 0), the guarded path (a zero probability
    makes some transitions forbidden) and the min-distance fallback
    (words forbidden under every codeword) — at codeword lengths that
    are not a multiple of 8 or span several packed uint64 words.  Short
    codes drop the distance floors (they cannot meet them), so
    duplicate codewords also exercise the first-maximum tie-break."""
    floors = {}
    if length < 24:
        floors = {"min_distance_fraction": 0.0, "min_weight_fraction": 0.0}
    code = GreedyRandomCode(num_symbols, length, seed=seed, **floors)
    noise = NoiseModel(up=up, down=down)
    scalar = MLDecoder(code, noise)
    vectorized = VectorizedMLDecoder(code, noise)
    rng = random.Random(seed ^ 0xABCDEF)
    words = [_random_word(rng, code.codeword_length) for _ in range(20)]
    # Include every codeword and near-codewords (single-bit corruptions).
    for symbol in range(num_symbols):
        word = list(code.encode(symbol))
        words.append(word)
        corrupted = list(word)
        corrupted[rng.randrange(len(word))] ^= 1
        words.append(corrupted)
    for word in words:
        expected = scalar.decode(tuple(word))
        array = np.array(word, dtype=np.uint8)
        assert vectorized.decode(array) == expected
    matrix = np.array(words, dtype=np.uint8)
    assert list(vectorized.decode_batch(matrix)) == [
        scalar.decode(tuple(word)) for word in words
    ]


@given(seed=seeds, rows=st.integers(1, 5), length=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_packed_popcounts_are_exact(seed, rows, length):
    """The numpy >= 2 popcount and the numpy < 2 byte table count the
    same agreements as a plain integer sum, padding included."""
    rng = np.random.RandomState(seed)
    left = (rng.random_sample((rows, length)) < 0.5).astype(np.uint8)
    right = (rng.random_sample((rows, length)) < 0.5).astype(np.uint8)
    both = _pack64(left) & _pack64(right)
    expected = (left & right).sum(axis=1, dtype=np.int64)
    assert (_ones_by_byte_table(both) == expected).all()
    if hasattr(np, "bitwise_count"):
        assert (_ones_by_bitwise_count(both) == expected).all()
