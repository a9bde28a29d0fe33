"""Vectorized shared-noise streams, bitwise-matched to the scalar channels.

Every correlated channel the collapsed schemes replay draws its noise
from its ``random.Random`` in an order that does not depend on the data
(see ``Channel._next_noise_float`` and the ``_deliver_shared``
overrides), so the *flip indicator stream* — one bit per noise
decision, in draw order — fully determines a channel's behaviour, and a
trial's noise can be replayed bitwise from any generator producing the
same uniforms.  Two draw rules cover the replayed families:

* **threshold** — one uniform per indicator, flip iff ``u < ε``: the
  correlated channel draws every round, the one-sided channel only on
  silent rounds, the suppression channel only on beeping rounds;
* **Gilbert–Elliott** (:class:`~repro.channels.burst.BurstNoiseChannel`)
  — two uniforms per round, whatever the OR: the first moves the
  good/bad interference state, the second flips iff it is below the new
  state's ``ε_good`` or ``ε_bad``.

:func:`~repro.rng.numpy_stream` (re-exported here) transfers a
``random.Random``'s Mersenne-Twister state into a
``numpy.random.RandomState``: both generate doubles with the same
``genrand_res53`` recipe, so ``random_sample(k)`` reproduces ``k`` calls of
``Random.random()`` exactly (verified by golden pins in
``tests/unit/test_rng.py`` and property tests).  :class:`FlipStream` builds
on that to serve flip indicators in blocks, and :class:`BatchFlips`
prefetches the first ``columns`` indicators of a whole batch of trials as
rows of a packed numpy bit-matrix — the trial×draw layout the vectorized
backend batches over.  Both serve whatever draw rule they are handed:
:func:`flip_rule` picks a channel's own, and a caller with a bare
generator builds a :class:`ThresholdRule` over it.
"""

from __future__ import annotations

from typing import Sequence

from repro.channels.base import Channel
from repro.channels.burst import BurstNoiseChannel
from repro.errors import ConfigurationError
from repro.rng import numpy_stream

try:  # numpy is an optional dependency of the vectorized backend only.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = [
    "HAVE_NUMPY",
    "require_numpy",
    "numpy_stream",
    "ThresholdRule",
    "flip_rule",
    "FlipStream",
    "BatchFlips",
]

HAVE_NUMPY = _np is not None

#: Flip indicators generated per refill; purely an amortization knob —
#: the delivered stream is identical for any block size.
_FLIP_BLOCK = 8192


def require_numpy() -> None:
    """Raise a clear error when numpy is unavailable."""
    if _np is None:
        raise ConfigurationError(
            "the vectorized backend requires numpy; install numpy or use "
            "the serial/process backends (--backend serial|process)"
        )


class ThresholdRule:
    """The threshold draw rule: indicator ``i`` is ``u_i < ε``.

    Args:
        stream: The numpy generator the uniforms come from (see
            :func:`numpy_stream`).
        epsilon: The flip probability.
    """

    __slots__ = ("_stream", "_epsilon")

    def __init__(self, stream, epsilon: float) -> None:
        self._stream = stream
        self._epsilon = epsilon

    def __call__(self, count: int) -> "_np.ndarray":
        """The next ``count`` indicators, as a bool array."""
        return self._stream.random_sample(count) < self._epsilon


class _GilbertElliott:
    """The burst channel's draw rule: two uniforms per indicator.

    Round ``t`` reads ``(u_t, v_t)``: ``u_t`` moves the interference
    state (good → bad iff ``u_t < p_enter``, bad → good iff
    ``u_t < p_exit``), then the round flips iff ``v_t`` is below the new
    state's rate.  As a map on the state each transition is constant 0,
    constant 1, keep or flip, so the state after round ``t`` is the value
    of the last constant map at or before ``t`` (the carried state counts
    as a constant before round 0) XOR the parity of the flip maps since —
    one running max and one running XOR per block.  The final state
    carries into the next block.
    """

    __slots__ = ("_stream", "_good", "_bad", "_enter", "_exit", "_state")

    def __init__(self, stream, channel: BurstNoiseChannel) -> None:
        self._stream = stream
        self._good = channel.epsilon_good
        self._bad = channel.epsilon_bad
        self._enter = channel.p_enter
        self._exit = channel.p_exit
        self._state = int(channel._in_burst)

    def __call__(self, count: int) -> "_np.ndarray":
        """The next ``count`` indicators, as a bool array."""
        uniforms = self._stream.random_sample(2 * count)
        transition = uniforms[0::2]
        # The map's images of good and of bad: equal images make it
        # constant, (0, 1) keeps the state and (1, 0) flips it.
        from_good = transition < self._enter
        from_bad = transition >= self._exit
        # parity[t]: parity of the flip maps among rounds 1..t.
        parity = _np.zeros(count + 1, dtype=_np.uint8)
        _np.bitwise_xor.accumulate(
            (from_good & ~from_bad).view(_np.uint8), out=parity[1:]
        )
        # With c the last constant map at or before t, the state at t is
        # its value XOR parity[c] XOR parity[t]; anchor[c] holds the
        # first two terms (index 0: the carried state).
        anchor = _np.empty(count + 1, dtype=_np.uint8)
        anchor[0] = self._state
        anchor[1:] = from_good.view(_np.uint8) ^ parity[1:]
        last_constant = _np.maximum.accumulate(
            _np.where(from_good == from_bad, _np.arange(1, count + 1), 0)
        )
        state = anchor[last_constant] ^ parity[1:]
        self._state = int(state[-1])
        return uniforms[1::2] < _np.where(state, self._bad, self._good)


def flip_rule(channel: Channel):
    """The draw rule replaying a noisy channel's flip indicators, over a
    numpy copy of its generator's current state."""
    stream = numpy_stream(channel._rng)
    if isinstance(channel, BurstNoiseChannel):
        return _GilbertElliott(stream, channel)
    return ThresholdRule(stream, channel.epsilon)


class FlipStream:
    """The flip-indicator stream of one trial's channel randomness.

    Serves the channel's flip indicators in draw order, generated in
    vectorized blocks by its draw rule.  The buffer is a ``bytes`` of 0/1
    so the three access patterns of the collapsed schemes are all
    C-speed: ``take1`` (one round), ``count`` (popcount of a constant-OR
    window), and ``take`` (a codeword window as a uint8 array); ``peek``
    reads ahead without consuming.

    Args:
        draw: The draw rule generating the indicators (see
            :func:`flip_rule`); called with a count, it returns that
            many as a bool array.
        preload: Optional pre-generated prefix of the indicator stream
            (from :class:`BatchFlips`); served before drawing more.
    """

    __slots__ = ("_draw", "_buffer", "_pos", "draws")

    def __init__(self, draw, preload: bytes | None = None) -> None:
        self._draw = draw
        self._buffer = preload if preload is not None else b""
        self._pos = 0
        #: Indicators consumed so far (draw-order position; test hook).
        self.draws = 0

    def _refill(self) -> None:
        self._buffer = self._draw(_FLIP_BLOCK).tobytes()
        self._pos = 0

    def take1(self) -> int:
        """The next flip indicator, as a plain int."""
        if self._pos >= len(self._buffer):
            self._refill()
        bit = self._buffer[self._pos]
        self._pos += 1
        self.draws += 1
        return bit

    def count(self, rounds: int) -> int:
        """Number of flips among the next ``rounds`` indicators.

        The whole window of a constant-OR run (phase-1 repetition votes,
        verification votes) only ever needs this popcount.
        """
        total = 0
        remaining = rounds
        while remaining > 0:
            if self._pos >= len(self._buffer):
                self._refill()
            chunk = min(remaining, len(self._buffer) - self._pos)
            end = self._pos + chunk
            total += self._buffer.count(1, self._pos, end)
            self._pos = end
            remaining -= chunk
        self.draws += rounds
        return total

    def take(self, rounds: int) -> "_np.ndarray":
        """The next ``rounds`` indicators as a uint8 array (codeword windows)."""
        pieces = []
        remaining = rounds
        while remaining > 0:
            if self._pos >= len(self._buffer):
                self._refill()
            chunk = min(remaining, len(self._buffer) - self._pos)
            end = self._pos + chunk
            pieces.append(
                _np.frombuffer(
                    self._buffer, dtype=_np.uint8, count=chunk,
                    offset=self._pos,
                )
            )
            self._pos = end
            remaining -= chunk
        self.draws += rounds
        if len(pieces) == 1:
            return pieces[0]
        if not pieces:
            return _np.zeros(0, dtype=_np.uint8)
        return _np.concatenate(pieces)

    def peek(self, rounds: int) -> "_np.ndarray":
        """The next ``rounds`` indicators as a uint8 array, *not* consumed.

        Extends the buffer with whole blocks drawn by the same rule, so
        the indicators later served by ``take``/``count``/
        ``take1`` are exactly the ones this returned (speculative owners
        batches peek a window and consume only its accepted prefix).
        """
        available = len(self._buffer) - self._pos
        if available < rounds:
            blocks = -(-(rounds - available) // _FLIP_BLOCK)
            self._buffer = (
                self._buffer[self._pos :]
                + self._draw(blocks * _FLIP_BLOCK).tobytes()
            )
            self._pos = 0
        return _np.frombuffer(
            self._buffer, dtype=_np.uint8, count=rounds, offset=self._pos
        )


class BatchFlips:
    """Batched flip prefetch: trials as rows of a packed bit-matrix.

    Generates the first ``columns`` flip indicators of every trial — one
    draw-rule block per row and one ``packbits`` for the whole batch —
    and keeps them packed 8 trials' worth of draws per byte.
    :meth:`stream` hands each trial a :class:`FlipStream` preloaded with
    its row; draws beyond the prefetch continue seamlessly from the row's
    rule (its transferred generator state and, for burst noise, its
    carried interference state).

    Args:
        draws: One draw rule per trial (see :func:`flip_rule`).
        columns: Indicators prefetched per trial.
    """

    def __init__(self, draws: Sequence, columns: int = 4096) -> None:
        require_numpy()
        from repro.vectorized.bitmatrix import pack_rows

        self.columns = columns
        self._draws = list(draws)
        bits = _np.zeros((len(self._draws), max(columns, 0)), dtype=bool)
        if columns > 0:
            for row, draw in enumerate(self._draws):
                bits[row] = draw(columns)
        #: The prefetched trial×draw flip matrix, rows packed.
        self.packed = pack_rows(bits)

    def __len__(self) -> int:
        return len(self._draws)

    def stream(self, index: int) -> FlipStream:
        """Trial ``index``'s flip stream, starting from the packed row."""
        from repro.vectorized.bitmatrix import unpack_rows

        preload: bytes | None = None
        if self.columns > 0:
            row = unpack_rows(
                self.packed[index : index + 1], self.columns
            )[0]
            preload = row.tobytes()
        return FlipStream(self._draws[index], preload)
