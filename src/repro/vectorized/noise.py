"""Vectorized shared-noise streams, bitwise-matched to the scalar channels.

Every correlated channel in this package decides its per-round noise with a
single comparison ``u < ε`` against the next uniform draw of its
``random.Random`` (see ``Channel._next_noise_float`` and the
``_deliver_shared`` overrides): the correlated channel draws every round,
the one-sided channel only on silent rounds, the suppression channel only
on beeping rounds.  That means the *flip indicator stream* — the sequence
``[u_0 < ε, u_1 < ε, ...]`` in draw order — fully determines a channel's
behaviour, and a trial's noise can be replayed bitwise from any generator
producing the same uniforms.

:func:`~repro.rng.numpy_stream` (re-exported here) transfers a
``random.Random``'s Mersenne-Twister state into a
``numpy.random.RandomState``: both generate doubles with the same
``genrand_res53`` recipe, so ``random_sample(k)`` reproduces ``k`` calls of
``Random.random()`` exactly (verified by golden pins in
``tests/unit/test_rng.py`` and property tests).  :class:`FlipStream` builds
on that to serve flip indicators in blocks, and :class:`BatchFlips`
prefetches the first ``columns`` indicators of a whole batch of trials as
rows of a packed numpy bit-matrix — the trial×draw layout the vectorized
backend batches over.
"""

from __future__ import annotations

import random

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


class FlipStream:
    """The flip-indicator stream of one trial's channel randomness.

    Serves the sequence ``[rng.random() < epsilon, ...]`` in draw order,
    generated in vectorized blocks.  The buffer is a ``bytes`` of 0/1 so
    the three access patterns of the collapsed schemes are all C-speed:
    ``take1`` (one round), ``count`` (popcount of a constant-OR window),
    and ``take`` (a codeword window as a uint8 array); ``peek`` reads
    ahead without consuming.

    Args:
        rng: The channel's generator; its current state is copied.
        epsilon: The channel's flip probability.
        preload: Optional pre-generated prefix of the indicator stream
            (from :class:`BatchFlips`); served before drawing more.
    """

    __slots__ = ("_stream", "_epsilon", "_buffer", "_pos", "draws")

    def __init__(
        self,
        rng: random.Random,
        epsilon: float,
        preload: bytes | None = None,
    ) -> None:
        self._stream = numpy_stream(rng)
        self._epsilon = epsilon
        self._buffer = preload if preload is not None else b""
        self._pos = 0
        #: Indicators consumed so far (draw-order position; test hook).
        self.draws = 0

    def _refill(self) -> None:
        uniforms = self._stream.random_sample(_FLIP_BLOCK)
        self._buffer = (uniforms < self._epsilon).astype(_np.uint8).tobytes()
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

        Extends the buffer with whole blocks drawn from the same
        generator, so the indicators later served by ``take``/``count``/
        ``take1`` are exactly the ones this returned (speculative owners
        batches peek a window and consume only its accepted prefix).
        """
        available = len(self._buffer) - self._pos
        if available < rounds:
            blocks = -(-(rounds - available) // _FLIP_BLOCK)
            uniforms = self._stream.random_sample(blocks * _FLIP_BLOCK)
            self._buffer = (
                self._buffer[self._pos :]
                + (uniforms < self._epsilon).astype(_np.uint8).tobytes()
            )
            self._pos = 0
        return _np.frombuffer(
            self._buffer, dtype=_np.uint8, count=rounds, offset=self._pos
        )


class BatchFlips:
    """Batched flip prefetch: trials as rows of a packed bit-matrix.

    Generates the first ``columns`` flip indicators of every trial in one
    vectorized pass — one ``random_sample`` per row, one comparison and one
    ``packbits`` for the whole batch — and keeps them packed 8 trials'
    worth of draws per byte.  :meth:`stream` hands each trial a
    :class:`FlipStream` preloaded with its row; draws beyond the prefetch
    continue seamlessly from the row's transferred generator state.

    Args:
        rngs: One ``random.Random`` per trial (the channels' generators).
        epsilon: Shared flip probability.
        columns: Indicators prefetched per trial.
    """

    def __init__(
        self,
        rngs: "list[random.Random]",
        epsilon: float,
        columns: int = 4096,
    ) -> None:
        require_numpy()
        from repro.vectorized.bitmatrix import pack_rows

        self.epsilon = epsilon
        self.columns = columns
        self._streams = [numpy_stream(rng) for rng in rngs]
        if columns > 0 and self._streams:
            uniforms = _np.empty((len(self._streams), columns))
            for row, stream in enumerate(self._streams):
                uniforms[row] = stream.random_sample(columns)
            bits = (uniforms < epsilon).astype(_np.uint8)
            #: The prefetched trial×draw flip matrix, rows packed.
            self.packed = pack_rows(bits)
        else:
            self.packed = _np.zeros((len(self._streams), 0), dtype=_np.uint8)

    def __len__(self) -> int:
        return len(self._streams)

    def stream(self, index: int) -> FlipStream:
        """Trial ``index``'s flip stream, starting from the packed row."""
        from repro.vectorized.bitmatrix import unpack_rows

        preload: bytes | None = None
        if self.columns > 0:
            row = unpack_rows(
                self.packed[index : index + 1], self.columns
            )[0]
            preload = row.tobytes()
        flip_stream = FlipStream.__new__(FlipStream)
        flip_stream._stream = self._streams[index]
        flip_stream._epsilon = self.epsilon
        flip_stream._buffer = preload if preload is not None else b""
        flip_stream._pos = 0
        flip_stream.draws = 0
        return flip_stream
