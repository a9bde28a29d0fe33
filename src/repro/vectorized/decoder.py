"""Vectorized ML decoding over byte-packed masks.

One decode of the scalar :class:`~repro.coding.ml.MLDecoder` is a Python
loop over the codebook; here the whole codebook is scored with a handful
of numpy expressions.  The point of this module is not just speed but
*bitwise* agreement with the scalar decoder, argued term by term:

* the agreement counts ``n11/n10/n01/n00`` are exact integers (≤ the
  codeword length), representable losslessly in float64;
* the finite-weights score ``n11·w11 + (weight−n11)·w10 + (ones−n11)·w01
  + (L−weight−ones+n11)·w00`` folds left-to-right in numpy's elementwise
  evaluation exactly as in the scalar inlined loop, so every IEEE
  rounding step matches;
* the guarded path adds terms in the scalar ``_score`` order; a zero
  count with a finite weight contributes ``±0.0`` (bitwise harmless —
  scalar partial sums are never ``-0.0``), and ``-inf`` weights are
  applied with a mask instead of a multiply, avoiding ``0 · -inf = nan``;
* ``argmax`` returns the *first* maximum — the scalar strict-``>``
  tie-break — and the min-distance fallback's ``argmin`` likewise matches
  the scalar strict-``<`` first-minimum;
* ``n11 = |codeword ∧ received|`` is counted without floating point:
  both sides are bit-packed into uint64 words with zero padding past the
  codeword length (padding bits AND to 0), and the per-word popcounts
  (``np.bitwise_count``, or a byte table on numpy < 2) are summed as
  int64 — the same exact integers, in the same dtype, that an integer
  matrix product would give, so the score fold sees identical operands.
  A float matmul would hand the product to BLAS, whose thread start-up
  dominates batches this small, for no gain in exactness.

The property suite (``tests/property/test_properties_vectorized.py``)
pins the agreement on random codebooks, noise models and received words,
including the forbidden-transition and all-``-inf`` fallback regimes.
"""

from __future__ import annotations

import math

from repro.coding.code import BlockCode
from repro.core.formal import NoiseModel
from repro.errors import DecodingError
from repro.vectorized.noise import require_numpy

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = ["VectorizedMLDecoder"]

_NEG_INF = float("-inf")


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else _NEG_INF


def _pack64(bits: "_np.ndarray") -> "_np.ndarray":
    """(rows, length) 0/1 matrix -> (rows, ceil(length/64)) uint64,
    zero-padded past ``length``."""
    packed = _np.packbits(bits, axis=1)
    width = -(-packed.shape[1] // 8) * 8
    if width != packed.shape[1]:
        padded = _np.zeros((packed.shape[0], width), dtype=_np.uint8)
        padded[:, : packed.shape[1]] = packed
        packed = padded
    return packed.view(_np.uint64)


def _ones_by_bitwise_count(words: "_np.ndarray") -> "_np.ndarray":
    """Set bits along the last axis of a uint64 array, as exact int64."""
    return _np.bitwise_count(words).sum(axis=-1, dtype=_np.int64)


def _ones_by_byte_table(words: "_np.ndarray") -> "_np.ndarray":
    """:func:`_ones_by_bitwise_count` for numpy < 2 (no ``bitwise_count``)."""
    return _BYTE_ONES[words.view(_np.uint8)].sum(axis=-1, dtype=_np.int64)


if _np is not None:
    _BYTE_ONES = _np.array(
        [bin(value).count("1") for value in range(256)], dtype=_np.uint8
    )
    _ones_along_last = (
        _ones_by_bitwise_count
        if hasattr(_np, "bitwise_count")
        else _ones_by_byte_table
    )


class VectorizedMLDecoder:
    """Maximum-likelihood decoding of whole codebooks via numpy.

    Drop-in semantic equivalent of :class:`repro.coding.ml.MLDecoder`
    (same symbols, same ties, same fallback), scoring all codewords at
    once.  The codebook is held as a byte-per-position uint8 matrix — the
    same mask layout the scalar decoder packs into integers — and, for
    the agreement counts, bit-packed into uint64 words.
    """

    def __init__(self, code: BlockCode, noise: NoiseModel) -> None:
        require_numpy()
        self.code = code
        self.noise = noise
        self._length = code.codeword_length
        self._codebook = _np.array(
            [code.encode(symbol) for symbol in range(code.num_symbols)],
            dtype=_np.uint8,
        )
        self._packed = _pack64(self._codebook)
        self._mask_weights = self._codebook.sum(axis=1, dtype=_np.int64)
        # weights[sent][received] = log Pr[receive | sent], as in MLDecoder.
        self._weights = [
            [
                _log(noise.round_probability(sent, received))
                for received in (0, 1)
            ]
            for sent in (0, 1)
        ]
        self._finite_weights = all(
            term != _NEG_INF for row in self._weights for term in row
        )

    def decode(self, received: "_np.ndarray") -> int:
        """The ML symbol for one received word (uint8 bits)."""
        if len(received) != self._length:
            raise DecodingError(
                f"received word has length {len(received)}, codewords have "
                f"length {self._length}"
            )
        return int(self.decode_batch(received[_np.newaxis, :])[0])

    def decode_batch(self, received: "_np.ndarray") -> "_np.ndarray":
        """Decode a (words, length) matrix of received words at once;
        row ``i`` of the result is the ML symbol of row ``i``."""
        if received.ndim != 2 or received.shape[1] != self._length:
            raise DecodingError(
                f"expected a (words, {self._length}) matrix, got shape "
                f"{received.shape}"
            )
        n11 = _ones_along_last(
            _pack64(received)[:, _np.newaxis, :] & self._packed
        )  # (words, symbols)
        ones = received.sum(axis=1, dtype=_np.int64)  # (words,)
        (w00, w01), (w10, w11) = self._weights
        weights = self._mask_weights[_np.newaxis, :]
        length = self._length
        ones_col = ones[:, _np.newaxis]
        if self._finite_weights:
            # Same left-to-right fold as the scalar inlined loop.  Every
            # score is finite, so the min-distance fallback never applies.
            return _np.argmax(
                n11 * w11
                + (weights - n11) * w10
                + (ones_col - n11) * w01
                + (length - weights - ones_col + n11) * w00,
                axis=1,
            )
        scores = _np.zeros_like(n11, dtype=float)
        for counts, term in (
            (n11, w11),
            (weights - n11, w10),
            (ones_col - n11, w01),
            (length - weights - ones_col + n11, w00),
        ):
            if term == _NEG_INF:
                # Mask instead of multiply: 0 * -inf would be nan, and the
                # scalar _score skips zero counts entirely.
                scores = _np.where(counts > 0, _NEG_INF, scores)
            else:
                scores = scores + counts * term
        best = _np.argmax(scores, axis=1)
        dead = scores[_np.arange(len(best)), best] == _NEG_INF
        if dead.any():
            # Every codeword forbidden: scalar falls back to min distance
            # (first minimum), which argmin reproduces exactly.
            distances = _np.count_nonzero(
                self._codebook[_np.newaxis, :, :]
                != received[dead][:, _np.newaxis, :],
                axis=2,
            )
            best[dead] = _np.argmin(distances, axis=1)
        return best
