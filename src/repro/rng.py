"""Seeded, splittable randomness for reproducible executions.

Every stochastic component in this package (channel noise, randomized
protocols, Monte-Carlo sweeps) draws its randomness from a
:class:`random.Random` instance that is threaded through explicitly.  This
module provides helpers to derive independent child generators from a parent
seed so that, e.g., the channel noise and a protocol's shared randomness are
decorrelated but each is individually reproducible.

The design mirrors "splittable" PRNGs: :func:`spawn` hashes the parent seed
together with a string label, so the derived stream depends only on
``(seed, label)`` and not on the order in which other streams were created.

:func:`numpy_stream` hands a generator's exact uniform stream to numpy, so
batched code (topology generators, input samplers, the vectorized noise
streams) can draw many doubles at once without changing a single value.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator

import numpy as _np

from repro.errors import ConfigurationError

__all__ = [
    "derive_seed",
    "spawn",
    "spawn_many",
    "ensure_rng",
    "numpy_stream",
]

_SEED_BYTES = 8


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from ``(seed, label)`` deterministically.

    Uses BLAKE2b over the decimal seed and the label, truncated to 64 bits.
    Distinct labels give (cryptographically) independent child seeds.

    >>> derive_seed(0, "noise") != derive_seed(0, "inputs")
    True
    >>> derive_seed(0, "noise") == derive_seed(0, "noise")
    True
    """
    digest = hashlib.blake2b(
        f"{seed}:{label}".encode("utf-8"), digest_size=_SEED_BYTES
    ).digest()
    return int.from_bytes(digest, "big")


def spawn(seed: int, label: str) -> random.Random:
    """Create a fresh :class:`random.Random` for stream ``label``.

    >>> spawn(1, "a").random() == spawn(1, "a").random()
    True
    """
    return random.Random(derive_seed(seed, label))


def spawn_many(seed: int, label: str, count: int) -> Iterator[random.Random]:
    """Yield ``count`` independent generators labelled ``label[0..count)``."""
    for index in range(count):
        yield spawn(seed, f"{label}[{index}]")


def ensure_rng(rng: random.Random | int | None) -> random.Random:
    """Coerce ``rng`` into a :class:`random.Random`.

    Accepts an existing generator (returned as-is), an integer seed, or
    ``None`` (fresh nondeterministic generator).  This is the single
    normalisation point used by all public entry points that accept a
    ``rng`` argument.
    """
    if isinstance(rng, random.Random):
        return rng
    if rng is None:
        return random.Random()
    return random.Random(rng)


def numpy_stream(rng: random.Random) -> _np.random.RandomState:
    """A ``RandomState`` continuing ``rng``'s exact uniform stream.

    CPython's ``random.Random`` and numpy's legacy ``RandomState`` share
    both the MT19937 core and the 53-bit double construction, so after the
    state transfer ``random_sample(k)`` returns exactly the next ``k``
    values ``rng.random()`` would have produced.  ``rng`` itself is left
    untouched (its state is copied, not consumed).
    """
    version, internal, _gauss = rng.getstate()
    if version != 3:  # pragma: no cover - CPython has used version 3 forever
        raise ConfigurationError(
            f"unsupported random.Random state version {version}"
        )
    key, pos = internal[:-1], internal[-1]
    stream = _np.random.RandomState()
    stream.set_state(("MT19937", _np.asarray(key, dtype=_np.uint32), pos))
    return stream
