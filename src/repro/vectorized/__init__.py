"""The trial-batched vectorized backend (numpy-optional).

A third :class:`~repro.parallel.runner.TrialRunner` backend that executes
Monte-Carlo batches through party-collapsed simulations over packed numpy
bit-matrices, bitwise-equivalent to the scalar engine trial by trial:

* :mod:`repro.vectorized.noise` — MT19937 state transfer from
  ``random.Random`` into numpy, flip-indicator streams, batched prefetch;
* :mod:`repro.vectorized.bitmatrix` — packed trial×round bit-matrices and
  the byte-per-position mask bridge to the scalar decoder;
* :mod:`repro.vectorized.decoder` — whole-codebook ML decoding;
* :mod:`repro.vectorized.schemes` — the collapsed chunk-commit and
  rewind simulations, plus the shared phase-1/2 machinery;
* :mod:`repro.vectorized.schemes_repetition` /
  :mod:`repro.vectorized.schemes_hierarchical` — the collapsed
  repetition and Appendix-D.2 hierarchy simulations;
* :mod:`repro.vectorized.network` — the trial-batched CSR
  neighborhood-OR kernel and the batched graph drivers (neighbor-OR,
  broadcast, MIS, local-broadcast wrapper);
* :mod:`repro.vectorized.runner` — :class:`VectorizedRunner`, with
  scalar fallback for batches it cannot collapse, and :func:`classify`,
  the collapse classifier it shares with the ``auto`` planner.  The
  composed ``vectorized-process`` backend is
  ``ProcessPoolRunner(worker_runner=VectorizedRunner)``: contiguous trial
  stripes, each run by a pool worker's cached vectorized runner.

Importing this package never requires numpy; constructing a runner (or
calling any vectorized entry point) raises a clear
:class:`~repro.errors.ConfigurationError` when numpy is missing.  Select
the backends with ``make_runner(backend="vectorized")`` /
``make_runner(backend="vectorized-process")`` or the matching
``--backend`` values on the CLI.
"""

from repro.vectorized.bitmatrix import (
    bits_from_mask,
    mask_int,
    pack_rows,
    popcount_rows,
    unpack_rows,
)
from repro.vectorized.decoder import VectorizedMLDecoder
from repro.vectorized.network import (
    NetworkBatchKernel,
    NetworkRoute,
    classify_network,
    network_records,
)
from repro.vectorized.noise import (
    HAVE_NUMPY,
    BatchFlips,
    FlipStream,
    ThresholdRule,
    flip_rule,
    numpy_stream,
    require_numpy,
)
from repro.vectorized.runner import VectorizedRunner, classify
from repro.vectorized.schemes import (
    CHANNEL_KINDS,
    CollapsedOutcome,
    simulate_chunked,
    simulate_rewind,
)
from repro.vectorized.schemes_hierarchical import simulate_hierarchical
from repro.vectorized.schemes_repetition import simulate_repetition

__all__ = [
    "HAVE_NUMPY",
    "require_numpy",
    "numpy_stream",
    "ThresholdRule",
    "flip_rule",
    "FlipStream",
    "BatchFlips",
    "pack_rows",
    "unpack_rows",
    "mask_int",
    "bits_from_mask",
    "popcount_rows",
    "VectorizedMLDecoder",
    "CHANNEL_KINDS",
    "CollapsedOutcome",
    "simulate_chunked",
    "simulate_rewind",
    "simulate_repetition",
    "simulate_hierarchical",
    "NetworkBatchKernel",
    "NetworkRoute",
    "classify_network",
    "network_records",
    "VectorizedRunner",
    "classify",
]
