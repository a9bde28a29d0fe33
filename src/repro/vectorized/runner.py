"""The trial-batched vectorized backend.

:class:`VectorizedRunner` is an in-process :class:`~repro.parallel.runner.
InProcessRunner`, like ``SerialRunner``; ``ProcessPoolRunner(worker_runner=
VectorizedRunner)`` stripes it across a process pool (the
``vectorized-process`` backend).  It targets the scalar engine's worst cases — the chunk-commit scheme's
``n²`` inner-party replays and the rewind scheme's strictly sequential
alarm rounds — by running each trial through the party-collapsed
simulations of :mod:`repro.vectorized.schemes`, with the whole batch's
shared-noise draws prefetched as rows of one packed numpy bit-matrix
(:class:`~repro.vectorized.noise.BatchFlips`) and ML decoding vectorized
over the codebook (:class:`~repro.vectorized.decoder.VectorizedMLDecoder`,
built once and shared across the batch).

The determinism contract of :mod:`repro.parallel.runner` is preserved
*bitwise*: inputs come from ``spawn(seed, f"inputs[{index}]")``, channels
from ``executor.channel.make(derive_seed(seed, f"trial[{index}]"))`` —
the exact calls :func:`~repro.parallel.runner.run_trial` makes — and the
collapsed schemes replay the scalar RNG draw order flip for flip.  Any
trial a vectorized sweep records can therefore be replayed on the scalar
engine from its ``(seed, index)`` alone, which is what the cross-backend
equivalence suite does.

Graph-topology batches route to the trial-batched CSR kernel of
:mod:`repro.vectorized.network` instead: the network protocol families
(neighbor-OR, broadcast, MIS) raw or under the local-broadcast
repetition wrapper, over a single-noise-kind ``NetworkBeepingChannel``.
Batches neither model collapses (simulators outside both registries,
channel families outside the correlated shared-bit or network models,
per-node epsilon vectors) run through the scalar :func:`run_trial` loop —
same records, with ``timing["fallback"]`` set and the reason in
``last_fallback_reason``, mirroring the process-pool backend's downgrade
protocol.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.parallel.executors import SimulationExecutor
from repro.parallel.runner import (
    Executor,
    InProcessRunner,
    TrialRecord,
    _scalar_records,
)
from repro.rng import derive_seed, spawn
from repro.simulation.chunked import ChunkCommitSimulator
from repro.simulation.hierarchical import HierarchicalSimulator
from repro.simulation.repetition_sim import RepetitionSimulator
from repro.simulation.rewind import RewindSimulator
from repro.tasks.base import Task
from repro.vectorized.network import (
    NetworkRoute,
    classify_network,
    network_records,
)
from repro.vectorized.noise import BatchFlips, flip_rule, require_numpy
from repro.vectorized.schemes import (
    CHANNEL_KINDS,
    simulate_chunked,
    simulate_rewind,
)
from repro.vectorized.schemes_hierarchical import simulate_hierarchical
from repro.vectorized.schemes_repetition import simulate_repetition

__all__ = ["VectorizedRunner", "classify"]

#: Shared-noise flip indicators prefetched per trial into the batch
#: bit-matrix of the single-hop schemes; draws beyond it continue
#: seamlessly from each trial's transferred generator state.  Purely an
#: amortization knob: results are identical for any value.  Network
#: batches read per-trial flip streams directly and ignore it.
PREFETCH = 4096

#: Simulator types with a party-collapsed form.  Exact types: a subclass
#: may override scheme steps the collapsed forms hard-code.
_COLLAPSED_SCHEMES = {
    ChunkCommitSimulator: simulate_chunked,
    RewindSimulator: simulate_rewind,
    RepetitionSimulator: simulate_repetition,
    HierarchicalSimulator: simulate_hierarchical,
}


def classify(executor: Executor, seed: int):
    """Whether a batch collapses: ``(route, scheme, reason)``.

    The one collapse classifier, shared by :class:`VectorizedRunner` and
    the ``auto`` planner so the two cannot disagree; it needs no numpy
    (callers check for it).  Routes come in two shapes: a ``(simulator,
    collapsed)`` pair for the single-hop party-collapsed schemes, or a
    :class:`~repro.vectorized.network.NetworkRoute` for the batched graph
    kernel.  Both are tried; ``route`` is ``None`` only when neither
    applies, with the reasons joined in ``reason``.  ``scheme`` is the
    crossover key: the simulator name for single-hop batches, the
    route's key for network ones.
    """
    scheme = None
    reason = "executor is not a SimulationExecutor"
    if isinstance(executor, SimulationExecutor):
        simulator = executor.simulator.make()
        scheme = type(simulator).__name__
        collapsed = _COLLAPSED_SCHEMES.get(type(simulator))
        if collapsed is None:
            reason = f"no collapsed form for {scheme}"
        else:
            probe = executor.channel.make(derive_seed(seed, "trial[0]"))
            if type(probe) in CHANNEL_KINDS:
                return (simulator, collapsed), scheme, None
            reason = f"no collapsed replay for {type(probe).__name__}"
    route, net_reason = classify_network(executor, seed)
    if route is not None:
        return route, route.scheme, None
    return None, scheme, f"{reason}; {net_reason}"


class VectorizedRunner(InProcessRunner):
    """In-process backend running batches through collapsed simulations.

    Batches that cannot collapse run the scalar :func:`run_trial` loop
    over the same indices, with the reason in ``last_fallback_reason``.

    Requires numpy (raises :class:`~repro.errors.ConfigurationError` at
    construction when missing, so callers can gate on it cleanly).
    """

    #: One stripe per pool worker: long stripes amortize each worker's
    #: batched noise prefetch and codebook construction over many trials.
    STRIPES_PER_WORKER = 1

    def __init__(self) -> None:
        require_numpy()
        # (chunk_length, rate_constant, code_seed, up, down) ->
        # (code, VectorizedMLDecoder); shared across batches so each
        # codebook is built and packed once per parameter point, not once
        # per trial.
        self._codebooks: dict[tuple, tuple] = {}

    def run_indices(
        self,
        task: Task,
        executor: Executor,
        seed: int,
        indices: Sequence[int],
        collect_times: bool = False,
    ) -> tuple[list[TrialRecord], list[float] | None]:
        route, _, reason = classify(executor, seed)
        self.last_fallback_reason = reason
        if route is None:
            return _scalar_records(
                task, executor, seed, indices, collect_times
            )
        if isinstance(route, NetworkRoute):
            return network_records(
                route,
                task,
                executor,
                seed,
                indices,
                collect_times=collect_times,
            )
        return self._collapsed_records(
            route, task, executor, seed, indices, collect_times
        )

    def _collapsed_records(
        self,
        route: tuple,
        task: Task,
        executor: Executor,
        seed: int,
        indices: Sequence[int],
        collect_times: bool = False,
    ) -> tuple[list[TrialRecord], list[float] | None]:
        """Run the given global trial indices through a collapsed scheme."""
        simulator, collapsed = route
        # The exact per-trial channel constructions run_trial's executor
        # would make, batched up front so their noise streams can be
        # prefetched as one packed trial x draw bit-matrix.
        channels = [
            executor.channel.make(derive_seed(seed, f"trial[{index}]"))
            for index in indices
        ]
        flip_rows: BatchFlips | None = None
        if CHANNEL_KINDS[type(channels[0])] != "noiseless":
            flip_rows = BatchFlips(
                [flip_rule(channel) for channel in channels],
                columns=PREFETCH,
            )

        records: list[TrialRecord] = []
        times: list[float] | None = [] if collect_times else None
        last = time.perf_counter()
        for row, index in enumerate(indices):
            inputs = task.sample_inputs(spawn(seed, f"inputs[{index}]"))
            outcome = collapsed(
                simulator,
                task.noiseless_protocol(),
                inputs,
                channels[row],
                flips=(
                    flip_rows.stream(row)
                    if flip_rows is not None
                    else None
                ),
                codebook_cache=self._codebooks,
            )
            report = outcome.report
            stats = outcome.channel_stats
            records.append(
                TrialRecord(
                    index=index,
                    success=bool(task.is_correct(inputs, outcome.outputs)),
                    rounds=float(outcome.rounds),
                    chunk_attempts=float(report.chunk_attempts),
                    completed=bool(report.completed),
                    channel_rounds=stats.rounds,
                    beeps_sent=stats.beeps_sent,
                    or_ones=stats.or_ones,
                    flips_up=stats.flips_up,
                    flips_down=stats.flips_down,
                    total_energy=outcome.total_energy,
                )
            )
            if times is not None:
                now = time.perf_counter()
                times.append(now - last)
                last = now
        return records, times
