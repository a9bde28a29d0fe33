"""Pluggable Monte-Carlo trial runners.

Every sweep in this package reduces to the same embarrassingly parallel
unit: *run one independently seeded trial and record what happened*.
:func:`run_trial` is that unit, and a :class:`TrialRunner` decides how a
batch of them executes — in-process (an :class:`InProcessRunner`:
:class:`SerialRunner` here, ``VectorizedRunner`` in
:mod:`repro.vectorized`) or striped across a reusable process pool whose
workers each run one of those (:class:`ProcessPoolRunner`).

**Determinism contract.**  A trial's behaviour depends only on
``(master seed, trial index)``: inputs come from
``spawn(seed, f"inputs[{index}]")`` and the executor's channel/protocol
randomness from ``derive_seed(seed, f"trial[{index}]")`` — never from the
dispatch order, the worker a trial lands on, or the chunking.  Runners
return records sorted by trial index, and all aggregation happens on the
returned records in index order, so every backend produces **bitwise
identical** sweep results for the same seed.  Wall-clock measurements
live in :class:`TrialBatch.timing` only, never in the records.

The process-pool backend degrades gracefully: with ``workers=1``, with an
unpicklable task/executor (e.g. a closure), or when the pool cannot start
(restricted environments) or a worker dies, it runs the batch in-process
on its worker runner type — same records, ``timing["fallback"]`` flags
the downgrade.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.channels.stats import ChannelStats
from repro.core.result import ExecutionResult
from repro.errors import ConfigurationError
from repro.rng import derive_seed, spawn
from repro.tasks.base import Task

__all__ = [
    "TrialRecord",
    "TrialBatch",
    "run_trial",
    "TrialRunner",
    "InProcessRunner",
    "SerialRunner",
    "ProcessPoolRunner",
]

Executor = Callable[[Sequence[Any], int], ExecutionResult]


@dataclass(frozen=True)
class TrialRecord:
    """Everything a sweep aggregates about one trial.

    Records are plain picklable data so workers can ship them back
    cheaply; they deliberately exclude transcripts and outputs (which can
    be arbitrarily large and are not aggregated by any sweep).

    Attributes:
        index: Trial index within the batch (the seed-derivation key).
        success: ``task.is_correct(inputs, outputs)`` for this trial.
        rounds: Channel rounds the execution reported.
        chunk_attempts: ``report.chunk_attempts`` when the executor was a
            simulator, else ``None``.
        completed: ``report.completed`` when present, else ``None``.
        channel_rounds / beeps_sent / or_ones / flips_up / flips_down:
            The execution's :class:`ChannelStats` delta, flattened.
        total_energy: Total beeps across parties.
    """

    index: int
    success: bool
    rounds: float
    chunk_attempts: float | None
    completed: bool | None
    channel_rounds: int
    beeps_sent: int
    or_ones: int
    flips_up: int
    flips_down: int
    total_energy: int

    @property
    def flips(self) -> int:
        """Total noise events observed during the trial."""
        return self.flips_up + self.flips_down

    def channel_stats(self) -> ChannelStats:
        """The trial's channel counters as a :class:`ChannelStats`."""
        return ChannelStats(
            rounds=self.channel_rounds,
            beeps_sent=self.beeps_sent,
            or_ones=self.or_ones,
            flips_up=self.flips_up,
            flips_down=self.flips_down,
        )


@dataclass
class TrialBatch:
    """A completed batch: records in trial-index order plus timing.

    ``timing`` is wall-clock bookkeeping (trials/sec, worker utilization,
    fallback flags).  It is *never* folded into deterministic outputs —
    see the module docstring's determinism contract.
    """

    records: list[TrialRecord]
    timing: dict[str, float]

    def aggregate_channel_stats(self) -> ChannelStats:
        """Sum of the per-trial channel counters (drift tripwire)."""
        total = ChannelStats()
        for record in self.records:
            total.rounds += record.channel_rounds
            total.beeps_sent += record.beeps_sent
            total.or_ones += record.or_ones
            total.flips_up += record.flips_up
            total.flips_down += record.flips_down
        return total


def run_trial(
    task: Task, executor: Executor, seed: int, index: int
) -> TrialRecord:
    """Run trial ``index`` of a batch — the determinism contract's unit.

    Inputs are sampled from ``spawn(seed, f"inputs[{index}]")`` and the
    executor receives ``derive_seed(seed, f"trial[{index}]")``, so the
    record depends only on ``(seed, index)`` and both labels match what
    the historical serial loop in :mod:`repro.analysis.sweep` used —
    existing benchmark results stay valid.
    """
    inputs = task.sample_inputs(spawn(seed, f"inputs[{index}]"))
    trial_seed = derive_seed(seed, f"trial[{index}]")
    result = executor(inputs, trial_seed)
    report = result.metadata.get("report")
    stats = result.channel_stats
    return TrialRecord(
        index=index,
        success=bool(task.is_correct(inputs, result.outputs)),
        rounds=float(result.rounds),
        chunk_attempts=(
            float(report.chunk_attempts) if report is not None else None
        ),
        completed=(
            bool(report.completed) if report is not None else None
        ),
        channel_rounds=stats.rounds,
        beeps_sent=stats.beeps_sent,
        or_ones=stats.or_ones,
        flips_up=stats.flips_up,
        flips_down=stats.flips_down,
        total_energy=result.total_energy,
    )


def _validate_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")


def _scalar_records(
    task: Task,
    executor: Executor,
    seed: int,
    indices: Sequence[int],
    collect_times: bool = False,
) -> tuple[list[TrialRecord], list[float] | None]:
    """:func:`run_trial` over the given global indices, plus each
    trial's seconds when ``collect_times``."""
    if not collect_times:
        records = [run_trial(task, executor, seed, index) for index in indices]
        return records, None
    records, times = [], []
    last = time.perf_counter()
    for index in indices:
        records.append(run_trial(task, executor, seed, index))
        now = time.perf_counter()
        times.append(now - last)
        last = now
    return records, times


def _emit_batch_events(
    observe: "Observer",
    batch: TrialBatch,
    trial_times: list[float] | None = None,
) -> None:
    """Runner trace events: one ``trial`` per record plus the
    ``sweep_batch`` summary with merged cross-process counters.

    Emitted in the parent after the batch completes, from the returned
    records — which the determinism contract makes identical across
    backends — so traced and untraced sweeps agree bitwise.
    """
    for record in batch.records:
        fields: dict[str, Any] = {
            "index": record.index,
            "success": record.success,
            "rounds": record.rounds,
            "flips": record.flips,
            "total_energy": record.total_energy,
        }
        if trial_times is not None:
            fields["elapsed_s"] = trial_times[record.index]
        observe.emit("trial", **fields)
    totals = batch.aggregate_channel_stats()
    timing = batch.timing
    observe.emit(
        "sweep_batch",
        trials=len(batch.records),
        workers=int(timing["workers"]),
        utilization=timing["utilization"],
        elapsed_s=timing["elapsed_s"],
        parallel=bool(timing["parallel"]),
        fallback=bool(timing["fallback"]),
        channel_rounds=totals.rounds,
        beeps_sent=totals.beeps_sent,
        flips_up=totals.flips_up,
        flips_down=totals.flips_down,
    )


def _timing(
    *,
    elapsed: float,
    trials: int,
    workers: int,
    chunks: int,
    busy: float,
    parallel: bool,
    fallback: bool,
) -> dict[str, float]:
    return {
        "elapsed_s": elapsed,
        "trials_per_s": trials / elapsed if elapsed > 0 else float("inf"),
        "workers": float(workers),
        "chunks": float(chunks),
        "busy_s": busy,
        "utilization": (
            busy / (elapsed * workers) if elapsed > 0 and workers else 1.0
        ),
        "parallel": 1.0 if parallel else 0.0,
        "fallback": 1.0 if fallback else 0.0,
    }


class TrialRunner(ABC):
    """Strategy interface: how a batch of independent trials executes."""

    #: Why the last batch did not run as configured (a pool downgrade or
    #: a batch that could not collapse); ``None`` when it did.
    last_fallback_reason: str | None = None

    @property
    @abstractmethod
    def workers(self) -> int:
        """Maximum concurrent trials this runner aims for."""

    @abstractmethod
    def run_trials(
        self,
        task: Task,
        executor: Executor,
        trials: int,
        *,
        seed: int = 0,
        observe: "Observer | None" = None,
    ) -> TrialBatch:
        """Run ``trials`` independent trials; records in index order.

        ``observe`` (optional :class:`~repro.observe.Observer`) receives
        one ``trial`` event per record and a ``sweep_batch`` summary
        (plus ``worker_chunk`` events on the process-pool backend).
        Events are emitted in the parent process from the returned
        records, so tracing never changes the records themselves.
        """

    def close(self) -> None:
        """Release held resources (pools).  Idempotent."""

    def __enter__(self) -> "TrialRunner":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False


class InProcessRunner(TrialRunner):
    """A runner that executes trials in the calling process.

    Subclasses only say how to run a list of *global* trial indices
    (:meth:`run_indices`); the batch around it — timing, the fallback
    flag and trace events — is built here, once, for the in-process
    backends, for every :class:`ProcessPoolRunner` downgrade and (through
    :func:`_run_chunk`) for each pool worker's stripe.
    """

    #: Contiguous stripes each pool worker receives per batch when this
    #: type runs inside a :class:`ProcessPoolRunner`.
    STRIPES_PER_WORKER: int

    @property
    def workers(self) -> int:
        return 1

    @abstractmethod
    def run_indices(
        self,
        task: Task,
        executor: Executor,
        seed: int,
        indices: Sequence[int],
        collect_times: bool = False,
    ) -> tuple[list[TrialRecord], list[float] | None]:
        """Records for the given global trial indices, in that order,
        plus each trial's seconds when ``collect_times``.

        Per-trial seeds derive from the global index, so any stripe of a
        batch gives exactly the records a whole-batch run gives for those
        indices.  Sets ``last_fallback_reason`` when the runner could not
        run the indices its own way.
        """

    def run_trials(
        self,
        task: Task,
        executor: Executor,
        trials: int,
        *,
        seed: int = 0,
        observe: "Observer | None" = None,
    ) -> TrialBatch:
        return self._batch(task, executor, trials, seed, observe)

    def _batch(
        self,
        task: Task,
        executor: Executor,
        trials: int,
        seed: int,
        observe: "Observer | None",
        downgrade: str | None = None,
    ) -> TrialBatch:
        """The in-process batch.  ``downgrade`` names why a pool runner
        ran it here instead; it sets ``timing["fallback"]``, as does a
        fallback inside :meth:`run_indices`."""
        _validate_trials(trials)
        tracing = observe is not None and observe.enabled
        start = time.perf_counter()
        records, times = self.run_indices(
            task, executor, seed, range(trials), collect_times=tracing
        )
        elapsed = time.perf_counter() - start
        batch = TrialBatch(
            records=records,
            timing=_timing(
                elapsed=elapsed,
                trials=trials,
                workers=1,
                chunks=1,
                busy=elapsed,
                parallel=False,
                fallback=(
                    downgrade is not None
                    or self.last_fallback_reason is not None
                ),
            ),
        )
        if tracing:
            _emit_batch_events(observe, batch, trial_times=times)
        return batch


class SerialRunner(InProcessRunner):
    """The historical in-process loop — the reference backend."""

    #: About four chunks per pool worker: load balancing across workers
    #: without pickling one work item per trial.
    STRIPES_PER_WORKER = 4

    def run_indices(
        self,
        task: Task,
        executor: Executor,
        seed: int,
        indices: Sequence[int],
        collect_times: bool = False,
    ) -> tuple[list[TrialRecord], list[float] | None]:
        return _scalar_records(task, executor, seed, indices, collect_times)


#: This process's in-process runners, one per type.  Pool workers are
#: reused across batches and grid points, so each worker builds a
#: runner's caches (codebooks, decoders) once.
_WORKER_RUNNERS: dict[type, InProcessRunner] = {}


def _run_chunk(
    task: Task,
    executor: Executor,
    seed: int,
    indices: list[int],
    runner_type: type[InProcessRunner],
) -> tuple[list[TrialRecord], float, str | None]:
    """Worker entry point: run a contiguous stripe of global trials.

    Returns the records, the worker's busy time for the utilization
    metric, and the worker runner's ``last_fallback_reason``.
    Module-level so the pool can pickle it by reference.
    """
    start = time.perf_counter()
    runner = _WORKER_RUNNERS.get(runner_type)
    if runner is None:
        runner = _WORKER_RUNNERS[runner_type] = runner_type()
    records, _ = runner.run_indices(task, executor, seed, indices)
    return records, time.perf_counter() - start, runner.last_fallback_reason


class ProcessPoolRunner(TrialRunner):
    """Contiguous trial stripes over a reusable :class:`ProcessPoolExecutor`.

    Each pool worker runs its stripes through a cached in-process runner
    of type ``worker_runner``: :class:`SerialRunner` (the ``process``
    backend) or :class:`~repro.vectorized.runner.VectorizedRunner` (the
    ``vectorized-process`` backend).  The pool is created lazily on first
    use and reused across ``run_trials`` calls (and hence across sweep
    grid points), so worker startup is amortised over a whole curve.
    Close it explicitly (or use the runner as a context manager) when
    done.

    Args:
        workers: Pool size; ``None`` means ``os.cpu_count()``.
        chunk_size: Trials per dispatched stripe; ``None`` cuts
            ``worker_runner.STRIPES_PER_WORKER`` balanced stripes per
            worker.
        worker_runner: The :class:`InProcessRunner` type the workers run;
            constructed here too, so a vectorized pool raises
            :class:`~repro.errors.ConfigurationError` without numpy.

    Runs the batch in-process on a ``worker_runner`` — with identical
    results — when ``workers == 1``, when the task/executor cannot be
    pickled, or when the pool cannot start or breaks mid-batch;
    ``last_fallback_reason`` records why, or the workers' own fallback
    reason when the pool ran.  An exception raised by a trial is raised
    unchanged, as the in-process runner raises it; the pool stays up.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        worker_runner: type[InProcessRunner] = SerialRunner,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self._workers = workers
        self.chunk_size = chunk_size
        self.worker_runner = worker_runner
        # Runs the workers == 1 path and every downgrade; keeps its
        # caches across batches like a pool worker's runner.
        self._local = worker_runner()
        self._pool = None
        self._pool_failed = False

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self):
        if self._pool is None and not self._pool_failed:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self._workers)
            except (ImportError, OSError, ValueError):
                # No multiprocessing support here (restricted sandbox,
                # missing /dev/shm, ...): permanently degrade.
                self._pool_failed = True
        return self._pool

    def _chunk_indices(self, trials: int) -> list[list[int]]:
        size = self.chunk_size
        if size is None:
            stripes = self.worker_runner.STRIPES_PER_WORKER * self._workers
            size = max(1, math.ceil(trials / stripes))
        return [
            list(range(low, min(low + size, trials)))
            for low in range(0, trials, size)
        ]

    def _in_process(
        self,
        task: Task,
        executor: Executor,
        trials: int,
        seed: int,
        observe: "Observer | None",
        reason: str | None,
    ) -> TrialBatch:
        # ``reason is None`` is the designed workers == 1 path, not a
        # downgrade; the local runner's own fallback still surfaces.
        batch = self._local._batch(
            task, executor, trials, seed, observe, downgrade=reason
        )
        self.last_fallback_reason = reason or self._local.last_fallback_reason
        return batch

    def _abandon_pool(
        self,
        task: Task,
        executor: Executor,
        trials: int,
        seed: int,
        observe: "Observer | None",
    ) -> TrialBatch:
        """Shut a failed pool down for good and recover the batch
        in-process, so the sweep still completes correctly."""
        self.close()
        self._pool_failed = True
        return self._in_process(
            task, executor, trials, seed, observe,
            "process pool broke mid-batch",
        )

    def run_trials(
        self,
        task: Task,
        executor: Executor,
        trials: int,
        *,
        seed: int = 0,
        observe: "Observer | None" = None,
    ) -> TrialBatch:
        _validate_trials(trials)
        if self._workers == 1:
            return self._in_process(
                task, executor, trials, seed, observe, None
            )
        try:
            pickle.dumps((task, executor))
        except Exception:
            return self._in_process(
                task, executor, trials, seed, observe,
                "unpicklable task/executor",
            )
        pool = self._ensure_pool()
        if pool is None:
            return self._in_process(
                task, executor, trials, seed, observe,
                "process pool failed to start",
            )
        from concurrent.futures import wait
        from concurrent.futures.process import BrokenProcessPool

        chunks = self._chunk_indices(trials)
        start = time.perf_counter()
        try:
            futures = [
                pool.submit(
                    _run_chunk, task, executor, seed, chunk,
                    self.worker_runner,
                )
                for chunk in chunks
            ]
        except (OSError, RuntimeError):
            # Submitting runs no trial, so what it raises is the pool's:
            # the workers fork on the first submit, and a pool that
            # broke while idle refuses work (BrokenProcessPool).
            return self._abandon_pool(task, executor, trials, seed, observe)
        try:
            outcomes = [future.result() for future in futures]
        except BrokenProcessPool:
            # A worker died (OOM, signal).
            return self._abandon_pool(task, executor, trials, seed, observe)
        except Exception:
            # A trial raised inside a worker; the pool is healthy.  Leave
            # it idle for the next batch, then raise the trial's error.
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        elapsed = time.perf_counter() - start
        # Every stripe classifies the batch alike, so the first worker
        # fallback reason is *the* reason; the pool itself ran, so
        # timing["fallback"] stays unset.
        self.last_fallback_reason = next(
            (reason for _, _, reason in outcomes if reason is not None),
            None,
        )
        records = [
            record for chunk_records, _, _ in outcomes
            for record in chunk_records
        ]
        records.sort(key=lambda record: record.index)
        busy = sum(busy_time for _, busy_time, _ in outcomes)
        batch = TrialBatch(
            records=records,
            timing=_timing(
                elapsed=elapsed,
                trials=trials,
                workers=self._workers,
                chunks=len(chunks),
                busy=busy,
                parallel=True,
                fallback=False,
            ),
        )
        if observe is not None and observe.enabled:
            for chunk_no, (chunk, (_, busy_time, _)) in enumerate(
                zip(chunks, outcomes)
            ):
                observe.emit(
                    "worker_chunk",
                    chunk=chunk_no,
                    trials=len(chunk),
                    busy_s=busy_time,
                )
            _emit_batch_events(observe, batch)
        return batch

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
