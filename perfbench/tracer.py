"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` wraps the public entry point of each layer of the
``repro`` package (plus the few private per-batch entry points noted in
:data:`TARGETS`) with a :class:`Tracer` span.  A span records its name,
its parent span, its first start, its last end, how many calls it
covers and their total duration.  Calls that run thousands of times per
trial (noise draws, kernel steps, decodes) are *hot*: their calls under
one parent fold into a single span, so the trace stays small and the
wrapper costs two clock reads.  Self time is a span's total minus the
totals of its child spans; it is computed after the run, from the
written spans (:func:`layer_totals`).

Spans stay in memory and each process writes its own file once, at the
end: the traced CLI process when ``main`` returns, and each pool worker
at its normal exit (a :mod:`multiprocessing` finalizer).  The benchmark
merges the files.  Wrapping consumes no random draws, so a traced sweep
returns the same points as an untraced one, which the benchmark checks.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# Span record fields, in the order they are stored and written.
ID, PARENT, NAME, START, END, CALLS, TOTAL = range(7)

ROOT = "cli"
RUN_TRIALS = "parallel.run_trials"


class Tracer:
    """Spans and counters of one process, written to ``out_dir``."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset("main")
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self, role: str) -> None:
        self.role = role
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        # Outermost run_trials batches: timing and records (main process).
        self.batches: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._hot: dict[tuple[int, str], int] = {}

    def _after_fork(self) -> None:
        # A pool worker starts with an empty trace and writes it at exit.
        self._reset("worker")
        multiprocessing.util.Finalize(None, self.write, exitpriority=100)

    def _open(self, name: str, hot: bool) -> int:
        parent = self._stack[-1] if self._stack else -1
        if hot:
            key = (parent, name)
            span_id = self._hot.get(key)
            if span_id is not None:
                return span_id
        span_id = len(self.spans)
        self.spans.append([span_id, parent, name, None, None, 0, 0.0])
        if hot:
            self._hot[key] = span_id
        return span_id

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        hot: bool = False,
        count: Callable | None = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call; ``count(tracer,
        args, kwargs, result)`` then adds to the counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer._open(name, hot)
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span = tracer.spans[span_id]
                if span[START] is None:
                    span[START] = start
                span[END] = end
                span[CALLS] += 1
                span[TOTAL] += end - start
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def inside(self, name: str) -> bool:
        """Whether a ``name`` span is open on the current stack."""
        return any(self.spans[i][NAME] == name for i in self._stack)

    def write(self, **extra: Any) -> None:
        path = os.path.join(self.out_dir, f"{self.role}-{os.getpid()}.json")
        payload = {
            "role": self.role,
            "pid": os.getpid(),
            "spans": self.spans,
            "counts": dict(self.counts),
            "batches": self.batches,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# -- what gets wrapped --------------------------------------------------


def _add(key: str, amount: Callable[[tuple, dict, Any], float]):
    def count(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[key] += amount(args, kwargs, result)

    return count


def _both(*counts: Callable) -> Callable:
    def count(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        for one in counts:
            one(tracer, args, kwargs, result)

    return count


def _ONE(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def _noise(draws: Callable[[tuple], int]) -> Callable:
    return _both(
        _add("vectorized.noise_calls", _ONE),
        _add("vectorized.noise_draws", lambda a, k, r: draws(a)),
    )


def _kernel_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    beeps = args[1]
    return 2 * beeps.shape[0] * beeps.shape[1]


def _put_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    return os.path.getsize(result)


def _batch(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    """Outermost ``run_trials``: keep its timing and its records."""
    if tracer.inside(RUN_TRIALS):
        return
    timing = result.timing
    tracer.counts["parallel.batches"] += 1
    tracer.batches.append(
        {
            "seed": kwargs.get("seed", 0),
            "timing": dict(timing),
            "records": [
                dataclasses.asdict(record) for record in result.records
            ],
        }
    )


# (layer span name, "module:attribute" or "module:Class.method", hot,
# counter).  A "module:Base.*method" target wraps ``method`` on every
# loaded subclass of ``Base`` that defines it.  The private entries are
# per-batch entry points with no public wrapper: the pool workers'
# task functions and the network channel's per-round noise loop.
TARGETS: tuple[tuple[str, str, bool, Callable | None], ...] = (
    ("vectorized.noise", "repro.vectorized.noise:FlipStream.take", True,
     _noise(lambda a: a[1])),
    ("vectorized.noise", "repro.vectorized.noise:FlipStream.take1", True,
     _noise(lambda a: 1)),
    ("vectorized.noise", "repro.vectorized.noise:FlipStream.count", True,
     _noise(lambda a: a[1])),
    ("vectorized.noise", "repro.vectorized.noise:BatchFlips.__init__",
     True, None),
    ("vectorized.noise",
     "repro.vectorized.network:_BatchNetworkChannel._node_noise", True,
     None),
    ("vectorized.kernel", "repro.vectorized.network:NetworkBatchKernel.step",
     True, _both(_add("vectorized.kernel_steps", _ONE),
                 _add("vectorized.kernel_bytes", _kernel_bytes))),
    ("vectorized.network_driver", "repro.vectorized.network:network_records",
     False, None),
    ("vectorized.scheme", "repro.vectorized.schemes:simulate_chunked", True,
     None),
    ("vectorized.scheme", "repro.vectorized.schemes:simulate_rewind", True,
     None),
    ("vectorized.scheme",
     "repro.vectorized.schemes_repetition:simulate_repetition", True, None),
    ("vectorized.scheme",
     "repro.vectorized.schemes_hierarchical:simulate_hierarchical", True,
     None),
    ("vectorized.decode",
     "repro.vectorized.decoder:VectorizedMLDecoder.decode", True,
     _add("vectorized.decode_calls", _ONE)),
    ("vectorized.decode",
     "repro.vectorized.decoder:VectorizedMLDecoder.decode_batch", True,
     _add("vectorized.decode_calls", _ONE)),
    ("tasks.sample_inputs", "repro.tasks.base:Task.*sample_inputs", True,
     _add("tasks.sample_inputs_calls", _ONE)),
    ("network.topology_build", "repro.network.topology:TOPOLOGIES", False,
     _add("network.topology_builds", _ONE)),
    (RUN_TRIALS, "repro.parallel.runner:TrialRunner.*run_trials", False,
     _batch),
    ("parallel.worker", "repro.parallel.runner:_run_chunk", False, None),
    ("parallel.worker", "repro.vectorized.process_runner:_stripe_worker",
     False, None),
    ("core.run_protocol", "repro.core.engine:run_protocol", True,
     _add("core.run_protocol_calls", _ONE)),
    ("simulation.simulate", "repro.simulation.base:Simulator.*simulate",
     True, None),
    ("coding.decode", "repro.coding.ml:MLDecoder.decode", True,
     _add("coding.decode_calls", _ONE)),
    ("service.store_get", "repro.service.store:ResultStore.get", True,
     _both(_add("service.store_gets", _ONE),
           _add("service.store_hits", lambda a, k, r: r is not None))),
    ("service.store_put", "repro.service.store:ResultStore.put", True,
     _both(_add("service.store_puts", _ONE),
           _add("service.bytes_written", _put_bytes))),
    ("analysis.aggregate", "repro.analysis.sweep:run_sweep_point", False,
     None),
)


def _subclasses(base: type) -> list[type]:
    """``base`` and its loaded subclasses, each once."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


def _rebind(old: Callable, new: Callable) -> None:
    """Point every ``repro`` module global and module-level registry
    entry that holds ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is old:
                        value[key] = new


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets that no longer exist."""
    import importlib

    import repro.cli  # noqa: F401  (loads every layer the CLI can reach)
    import repro.vectorized  # noqa: F401

    missing = []
    for name, target, hot, count in TARGETS:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
            owner_name, _, method = path.rpartition(".")
            if path == "TOPOLOGIES":
                families = module.TOPOLOGIES
                for kind, family in list(families.items()):
                    families[kind] = dataclasses.replace(
                        family,
                        builder=tracer.wrap(
                            name, family.builder, hot=hot, count=count
                        ),
                    )
            elif method.startswith("*"):
                method = method[1:]
                for cls in _subclasses(getattr(module, owner_name)):
                    if method in vars(cls):
                        setattr(cls, method, tracer.wrap(
                            name, vars(cls)[method], hot=hot, count=count
                        ))
            elif owner_name:
                cls = getattr(module, owner_name)
                setattr(cls, method, tracer.wrap(
                    name, vars(cls)[method], hot=hot, count=count
                ))
            else:
                old = getattr(module, method)
                _rebind(old, tracer.wrap(name, old, hot=hot, count=count))
        except (ImportError, AttributeError, KeyError):
            missing.append(target)
    return missing


# -- reading a merged trace ----------------------------------------------


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's total minus the totals of its child spans."""
    own = [span[TOTAL] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[TOTAL]
    return own


def layer_totals(traces: list[dict[str, Any]]) -> dict[str, float]:
    """Self time per span name, summed over every process's trace."""
    totals: dict[str, float] = defaultdict(float)
    for trace in traces:
        for span, own in zip(trace["spans"], self_times(trace["spans"])):
            totals[span[NAME]] += own
    return dict(totals)
