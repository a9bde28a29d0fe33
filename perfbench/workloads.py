"""The benchmark's workloads and per-layer metrics, with their rationale.

Each workload is one real ``python -m repro sweep run|resume`` invocation.
Next to each definition sits why it was chosen, the layers it loads, the
layers it bypasses, and (in :data:`LAYER_METRICS`) which end-to-end
metric each per-layer metric should move.  A later change that claims a
gain on one layer names its workload from this table, and the workloads
that bypass that layer are where it must show no change.

Sizes are set so that one invocation takes 2-4 s on a 2-CPU x86 machine
and the scalar replays of the correctness gate take at most a few
seconds per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# End-to-end metrics: (unit, better).  ``failed_ratio`` is not among them
# because it reads 0 on a correct program; failures are reported as the
# result's ``failed`` / ``attempted`` counts instead.
END_TO_END: dict[str, tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics from the traced run: name -> (unit, better, the
# end-to-end metrics a change to this layer should move).  ``*_s`` values
# are self times summed over every process of the run (pool workers
# included), so on a pooled workload they can exceed ``wall_s``.
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "vectorized.noise_s": ("s", "lower", ("trials_per_s", "wall_s")),
    "vectorized.noise_calls": ("count", "lower", ("trials_per_s",)),
    "vectorized.noise_draws": ("count", "lower", ("trials_per_s",)),
    "tasks.sample_inputs_s": ("s", "lower", ("trials_per_s",)),
    "tasks.sample_inputs_calls": ("count", "lower", ("trials_per_s",)),
    "vectorized.kernel_s": ("s", "lower", ("trials_per_s",)),
    "vectorized.kernel_steps": ("count", "lower", ("trials_per_s",)),
    # Computed, not measured: 2 x nodes x trials bytes per step (one
    # uint8 read of the beep matrix, one write of the heard matrix).
    "vectorized.kernel_bytes": (
        "bytes-computed", "lower", ("trials_per_s", "peak_rss_mb"),
    ),
    "vectorized.network_driver_s": ("s", "lower", ("trials_per_s",)),
    "network.topology_build_s": ("s", "lower", ("setup_s", "wall_s")),
    "network.topology_builds": ("count", "lower", ("setup_s", "wall_s")),
    "vectorized.scheme_s": ("s", "lower", ("trials_per_s",)),
    "vectorized.decode_s": ("s", "lower", ("trials_per_s",)),
    "vectorized.decode_calls": ("count", "lower", ("trials_per_s",)),
    "parallel.run_trials_s": ("s", "lower", ("wall_s",)),
    "parallel.batches": ("count", "lower", ("wall_s",)),
    "parallel.busy_s": ("s", "lower", ("wall_s",)),
    "parallel.wait_s": ("s", "lower", ("wall_s",)),
    "parallel.utilization": ("ratio", "higher", ("wall_s",)),
    "parallel.fallbacks": ("count", "lower", ("wall_s",)),
    "core.run_protocol_s": ("s", "lower", ("trials_per_s",)),
    "core.run_protocol_calls": ("count", "lower", ("trials_per_s",)),
    "simulation.simulate_s": ("s", "lower", ("trials_per_s",)),
    "coding.decode_s": ("s", "lower", ("trials_per_s",)),
    "coding.decode_calls": ("count", "lower", ("trials_per_s",)),
    "service.store_get_s": ("s", "lower", ("wall_s",)),
    "service.store_gets": ("count", "lower", ("wall_s",)),
    "service.store_put_s": ("s", "lower", ("wall_s",)),
    "service.store_puts": ("count", "lower", ("wall_s",)),
    "service.hit_ratio": ("ratio", "higher", ("wall_s",)),
    "service.bytes_written": ("bytes", "lower", ("wall_s",)),
    # Coverage checks, not layers: they move no end-to-end metric.
    # trace.unattributed_s is the traced wall time minus the self time of
    # every layer span of the CLI process (interpreter start, imports, CLI
    # glue); trace.overhead_s is traced minus untraced wall time.
    "analysis.aggregate_s": ("s", "lower", ()),
    "trace.unattributed_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "check.replays": ("count", "higher", ()),
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "vectorized.noise_calls",
    "vectorized.noise_draws",
    "tasks.sample_inputs_calls",
    "vectorized.kernel_steps",
    "vectorized.kernel_bytes",
    "network.topology_builds",
    "vectorized.decode_calls",
    "parallel.batches",
    "core.run_protocol_calls",
    "coding.decode_calls",
    "service.store_gets",
    "service.store_puts",
    "service.store_hits",
    "service.bytes_written",
)


@dataclass(frozen=True)
class Workload:
    """One CLI sweep invocation and what it is for.

    ``topology`` is the CLI ``--topology`` spec of a network sweep.  With
    ``prefill_shard`` set, an untimed ``--shard`` run fills
    that stripe of the cache first and the timed invocation is a
    ``sweep resume`` over the whole grid.
    """

    name: str
    why: str
    task: str
    channel: str
    epsilon: float
    simulator: str
    trials: int
    workers: int
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    ns: tuple[int, ...] = ()
    topology: str | None = None
    prefill_shard: str | None = None

    @property
    def verb(self) -> str:
        return "resume" if self.prefill_shard else "run"

    def cli_args(self, seed: int) -> list[str]:
        """The grid and runner flags of ``repro sweep run|resume``."""
        args = ["--task", self.task]
        if self.topology is not None:
            args += ["--topology", self.topology]
        if self.ns:
            args += ["--ns", *(str(n) for n in self.ns)]
        return args + [
            "--channel", self.channel,
            "--epsilon", repr(self.epsilon),
            "--simulator", self.simulator,
            "--trials", str(self.trials),
            "--workers", str(self.workers),
            "--seed", str(seed),
        ]

    def grid(self, seed: int) -> Any:
        """The :class:`~repro.service.grid.SweepGrid` the CLI builds."""
        from repro.service.grid import SweepGrid, parse_topology

        topology = None
        ns = self.ns
        if self.topology is not None:
            topology = parse_topology(self.topology)
            ns = ns or (topology.size,)
        return SweepGrid(
            task=self.task,
            ns=ns,
            channel=self.channel,
            epsilon=self.epsilon,
            simulator=self.simulator,
            trials=self.trials,
            seed=seed,
            topology=topology,
        )

    def computed_indices(self, total: int) -> list[int]:
        """The grid points the timed invocation computes (not cached)."""
        if not self.prefill_shard:
            return list(range(total))
        from repro.service.shards import plan_shards

        shard, of = (int(part) for part in self.prefill_shard.split("/"))
        cached = set(plan_shards(total, of)[shard].indices)
        return [index for index in range(total) if index not in cached]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="net-mis-noisy",
            why=(
                "noisy MIS on a grid under local broadcast: per-node noise "
                "draws and MIS input sampling dominate the vectorized route"
            ),
            task="mis",
            topology="grid:16x16",
            channel="independent",
            epsilon=0.1,
            simulator="local-broadcast",
            trials=10,
            workers=1,
            loads=(
                "vectorized.noise", "tasks.sample_inputs",
                "vectorized.network_driver", "vectorized.kernel",
            ),
            bypasses=(
                "vectorized.scheme", "vectorized.decode", "coding",
                "core", "parallel pool",
            ),
        ),
        Workload(
            name="net-broadcast-geo",
            why=(
                "noiseless flooding on a 16000-node random geometric graph: "
                "the CSR kernel and topology build, with zero noise draws"
            ),
            task="broadcast",
            # The generator seed stays fixed: flooding runs for the source's
            # eccentricity, which moves the run time by +-20% from one
            # random graph to the next.  The workload seed sets the
            # sources' bits.
            topology="geometric:n=16000,r=0.0165,seed=0",
            channel="noiseless",
            epsilon=0.0,
            simulator="none",
            trials=8,
            workers=1,
            loads=(
                "vectorized.kernel", "network.topology_build",
                "vectorized.network_driver",
            ),
            bypasses=(
                "vectorized.noise (noise_draws = 0)", "vectorized.scheme",
                "coding", "core", "parallel pool",
            ),
        ),
        Workload(
            name="hop-chunk-pool",
            why=(
                "Theorem 1.2 overhead curve: collapsed chunked scheme and "
                "vectorized ML decode striped over a 2-worker pool"
            ),
            task="input-set",
            ns=(32, 64, 128),
            channel="correlated",
            epsilon=0.1,
            simulator="chunk",
            trials=128,
            workers=2,
            loads=(
                "vectorized.scheme", "vectorized.decode",
                "vectorized.noise", "parallel",
            ),
            bypasses=(
                "vectorized.network_driver", "vectorized.kernel",
                "network.topology_build", "core", "coding",
            ),
        ),
        Workload(
            name="hop-burst-resume",
            why=(
                "half-cached resume of a burst-noise chunk sweep: cache "
                "reads and writes plus scalar engine work on the pool"
            ),
            task="input-set",
            ns=tuple(4 + index % 5 for index in range(120)),
            channel="burst",
            epsilon=0.05,
            simulator="chunk",
            trials=16,
            workers=2,
            prefill_shard="0/2",
            loads=(
                "core.run_protocol", "simulation.simulate",
                "coding.decode", "service", "parallel",
            ),
            bypasses=(
                "vectorized (burst noise has no collapsed replay)",
                "network",
            ),
        ),
    )
}
