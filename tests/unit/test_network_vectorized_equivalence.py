"""Cross-backend equivalence for the batched network kernel.

The network route of :mod:`repro.vectorized.network` carries the same
contract as the single-hop collapses: *bitwise* agreement with the
scalar reference, per trial — same ``TrialRecord`` for the same
``(seed, index)`` regardless of backend.  These tests drive both
runners over the graph protocol grid:

* three topology families (grid, ring, geometric) crossed with the
  three batched protocol drivers (neighbor-OR, broadcast, MIS), the
  three single-noise channel configurations (noiseless, per-node
  independent, per-edge erasure), raw and under the local-broadcast
  repetition wrapper — every combination must run batched (no silent
  fallback making the test vacuous) and match the scalar records;
* batches the kernel does *not* cover — per-node epsilon vectors,
  combined node+edge noise, tasks and simulators outside the driver
  registry — must take the scalar fallback, with a reason, and still
  produce identical records;
* sampled vectorized trials replay bitwise on the scalar engine from
  their ``(seed, index)`` alone, observer events match, and the
  composed vectorized-process backend stripes the same batch to the
  same records;
* the local-broadcast burst fold (one kernel step and one draw window
  per trial per virtual round) matches the scalar engine's ``k``
  physical rounds for windows that straddle a flip-stream refill, for
  short high-noise bursts whose wrong majorities change outcomes, and
  for self-hearing beepers; a call-count guard pins its cost shape;
* flood-once broadcast (each round walks only the rows that gained a
  bit, OR-ed into an accumulated clean reception) matches the scalar
  engine on a partly unreachable geometric graph and on a directed
  graph, and a work-count guard pins that every edge is walked once.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.network import (
    BroadcastTask,
    LocalBroadcastSimulator,
    MISTask,
    NeighborORTask,
    NetworkBeepingChannel,
    NetworkSizeEstimateTask,
    TopologySpec,
)
from repro.parallel import (
    ChannelSpec,
    ProtocolExecutor,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
    run_trial,
)
from repro.simulation import RepetitionSimulator
from repro.vectorized import VectorizedRunner

TOPOLOGY_SPECS = {
    "grid": TopologySpec.of("grid", rows=3, cols=3),
    "ring": TopologySpec.of("ring", n=7),
    "geometric": TopologySpec.of("geometric", n=8, radius=0.7, seed=3),
}

#: The three single-noise channel configurations the kernel batches.
NOISE_KINDS = ("noiseless", "node", "edge")

TASKS = ("neighbor-or", "broadcast", "mis")

TRIALS = 5


def _channel_spec(topology_spec, noise):
    if noise == "node":
        return ChannelSpec.of(
            NetworkBeepingChannel, 0.05, topology=topology_spec
        )
    if noise == "edge":
        return ChannelSpec.of(
            NetworkBeepingChannel, topology=topology_spec, edge_epsilon=0.1
        )
    return ChannelSpec.of(
        NetworkBeepingChannel, topology=topology_spec, seed_kwarg=None
    )


def _task(name, topology_spec):
    topology = topology_spec.build()
    if name == "neighbor-or":
        return NeighborORTask(topology)
    if name == "broadcast":
        return BroadcastTask(topology)
    return MISTask(topology, cycles=2)


def _executor(task, channel_spec, wrapped):
    if wrapped:
        return SimulationExecutor(
            task=task,
            channel=channel_spec,
            simulator=SimulatorSpec.of(LocalBroadcastSimulator),
        )
    return ProtocolExecutor(task, channel_spec)


def _run(runner, task, executor, seed):
    """Records, or the raised exception (compared across backends)."""
    try:
        return runner.run_trials(task, executor, TRIALS, seed=seed).records
    except Exception as exc:  # noqa: BLE001 - parity is the assertion
        return (type(exc), str(exc))


class TestNetworkCrossBackendEquivalence:
    @pytest.mark.parametrize("family", sorted(TOPOLOGY_SPECS))
    @pytest.mark.parametrize("task_name", TASKS)
    @pytest.mark.parametrize("noise", NOISE_KINDS)
    @pytest.mark.parametrize("wrapped", [False, True], ids=["raw", "lb"])
    def test_records_bitwise_equal(self, family, task_name, noise, wrapped):
        topology_spec = TOPOLOGY_SPECS[family]
        task = _task(task_name, topology_spec)
        executor = _executor(
            task, _channel_spec(topology_spec, noise), wrapped
        )
        seed = 20260807
        serial = _run(SerialRunner(), task, executor, seed)
        vectorized_runner = VectorizedRunner()
        vectorized = _run(vectorized_runner, task, executor, seed)
        assert vectorized == serial
        # Every combination above has a batched form; a fallback here
        # would make the equivalence vacuous.
        assert vectorized_runner.last_fallback_reason is None

    def test_sampled_trials_replay_on_scalar_engine(self):
        """Any trial a batched network sweep records can be reproduced
        by the scalar ``run_trial`` from its ``(seed, index)`` alone."""
        topology_spec = TOPOLOGY_SPECS["grid"]
        for noise in NOISE_KINDS:
            task = MISTask(topology_spec.build(), cycles=2)
            executor = ProtocolExecutor(
                task, _channel_spec(topology_spec, noise)
            )
            runner = VectorizedRunner()
            batch = runner.run_trials(task, executor, 6, seed=99)
            assert runner.last_fallback_reason is None
            for index in (0, 2, 5):  # sampled subset
                assert batch.records[index] == run_trial(
                    task, executor, 99, index
                ), (noise, index)

    def test_observer_events_match(self):
        """Tracing emits the same trial events from either backend."""
        from repro.observe import MetricsCollector, Observer

        topology_spec = TOPOLOGY_SPECS["ring"]
        task = BroadcastTask(topology_spec.build())
        executor = ProtocolExecutor(
            task, _channel_spec(topology_spec, "node")
        )

        def trial_events(runner):
            collector = MetricsCollector()
            with Observer([collector]) as observer:
                runner.run_trials(task, executor, 3, seed=5, observe=observer)
            return [
                {
                    key: value
                    for key, value in event.items()
                    if key not in ("ts", "elapsed_s")
                }
                for event in collector.events
                if event["event"] == "trial"
            ]

        assert trial_events(VectorizedRunner()) == trial_events(
            SerialRunner()
        )

    def test_vectorized_process_stripes_match(self):
        """The composed backend stripes a network batch across worker
        processes to the same records as one in-process batch."""
        from repro.parallel import ProcessPoolRunner

        topology_spec = TOPOLOGY_SPECS["grid"]
        task = NeighborORTask(topology_spec.build())
        executor = ProtocolExecutor(
            task, _channel_spec(topology_spec, "node")
        )
        serial = SerialRunner().run_trials(
            task, executor, 8, seed=31
        ).records
        runner = ProcessPoolRunner(
            workers=2, worker_runner=VectorizedRunner
        )
        try:
            striped = runner.run_trials(task, executor, 8, seed=31)
        finally:
            runner.close()
        assert striped.records == serial


class TestNetworkFallbacks:
    """Batches outside the kernel's coverage fall back — with a reason —
    and still match the scalar records (non-vacuity of the route)."""

    def _assert_fallback(self, task, executor, expect=None):
        seed = 404
        serial = _run(SerialRunner(), task, executor, seed)
        runner = VectorizedRunner()
        vectorized = _run(runner, task, executor, seed)
        assert vectorized == serial
        assert runner.last_fallback_reason is not None
        if expect is not None:
            assert expect in runner.last_fallback_reason

    def test_node_epsilon_vectors_fall_back(self):
        topology_spec = TOPOLOGY_SPECS["ring"]
        task = NeighborORTask(topology_spec.build())
        executor = ProtocolExecutor(
            task,
            ChannelSpec.of(
                NetworkBeepingChannel,
                topology=topology_spec,
                node_epsilons=[0.02] * 7,
            ),
        )
        self._assert_fallback(task, executor)

    def test_combined_node_and_edge_noise_falls_back(self):
        topology_spec = TOPOLOGY_SPECS["grid"]
        task = NeighborORTask(topology_spec.build())
        executor = ProtocolExecutor(
            task,
            ChannelSpec.of(
                NetworkBeepingChannel,
                0.05,
                topology=topology_spec,
                edge_epsilon=0.1,
            ),
        )
        self._assert_fallback(task, executor)

    def test_unregistered_protocol_falls_back(self):
        topology_spec = TOPOLOGY_SPECS["grid"]
        task = NetworkSizeEstimateTask(topology_spec.build())
        executor = ProtocolExecutor(
            task, _channel_spec(topology_spec, "node")
        )
        self._assert_fallback(task, executor)

    def test_non_local_broadcast_simulator_falls_back(self):
        topology_spec = TOPOLOGY_SPECS["grid"]
        task = NeighborORTask(topology_spec.build())
        executor = SimulationExecutor(
            task=task,
            channel=_channel_spec(topology_spec, "node"),
            simulator=SimulatorSpec.of(RepetitionSimulator),
        )
        self._assert_fallback(task, executor)


def _wrapped_executor(task, channel_spec, **params):
    from repro.simulation import SimulationParameters

    return SimulationExecutor(
        task=task,
        channel=channel_spec,
        simulator=SimulatorSpec.of(
            LocalBroadcastSimulator, SimulationParameters(**params)
        ),
    )


class TestBurstFold:
    """The local-broadcast burst fold: one kernel step and one ``k·n``
    (or ``k·m``) draw window per trial per virtual round, reduced to
    per-node vote counts, must replay the scalar engine's ``k``
    separate physical rounds bitwise."""

    @pytest.mark.parametrize("task_name", ["broadcast", "mis"])
    def test_burst_window_straddles_stream_refill(self, task_name):
        """``k·n`` beyond the flip stream's refill block: every burst
        window is served from two or more refills."""
        from repro.network.local_broadcast import local_broadcast_repetitions
        from repro.vectorized.noise import _FLIP_BLOCK

        topology_spec = TopologySpec.of("grid", rows=12, cols=12)
        topology = topology_spec.build()
        task = (
            BroadcastTask(topology)
            if task_name == "broadcast"
            else MISTask(topology, cycles=1)
        )
        channel_spec = ChannelSpec.of(
            NetworkBeepingChannel, 0.2, topology=topology_spec
        )
        k = local_broadcast_repetitions(
            topology.max_in_degree,
            task.noiseless_protocol().length(),
            0.2,
        )
        assert k * topology.n > _FLIP_BLOCK
        executor = _executor(task, channel_spec, wrapped=True)
        serial = SerialRunner().run_trials(task, executor, 3, seed=12)
        runner = VectorizedRunner()
        vectorized = runner.run_trials(task, executor, 3, seed=12)
        assert runner.last_fallback_reason is None
        assert vectorized.records == serial.records

    @pytest.mark.parametrize("noise", ["node", "edge"])
    @pytest.mark.parametrize("task_name", TASKS)
    def test_short_bursts_at_high_noise(self, noise, task_name):
        """``k = 3`` at ε = 0.3: majorities are often wrong, so the vote
        arithmetic (and the flip accounting) decides the records."""
        topology_spec = TOPOLOGY_SPECS["grid"]
        task = _task(task_name, topology_spec)
        if noise == "node":
            channel_spec = ChannelSpec.of(
                NetworkBeepingChannel, 0.3, topology=topology_spec
            )
        else:
            channel_spec = ChannelSpec.of(
                NetworkBeepingChannel,
                topology=topology_spec,
                edge_epsilon=0.3,
            )
        executor = _wrapped_executor(task, channel_spec, repetitions=3)
        seed = 77
        serial = SerialRunner().run_trials(task, executor, 8, seed=seed)
        runner = VectorizedRunner()
        vectorized = runner.run_trials(task, executor, 8, seed=seed)
        assert runner.last_fallback_reason is None
        assert vectorized.records == serial.records
        noiseless = VectorizedRunner().run_trials(
            task,
            _wrapped_executor(
                task,
                _channel_spec(topology_spec, "noiseless"),
                repetitions=3,
            ),
            8,
            seed=seed,
        )
        assert vectorized.records != noiseless.records
        # Same inputs, so only wrong majorities can change an outcome.
        assert [r.success for r in vectorized.records] != [
            r.success for r in noiseless.records
        ]


    @pytest.mark.parametrize("noise", ["node", "edge"])
    @pytest.mark.parametrize("task_name", TASKS)
    @pytest.mark.parametrize("repetitions", [1, 3])
    def test_self_hearing_bursts(self, noise, task_name, repetitions):
        """``hear_self=True``: a beeper's own reception is never erased,
        so it must neither lose votes nor count as an erasure."""
        topology_spec = TOPOLOGY_SPECS["ring"]
        task = _task(task_name, topology_spec)
        noise_kwargs = (
            {"epsilon": 0.3} if noise == "node" else {"edge_epsilon": 0.3}
        )
        channel_spec = ChannelSpec.of(
            NetworkBeepingChannel,
            topology=topology_spec,
            hear_self=True,
            **noise_kwargs,
        )
        executor = _wrapped_executor(
            task, channel_spec, repetitions=repetitions
        )
        serial = SerialRunner().run_trials(task, executor, 8, seed=5)
        runner = VectorizedRunner()
        vectorized = runner.run_trials(task, executor, 8, seed=5)
        assert runner.last_fallback_reason is None
        assert vectorized.records == serial.records

class TestBurstFoldCallCounts:
    """Regression guard by call counts, not timings: a noisy wrapped MIS
    batch costs one kernel step per virtual round and one flip-stream
    window per trial per virtual round, however large ``k`` is."""

    def test_mis_batch_counts(self, monkeypatch):
        from repro.vectorized import network as network_module
        from repro.vectorized.noise import FlipStream

        calls = {"step": 0, "take": 0}
        streams = []
        step = network_module.NetworkBatchKernel.step
        take = FlipStream.take
        init = FlipStream.__init__

        def counting_step(self, *args):
            calls["step"] += 1
            return step(self, *args)

        def counting_take(self, rounds):
            calls["take"] += 1
            return take(self, rounds)

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            streams.append(self)

        monkeypatch.setattr(
            network_module.NetworkBatchKernel, "step", counting_step
        )
        monkeypatch.setattr(FlipStream, "take", counting_take)
        monkeypatch.setattr(FlipStream, "__init__", recording_init)

        topology_spec = TOPOLOGY_SPECS["grid"]
        task = _task("mis", topology_spec)
        executor = _executor(
            task, _channel_spec(topology_spec, "node"), wrapped=True
        )
        trials = 4
        runner = VectorizedRunner()
        batch = runner.run_trials(task, executor, trials, seed=3)
        assert runner.last_fallback_reason is None

        virtual_rounds = 2 * task.phases
        k = batch.records[0].channel_rounds // virtual_rounds
        assert k > 1
        assert calls["step"] == virtual_rounds
        assert calls["take"] == trials * virtual_rounds
        assert len(streams) == trials
        for stream in streams:
            assert stream.draws == virtual_rounds * k * task.n_parties


def _directed_topology():
    """A directed graph (``Topology.from_adjacency``): node ``i`` hears a
    few random nodes, so reachability from node 0 follows the arcs one
    way only and some nodes are never reached."""
    import random

    from repro.network import Topology

    rng = random.Random(11)
    n = 48
    return Topology.from_adjacency(
        [
            [j for j in rng.sample(range(n), 2) if j != i]
            if i % 7
            else []
            for i in range(n)
        ]
    )


#: Flood-once graphs: a geometric graph with 46 of 300 nodes unreachable
#: from node 0, and a directed graph handed to the channel spec as a
#: built ``Topology`` rather than a spec.
FLOOD_GRAPHS = ("geometric-300", "directed")


def _flood_case(graph, noise, hear_self):
    if graph == "geometric-300":
        topology_spec = TopologySpec.of(
            "geometric", n=300, radius=0.08, seed=1
        )
        topology = topology_spec.build()
        spec_kwargs = {"topology": topology_spec}
        args = ()
    else:
        topology = _directed_topology()
        spec_kwargs = {}
        args = (topology,)
    if noise == "node":
        spec_kwargs["epsilon"] = 0.05
    elif noise == "edge":
        spec_kwargs["edge_epsilon"] = 0.1
    else:
        spec_kwargs["seed_kwarg"] = None
    channel_spec = ChannelSpec.of(
        NetworkBeepingChannel, *args, hear_self=hear_self, **spec_kwargs
    )
    return BroadcastTask(topology), channel_spec


class TestFloodOnce:
    """Broadcast's beep matrix only grows, so each round walks just the
    rows that gained a bit; records must still equal the scalar
    engine's for every noise kind, with and without the wrapper."""

    SEED = 8

    @pytest.mark.parametrize("graph", FLOOD_GRAPHS)
    @pytest.mark.parametrize("noise", NOISE_KINDS)
    @pytest.mark.parametrize("wrapped", [False, True], ids=["raw", "lb"])
    @pytest.mark.parametrize(
        "hear_self", [False, True], ids=["deaf", "self"]
    )
    def test_records_bitwise_equal(self, graph, noise, wrapped, hear_self):
        task, channel_spec = _flood_case(graph, noise, hear_self)
        executor = _executor(task, channel_spec, wrapped)
        serial = SerialRunner().run_trials(task, executor, 4, seed=self.SEED)
        runner = VectorizedRunner()
        vectorized = runner.run_trials(task, executor, 4, seed=self.SEED)
        assert runner.last_fallback_reason is None
        assert vectorized.records == serial.records

    def test_cases_cover_both_bits_and_unreachable_nodes(self):
        """Non-vacuity: the seed gives some trials source bit 0, and
        both graphs leave nodes out of node 0's reach."""
        from repro.rng import spawn

        for graph in FLOOD_GRAPHS:
            task, _ = _flood_case(graph, "noiseless", False)
            bits = {
                task.sample_inputs(spawn(self.SEED, f"inputs[{i}]"))[0]
                for i in range(4)
            }
            assert bits == {0, 1}
            distances = task.topology.bfs_distances(0)
            assert -1 in distances
            assert max(distances) > 1


class TestFloodOnceWork:
    """Regression guard by counted work, not timings: a noiseless
    broadcast batch walks every beeping node's out-list exactly once,
    in one kernel step per round."""

    def test_each_edge_walked_once(self, monkeypatch):
        from repro.vectorized import network as network_module

        kernel = network_module.NetworkBatchKernel
        work = {"deliveries": 0, "steps": 0}
        walk, step = kernel._walk, kernel.step

        def counting_walk(self, *args, **kwargs):
            targets, counts = walk(self, *args, **kwargs)
            work["deliveries"] += int(counts.sum())
            return targets, counts

        def counting_step(self, *args, **kwargs):
            work["steps"] += 1
            return step(self, *args, **kwargs)

        monkeypatch.setattr(kernel, "_walk", counting_walk)
        monkeypatch.setattr(kernel, "step", counting_step)

        topology_spec = TopologySpec.of(
            "geometric", n=300, radius=0.08, seed=1
        )
        topology = topology_spec.build()
        task = BroadcastTask(topology)
        executor = ProtocolExecutor(
            task, _channel_spec(topology_spec, "noiseless")
        )
        runner = VectorizedRunner()
        batch = runner.run_trials(task, executor, 6, seed=8)
        assert runner.last_fallback_reason is None
        assert any(record.beeps_sent for record in batch.records)

        # Nodes that ever beep: the source, and every node informed
        # before the last round (it beeps from the round after).
        distances = topology.bfs_distances(0)
        beepers = [
            node
            for node, distance in enumerate(distances)
            if 0 <= distance < task.rounds
        ]
        assert work["deliveries"] == sum(
            topology.out_degree(node) for node in beepers
        )
        assert work["steps"] == task.rounds

