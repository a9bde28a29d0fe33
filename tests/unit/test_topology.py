"""Unit tests for topology generators and the TopologySpec API."""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network import TOPOLOGIES, Topology, TopologySpec, parse_topology


class TestTopologyClass:
    def test_from_adjacency_sorts_and_dedupes(self):
        topology = Topology.from_adjacency([(2, 1, 1), (0,), (0,)])
        assert topology.in_neighbors(0) == (1, 2)

    def test_symmetric_flag(self):
        assert Topology.from_adjacency([(1,), (0,)]).symmetric
        assert not Topology.from_adjacency([(1,), ()]).symmetric

    def test_directed_in_out_views(self):
        topology = Topology.from_adjacency([(1,), ()])
        # Node 0 hears node 1; so node 1's beeps go OUT to node 0.
        assert topology.in_neighbors(0) == (1,)
        assert topology.out_neighbors(1) == (0,)
        assert topology.out_neighbors(0) == ()

    def test_bfs_distances_and_unreachable(self):
        topology = Topology.from_adjacency([(1,), (0,), (3,), (2,)])
        distances = topology.bfs_distances(0)
        assert distances[:2] == [0, 1]
        assert distances[2:] == [-1, -1]

    def test_max_in_degree(self):
        star = Topology.from_adjacency([(1, 2, 3), (0,), (0,), (0,)])
        assert star.max_in_degree == 3

    def test_from_adjacency_error_messages(self):
        with pytest.raises(
            ConfigurationError, match="node 1 lists out-of-range neighbor 3"
        ):
            Topology.from_adjacency([(1,), (0, 3), (0,)])
        with pytest.raises(
            ConfigurationError, match="node 0 lists out-of-range neighbor -1"
        ):
            Topology.from_adjacency([(1, -1), (5,)])
        with pytest.raises(
            ConfigurationError,
            match="node 2 lists itself as a neighbor; use hear_self=True",
        ):
            Topology.from_adjacency([(1,), (0,), (0, 2, 7)])
        # The first offending node wins, and within it the smallest
        # offending neighbor (range and self-loop checks interleaved).
        with pytest.raises(
            ConfigurationError, match="node 1 lists itself as a neighbor"
        ):
            Topology.from_adjacency([(1,), (9, 1), (9,)])
        with pytest.raises(ConfigurationError, match="at least one node"):
            Topology.from_adjacency([])

    def test_from_adjacency_sorts_dedupes_both_directions(self):
        topology = Topology.from_adjacency([(2, 2, 1), (2, 0, 0), ()])
        assert topology.adjacency_lists() == [(1, 2), (0, 2), ()]
        assert topology.out_neighbors(2) == (0, 1)
        assert topology.out_neighbors(0) == (1,)
        assert topology.edges == 4
        assert not topology.symmetric

    def test_from_edges_matches_from_adjacency(self):
        adjacency = [(3, 1), (0,), (0, 1, 3), ()]
        targets = [i for i, row in enumerate(adjacency) for _ in row]
        sources = [j for row in adjacency for j in row]
        built = Topology.from_edges(4, sources + sources, targets + targets)
        reference = Topology.from_adjacency(adjacency)
        for node in range(4):
            assert built.in_neighbors(node) == reference.in_neighbors(node)
            assert built.out_neighbors(node) == reference.out_neighbors(
                node
            )
        assert built.edges == reference.edges == 6
        assert built.symmetric == reference.symmetric

    def test_from_edges_rejects_bad_arcs(self):
        with pytest.raises(ConfigurationError, match="arc target 4"):
            Topology.from_edges(4, [0], [4])
        with pytest.raises(ConfigurationError, match="out-of-range"):
            Topology.from_edges(4, [4], [0])
        with pytest.raises(ConfigurationError, match="itself"):
            Topology.from_edges(4, [2], [2])
        with pytest.raises(ConfigurationError, match="sources"):
            Topology.from_edges(4, [0, 1], [1])


class TestGenerators:
    REQUIRED = {
        "geometric": {"radius": 0.35, "seed": 0},
        "scale-free": {"m": 2, "seed": 0},
    }

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_all_families_build_symmetric_graphs(self, kind):
        spec = TopologySpec.of(kind, **self.REQUIRED.get(kind, {})).with_n(24)
        topology = spec.build()
        assert topology.n == 24
        assert topology.symmetric

    def test_grid_shape_matches_bare_n(self):
        shaped = TopologySpec.of("grid", rows=4, cols=6).build()
        assert shaped.n == 24
        assert shaped.max_in_degree == 4

    def test_grid_partial_last_row(self):
        topology = TopologySpec.of("grid", n=7).build()
        assert topology.n == 7
        assert topology.symmetric

    def test_geometric_radius_controls_degree(self):
        sparse = TopologySpec.of(
            "geometric", n=200, radius=0.05, seed=1
        ).build()
        dense = TopologySpec.of(
            "geometric", n=200, radius=0.4, seed=1
        ).build()
        assert dense.edges > sparse.edges

    def test_geometric_seed_determinism(self):
        a = TopologySpec.of("geometric", n=100, radius=0.2, seed=9)
        b = TopologySpec.of("geometric", n=100, radius=0.2, seed=9)
        c = TopologySpec.of("geometric", n=100, radius=0.2, seed=10)
        assert a.build().adjacency_lists() == b.build().adjacency_lists()
        assert a.build().adjacency_lists() != c.build().adjacency_lists()

    def test_scale_free_connected_and_bounded(self):
        topology = TopologySpec.of("scale-free", n=80, m=2, seed=3).build()
        assert topology.symmetric
        assert all(d >= 0 for d in topology.bfs_distances(0))
        # Preferential attachment adds <= m edges per arriving node.
        assert topology.edges <= 2 * (2 * 80)


def _csr_digests(topology):
    return tuple(
        hashlib.blake2b(
            np.asarray(values, dtype="<i8").tobytes(), digest_size=16
        ).hexdigest()
        for values in (
            topology._in_indptr,
            topology._in_indices,
            topology._out_indptr,
            topology._out_indices,
        )
    )


class TestGeometricGolden:
    """The geometric generator's graphs, pinned by BLAKE2b digests of
    the four CSR arrays (as little-endian int64) recorded from the
    original pure-Python cell search, plus the sweep cache keys of
    geometric grids — neither may move."""

    #: (n, radius, seed) -> (in_ptr, in_idx, out_ptr, out_idx digests),
    #: arc count.  Every graph is undirected, so in and out coincide.
    GOLDEN = {
        (16000, 0.0165, 0): (
            ("185a21121f5c3579a55f5b1d0ac5de5f",
             "ebe71ba490e268f31feab49c961e4cb2"),
            217066,
        ),
        (2000, 0.03, 7): (
            ("59fa73dc7f26d527dfff1e9035c8bdb3",
             "841071bc98048a45035b333f2d61cf0e"),
            10750,
        ),
        (500, 0.1, 3): (
            ("6b3d4513be507895bc0015af5e2f0967",
             "91be8f4a1d5923962808887d6be488ec"),
            7224,
        ),
        (300, 1.2, 1): (
            ("a3c6cc77127f27a235538d7c05a6ff1b",
             "ea7c2a1a1aa796e4648f36b7b6fffd6f"),
            89546,
        ),
        (8, 0.7, 3): (
            ("cff90972b3f4a5d198c37bc410fd2a34",
             "c696e0f4925587e0bbe2e9bbdfddb110"),
            44,
        ),
        (1, 0.5, 0): (
            ("463be1d58a72e9618ea59884367c4358",
             "cae66941d9efbd404e4d88758ea67670"),
            0,
        ),
    }

    @pytest.mark.parametrize("point", sorted(GOLDEN))
    def test_csr_arrays_pinned(self, point):
        n, radius, seed = point
        (ptr_digest, idx_digest), edges = self.GOLDEN[point]
        topology = TOPOLOGIES["geometric"].builder(
            n=n, radius=radius, seed=seed
        )
        assert _csr_digests(topology) == (
            ptr_digest, idx_digest, ptr_digest, idx_digest
        )
        assert topology.symmetric
        assert topology.edges == edges

    def test_labels_and_sweep_keys_pinned(self):
        from repro.service.grid import SweepGrid

        pinned = parse_topology("geometric:n=16000,r=0.0165,seed=0")
        open_spec = TopologySpec.of("geometric", radius=0.2, seed=7)
        assert pinned.label() == "geometric:n=16000,radius=0.0165,seed=0"
        assert open_spec.label() == "geometric:radius=0.2,seed=7"
        assert (
            open_spec.with_n(50).label() == "geometric:n=50,radius=0.2,seed=7"
        )
        broadcast = SweepGrid(
            task="broadcast", ns=(16000,), channel="noiseless",
            epsilon=0.0, simulator="none", trials=8, seed=0,
            topology=pinned,
        )
        assert broadcast.grid_key() == "7bb110aff893fcdca5ec2e3f56aa8e32"
        assert broadcast.point_key(0) == "5c8ae32c3e9736636024ea3d4a107b50"
        mis = SweepGrid(
            task="mis", ns=(50, 100), channel="independent", epsilon=0.1,
            simulator="local-broadcast", trials=6, seed=3,
            topology=open_spec,
        )
        assert mis.grid_key() == "6aba08b485aede6d3f6c72b23afa6ab4"
        assert [mis.point_key(i) for i in range(2)] == [
            "b184744ba17e22fd0d96ac9a87b05a8e",
            "ac92be71ed0666e7d04463dc9668f206",
        ]


class TestTopologySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec.of("torus", n=9)

    def test_params_canonicalized(self):
        a = TopologySpec.of("geometric", seed=1, radius=0.2, n=10)
        b = TopologySpec.of("geometric", n=10, radius=0.2, seed=1)
        assert a == b and hash(a) == hash(b)

    def test_size_and_with_n(self):
        open_spec = TopologySpec.of("geometric", radius=0.2)
        assert open_spec.size is None
        pinned = open_spec.with_n(50)
        assert pinned.size == 50
        assert pinned.with_n(50) is pinned
        with pytest.raises(ConfigurationError):
            pinned.with_n(51)

    def test_grid_shape_pins_size(self):
        spec = TopologySpec.of("grid", rows=3, cols=5)
        assert spec.size == 15
        with pytest.raises(ConfigurationError):
            spec.with_n(16)

    def test_json_round_trip(self):
        spec = TopologySpec.of("geometric", n=64, radius=0.25, seed=7)
        payload = json.dumps(spec.to_dict(), sort_keys=True)
        revived = TopologySpec.from_dict(json.loads(payload))
        assert revived == spec
        assert revived.build() is spec.build()  # memoized builder

    def test_label_round_trip(self):
        spec = TopologySpec.of("geometric", n=64, radius=0.25, seed=7)
        assert parse_topology(spec.label()) == spec

    def test_pickles(self):
        spec = TopologySpec.of("grid", rows=8, cols=8)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_build_memoized(self):
        spec = TopologySpec.of("grid", rows=6, cols=6)
        assert spec.build() is TopologySpec.of(
            "grid", cols=6, rows=6
        ).build()


class TestParseTopology:
    def test_bare_kind(self):
        assert parse_topology("ring") == TopologySpec.of("ring")

    def test_bare_node_count(self):
        assert parse_topology("complete:64") == TopologySpec.of(
            "complete", n=64
        )

    def test_grid_shape_shorthand(self):
        assert parse_topology("grid:32x32") == TopologySpec.of(
            "grid", rows=32, cols=32
        )

    def test_key_value_params_with_aliases(self):
        spec = parse_topology("geometric:n=10000,r=0.02,seed=7")
        assert spec == TopologySpec.of(
            "geometric", n=10000, radius=0.02, seed=7
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_topology("moebius:8")

    def test_bad_param_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_topology("ring:wat")
        with pytest.raises(ConfigurationError):
            parse_topology("grid:3xpi")
