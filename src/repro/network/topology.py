"""Topologies as reproducible data: :class:`Topology` + :class:`TopologySpec`.

The network engine separates *what the graph is* from *how it is stored*:

* :class:`Topology` — the immutable runtime object: CSR neighbor arrays
  (``array('i')`` index/pointer pairs, a few bytes per edge even at
  10^6 nodes) in both directions, so the channel can iterate a beeping
  node's **out**-neighborhood (who hears me) in O(degree) while protocol
  checkers read **in**-neighborhoods (whom I hear).  Built once,
  validated once (range, no self-loops, sorted/deduped), shared freely.
* :class:`TopologySpec` — the declarative, JSON-round-trippable recipe:
  generator name + params + seed, e.g. ``{"kind": "grid", "rows": 32,
  "cols": 32}``.  Specs are frozen, hashable, picklable plain data —
  which is what lets network sweeps flow through the sweep service's
  content-addressed cache and process-pool executors exactly like
  single-hop ones.  :meth:`TopologySpec.build` resolves through the
  :data:`TOPOLOGIES` registry and memoizes the constructed graph, so a
  thousand per-trial channel constructions share one build.

Seeded-generator contract
-------------------------

Every generator is a pure function of its declared params: the same
spec (including its ``seed`` param) always yields the same graph —
bit-identical CSR arrays — on every machine and process.  Generators
draw only from a private ``random.Random(seed)``; they never touch
global RNG state, and building a topology consumes no draws from any
channel or trial seed stream.

Registry: :data:`TOPOLOGIES` maps the generator name to a
:class:`TopologyFamily` (builder + docs), mirroring the
``CHANNELS``/``SIMULATORS``/``TASKS`` tables in
:mod:`repro.service.grid` (which re-exports it).  The CLI shorthand
``grid:32x32`` / ``geometric:n=10000,r=0.02,seed=7`` parses with
:func:`parse_topology` into the same specs the library API uses.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as _np

from repro.errors import ConfigurationError
from repro.rng import numpy_stream

__all__ = [
    "Topology",
    "TopologyFamily",
    "TopologySpec",
    "TOPOLOGIES",
    "parse_topology",
]


class Topology:
    """An immutable directed graph over nodes ``0..n-1`` in CSR form.

    ``in`` edges follow the adjacency-list convention of
    :class:`~repro.network.channel.NetworkBeepingChannel`:
    ``in_neighbors(i)`` are the nodes whose beeps node ``i`` hears.
    ``out_neighbors(j)`` is the reverse — the nodes that hear ``j`` —
    which is the direction the channel's sparse evaluation walks.

    Construct with :meth:`from_adjacency`; generators in
    :data:`TOPOLOGIES` do.  Instances are treated as immutable: the
    channel, tasks and the spec cache all share them.
    """

    __slots__ = (
        "n",
        "_in_indptr",
        "_in_indices",
        "_out_indptr",
        "_out_indices",
        "symmetric",
        "_csr_cache",
    )

    def __init__(
        self,
        n: int,
        in_indptr: array,
        in_indices: array,
        out_indptr: array,
        out_indices: array,
        symmetric: bool,
    ) -> None:
        self.n = n
        self._in_indptr = in_indptr
        self._in_indices = in_indices
        self._out_indptr = out_indptr
        self._out_indices = out_indices
        #: True when the in- and out-edge sets coincide (undirected graph).
        self.symmetric = symmetric
        # Lazily built numpy mirrors of the CSR arrays (see csr_arrays).
        self._csr_cache = None

    @classmethod
    def from_adjacency(
        cls, adjacency: Sequence[Iterable[int]]
    ) -> "Topology":
        """Build from adjacency lists (``adjacency[i]`` = whom ``i`` hears).

        Neighbor lists are sorted and deduplicated; out-of-range entries
        and self-loops raise :class:`~repro.errors.ConfigurationError`
        (self-hearing is a channel option, not a graph edge).  Delegates
        to :meth:`from_edges`.
        """
        n = len(adjacency)
        if n < 1:
            raise ConfigurationError("a topology needs at least one node")
        sources: list[int] = []
        degrees = []
        for neighbors in adjacency:
            before = len(sources)
            sources.extend(int(j) for j in neighbors)
            degrees.append(len(sources) - before)
        try:
            source_array = _np.array(sources, dtype=_np.int64)
        except OverflowError:
            raise ConfigurationError(
                "a neighbor index does not fit in 64 bits"
            ) from None
        targets = _np.repeat(_np.arange(n, dtype=_np.int64), degrees)
        return cls.from_edges(n, source_array, targets)

    @classmethod
    def from_edges(cls, n: int, sources, targets) -> "Topology":
        """Build from arc arrays: node ``targets[k]`` hears ``sources[k]``.

        Duplicate arcs collapse to one.  Both CSR directions come from
        one sort of the int64 keys ``target·n + source`` (then
        ``source·n + target``), a boundary mask that drops duplicates,
        and ``bincount``/``cumsum`` pointers — no per-edge Python work.
        Out-of-range nodes and self-loops raise
        :class:`~repro.errors.ConfigurationError`, naming the first
        offending ``(target, source)`` pair in sorted order.
        """
        if n < 1:
            raise ConfigurationError("a topology needs at least one node")
        sources = _np.asarray(sources, dtype=_np.int64)
        targets = _np.asarray(targets, dtype=_np.int64)
        if sources.shape != targets.shape:
            raise ConfigurationError(
                f"{sources.size} arc sources but {targets.size} targets"
            )
        _check_arcs(n, sources, targets)
        keys = _sorted_keys(n, targets, sources)
        del sources, targets
        # keys = target·n + source: split in place into the in-CSR, and
        # re-key the same arcs source-major for the out-CSR.
        in_targets = keys // n
        keys %= n
        in_indptr = _long_array(_pointers(n, in_targets))
        out_keys = keys * n
        out_keys += in_targets
        del in_targets
        in_indices = _long_array(keys)
        del keys
        out_keys.sort()
        out_sources = out_keys // n
        out_keys %= n
        out_indptr = _long_array(_pointers(n, out_sources))
        del out_sources
        out_indices = _long_array(out_keys)
        del out_keys
        symmetric = (
            in_indptr == out_indptr and in_indices == out_indices
        )
        return cls(
            n, in_indptr, in_indices, out_indptr, out_indices, symmetric
        )

    # -- read API --------------------------------------------------------

    @property
    def edges(self) -> int:
        """Directed edge (arc) count."""
        return len(self._in_indices)

    def in_neighbors(self, node: int) -> tuple[int, ...]:
        """The nodes whose beeps ``node`` hears (sorted)."""
        ptr = self._in_indptr
        return tuple(self._in_indices[ptr[node] : ptr[node + 1]])

    def out_neighbors(self, node: int) -> tuple[int, ...]:
        """The nodes that hear ``node``'s beeps (sorted)."""
        ptr = self._out_indptr
        return tuple(self._out_indices[ptr[node] : ptr[node + 1]])

    def in_degree(self, node: int) -> int:
        ptr = self._in_indptr
        return ptr[node + 1] - ptr[node]

    def out_degree(self, node: int) -> int:
        ptr = self._out_indptr
        return ptr[node + 1] - ptr[node]

    def csr_arrays(self):
        """The CSR arrays as numpy ``(in_ptr, in_idx, out_ptr, out_idx)``.

        Built once per topology and cached: compact integer mirrors of
        the ``array('l')`` storage (``int32`` until the edge count needs
        wider), which is what the vectorized network kernel gathers
        through and the numpy BFS frontier walks.  The scalar channel
        keeps iterating the ``array('l')`` originals — python-level
        indexing of numpy integers is measurably slower than of plain
        ints, so the pure-Python sparse walk never touches these.
        """
        if self._csr_cache is None:
            dtype = (
                _np.int32
                if self.n < 2**31 and len(self._in_indices) < 2**31
                else _np.int64
            )
            self._csr_cache = tuple(
                _np.frombuffer(arr, dtype="l").astype(dtype)
                if len(arr)
                else _np.zeros(0, dtype=dtype)
                for arr in (
                    self._in_indptr,
                    self._in_indices,
                    self._out_indptr,
                    self._out_indices,
                )
            )
        return self._csr_cache

    @property
    def max_in_degree(self) -> int:
        """The largest in-degree Δ (what local-broadcast calibrates on)."""
        in_ptr = self.csr_arrays()[0]
        return int(_np.diff(in_ptr).max(initial=0))

    def adjacency_lists(self) -> list[tuple[int, ...]]:
        """The in-adjacency as plain lists of tuples (compat format)."""
        return [self.in_neighbors(i) for i in range(self.n)]

    def bfs_distances(self, source: int = 0) -> list[int]:
        """Hop distance from ``source`` along *out* edges (the direction
        information floods); ``-1`` for unreachable nodes.

        Walks a whole frontier at a time over :meth:`csr_arrays`.  A BFS
        distance is set exactly once (the first level that reaches the
        node), so intra-level visit order cannot change any entry.
        """
        if not 0 <= source < self.n:
            raise ConfigurationError(
                f"source {source} outside [0, {self.n})"
            )
        _, _, ptr, idx = self.csr_arrays()
        dist = _np.full(self.n, -1, dtype=_np.int64)
        dist[source] = 0
        frontier = _np.array([source], dtype=ptr.dtype)
        depth = 0
        while frontier.size:
            depth += 1
            starts = ptr[frontier]
            counts = ptr[frontier + 1] - starts
            total = int(counts.sum())
            if not total:
                break
            offsets = _np.repeat(_np.cumsum(counts) - counts, counts)
            positions = (
                _np.arange(total, dtype=starts.dtype)
                - offsets
                + _np.repeat(starts, counts)
            )
            neighbors = idx[positions]
            fresh = _np.unique(neighbors[dist[neighbors] < 0])
            if not fresh.size:
                break
            dist[fresh] = depth
            frontier = fresh
        return dist.tolist()

    def eccentricity(self, source: int = 0) -> int:
        """Max hop distance from ``source`` over its reachable set."""
        return max(d for d in self.bfs_distances(source))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(n={self.n}, edges={self.edges}, "
            f"symmetric={self.symmetric})"
        )


def _check_arcs(n: int, sources, targets) -> None:
    """Reject out-of-range nodes and self-loops, naming the first bad
    ``(target, source)`` pair — the node and sorted neighbor an
    adjacency-list scan would stop at."""
    bad = (targets < 0) | (targets >= n)
    if bad.any():
        raise ConfigurationError(
            f"arc target {int(targets[bad][0])} outside [0, {n})"
        )
    bad = (sources < 0) | (sources >= n) | (sources == targets)
    if not bad.any():
        return
    bad_sources, bad_targets = sources[bad], targets[bad]
    first = _np.lexsort((bad_sources, bad_targets))[0]
    node, neighbor = int(bad_targets[first]), int(bad_sources[first])
    if not 0 <= neighbor < n:
        raise ConfigurationError(
            f"node {node} lists out-of-range neighbor {neighbor}"
        )
    raise ConfigurationError(
        f"node {node} lists itself as a neighbor; use hear_self=True "
        "instead"
    )


def _sorted_keys(n: int, major, minor):
    """The arcs as ascending, deduplicated int64 keys ``major·n + minor``
    (``np.sort`` plus a boundary mask: far cheaper than ``np.unique``)."""
    keys = major * n
    keys += minor
    keys.sort()
    if keys.size > 1:
        repeat = keys[1:] == keys[:-1]
        if repeat.any():
            keys = keys[_np.concatenate(([True], ~repeat))]
    return keys


def _pointers(n: int, major_sorted):
    """CSR row pointers of the ascending ``major_sorted`` rows."""
    ptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(major_sorted, minlength=n), out=ptr[1:])
    return ptr


def _long_array(values) -> array:
    """``values`` as the ``array('l')`` storage the scalar walks index."""
    storage = array("l")
    values = _np.ascontiguousarray(values, dtype=_np.dtype("l"))
    storage.frombytes(memoryview(values).cast("B"))
    return storage


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


#: Per-axis bin cap of :func:`_geometric` (keeps ``cells²`` in int64).
_MAX_CELLS = 2**31


def _complete(*, n: int) -> Topology:
    if n < 1:
        raise ConfigurationError(f"need >= 1 node, got {n}")
    return Topology.from_adjacency(
        [tuple(j for j in range(n) if j != i) for i in range(n)]
    )


def _ring(*, n: int) -> Topology:
    if n < 3:
        raise ConfigurationError(f"a ring needs >= 3 nodes, got {n}")
    return Topology.from_adjacency(
        [((i - 1) % n, (i + 1) % n) for i in range(n)]
    )


def _grid(
    *,
    rows: int | None = None,
    cols: int | None = None,
    n: int | None = None,
) -> Topology:
    """4-neighbor grid, row-major.  Either ``rows``+``cols`` pin the
    shape, or a bare ``n`` gets the near-square ``isqrt(n)`` layout with
    a partial last row (so any node count is a valid grid)."""
    if rows is not None or cols is not None:
        if rows is None or cols is None:
            raise ConfigurationError(
                "grid needs both rows and cols (or a bare n)"
            )
        if rows < 1 or cols < 1:
            raise ConfigurationError("grid needs positive dimensions")
        if n is not None and n != rows * cols:
            raise ConfigurationError(
                f"grid {rows}x{cols} has {rows * cols} nodes, not {n}"
            )
        total = rows * cols
        width = cols
    else:
        if n is None:
            raise ConfigurationError("grid needs rows+cols or n")
        if n < 1:
            raise ConfigurationError(f"need >= 1 node, got {n}")
        total = n
        rows = max(1, math.isqrt(n))
        width = -(-n // rows)  # ceil division: partial last row allowed
    adjacency: list[tuple[int, ...]] = []
    for node in range(total):
        row, col = divmod(node, width)
        neighbors = []
        if row > 0:
            neighbors.append(node - width)
        if node + width < total:
            neighbors.append(node + width)
        if col > 0:
            neighbors.append(node - 1)
        if col < width - 1 and node + 1 < total:
            neighbors.append(node + 1)
        adjacency.append(tuple(neighbors))
    return Topology.from_adjacency(adjacency)


def _geometric(*, n: int, radius: float, seed: int = 0) -> Topology:
    """Random geometric graph: ``n`` points uniform in the unit square,
    edges between pairs at Euclidean distance <= ``radius``.

    An O(n) expected numpy cell search.  The points are the first ``2n``
    doubles of ``random.Random(seed)`` (x, y interleaved), binned into
    ``cells × cells`` squares of side ``>= radius`` by
    ``min(int(x / size), cells - 1)``; each pair of points in the same
    or adjacent cells (a half stencil of five cell offsets, so each pair
    is tried once) is an edge iff ``dx·dx + dy·dy <= radius²`` in
    float64.  ``cells`` is capped at 2^31 per axis so the cell keys fit
    in int64; wider bins only add candidate pairs, never edges.
    """
    if n < 1:
        raise ConfigurationError(f"need >= 1 node, got {n}")
    if not 0.0 < radius <= math.sqrt(2.0):
        raise ConfigurationError(
            f"radius must be in (0, sqrt(2)], got {radius}"
        )
    points = numpy_stream(random.Random(seed)).random_sample(2 * n)
    xs, ys = points[0::2], points[1::2]
    cells = max(1, int(min(1.0 / radius, _MAX_CELLS)))
    size = 1.0 / cells
    cx = _np.minimum((xs / size).astype(_np.int64), cells - 1)
    cy = _np.minimum((ys / size).astype(_np.int64), cells - 1)
    # Points sorted by cell (ascending index within a cell), and the
    # occupied cells with their runs in that order.
    order = _np.argsort(cx * cells + cy, kind="stable")
    cell_x, cell_y = cx[order], cy[order]
    cell_keys = cell_x * cells + cell_y
    del cx, cy
    first = _np.concatenate(([True], cell_keys[1:] != cell_keys[:-1]))
    run_starts = _np.nonzero(first)[0]
    occupied = cell_keys[run_starts]
    run_counts = _np.diff(_np.append(run_starts, n))
    run_of = _np.cumsum(first) - 1  # each sorted point's run
    r2 = radius * radius
    # Candidate arrays are freed as soon as they are spent: the build's
    # peak, not the rounds', sets a large flood's peak memory.
    firsts = [_np.zeros(0, dtype=_np.int64)]
    seconds = [_np.zeros(0, dtype=_np.int64)]
    for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        if dx == 0 and dy == 0:
            # Within a cell: each point pairs with the ones after it.
            starts = _np.arange(1, n + 1)
            counts = run_starts[run_of] + run_counts[run_of] - starts
        else:
            nx, ny = cell_x + dx, cell_y + dy
            valid = (nx < cells) & (ny >= 0) & (ny < cells)
            wanted = nx * cells + ny
            hit = _np.minimum(
                _np.searchsorted(occupied, wanted), occupied.size - 1
            )
            valid &= occupied[hit] == wanted
            starts = run_starts[hit]
            counts = _np.where(valid, run_counts[hit], 0)
        total = int(counts.sum())
        if not total:
            continue
        offsets = _np.repeat(_np.cumsum(counts) - counts, counts)
        partner = order[
            _np.arange(total) - offsets + _np.repeat(starts, counts)
        ]
        point = _np.repeat(order, counts)
        del offsets
        ddx = xs[point] - xs[partner]
        ddy = ys[point] - ys[partner]
        close = ddx * ddx + ddy * ddy <= r2
        del ddx, ddy
        firsts.append(point[close])
        seconds.append(partner[close])
        del point, partner, close
    a = _np.concatenate(firsts)
    b = _np.concatenate(seconds)
    del firsts, seconds
    sources = _np.concatenate((a, b))
    targets = _np.concatenate((b, a))
    del a, b
    return Topology.from_edges(n, sources, targets)


def _scale_free(*, n: int, m: int = 2, seed: int = 0) -> Topology:
    """Barabási–Albert preferential attachment: each arriving node links
    to ``m`` distinct existing nodes with probability ∝ degree."""
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    if n < m + 1:
        raise ConfigurationError(
            f"scale-free needs n >= m + 1 = {m + 1}, got {n}"
        )
    rng = random.Random(seed)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    # One entry per half-edge; sampling from it is degree-proportional.
    repeated: list[int] = []
    targets = list(range(m))
    source = m
    while source < n:
        for target in targets:
            adjacency[source].append(target)
            adjacency[target].append(source)
        repeated.extend(targets)
        repeated.extend([source] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[rng.randrange(len(repeated))])
        targets = sorted(chosen)
        source += 1
    return Topology.from_adjacency(adjacency)


@dataclass(frozen=True)
class TopologyFamily:
    """One row of the :data:`TOPOLOGIES` registry."""

    name: str
    builder: Callable[..., Topology]
    description: str
    #: Params beyond the size that the builder accepts.
    params: tuple[str, ...] = ()
    #: Whether the family takes a generator seed (random families).
    seeded: bool = False


TOPOLOGIES: dict[str, TopologyFamily] = {
    "complete": TopologyFamily(
        "complete", _complete,
        "complete graph (the paper's single-hop channel)",
    ),
    "ring": TopologyFamily(
        "ring", _ring, "cycle: node i hears i±1 (mod n)"
    ),
    "grid": TopologyFamily(
        "grid", _grid,
        "4-neighbor grid (rows x cols, or near-square from n)",
        params=("rows", "cols"),
    ),
    "geometric": TopologyFamily(
        "geometric", _geometric,
        "random geometric graph in the unit square (radius r)",
        params=("radius",), seeded=True,
    ),
    "scale-free": TopologyFamily(
        "scale-free", _scale_free,
        "Barabási–Albert preferential attachment (m links per node)",
        params=("m",), seeded=True,
    ),
}

#: CLI shorthand aliases accepted by :func:`parse_topology`.
_PARAM_ALIASES = {"r": "radius", "columns": "cols"}


def _spec_size(kind: str, params: Mapping[str, Any]) -> int | None:
    """The node count a spec pins, or ``None`` when still scalable."""
    if kind == "grid" and "rows" in params and "cols" in params:
        return int(params["rows"]) * int(params["cols"])
    n = params.get("n")
    return int(n) if n is not None else None


@dataclass(frozen=True)
class TopologySpec:
    """A declarative topology: generator name + params, as plain data.

    Hashable, picklable and JSON-round-trippable
    (:meth:`to_dict`/:meth:`from_dict`), so it can ride inside
    :class:`~repro.parallel.ChannelSpec` across process boundaries and
    into sweep-service cache keys.  ``params`` is a sorted tuple of
    ``(key, value)`` pairs; use :meth:`of` to build from kwargs.

    A spec may leave the node count open (e.g. ``geometric`` with only a
    radius): :meth:`with_n` pins it, and a sweep's ``ns`` grid does so
    per point.  Pinned specs refuse a conflicting ``with_n`` loudly.
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {self.kind!r} "
                f"(choose from {sorted(TOPOLOGIES)})"
            )
        params = self.params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted((str(k), v) for k, v in params))
        object.__setattr__(self, "params", params)

    @classmethod
    def of(cls, kind: str, **params: Any) -> "TopologySpec":
        """Build a spec from keyword params."""
        return cls(kind, tuple(sorted(params.items())))

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    @property
    def size(self) -> int | None:
        """The node count this spec pins (``None``: still scalable)."""
        return _spec_size(self.kind, self.param_dict())

    def with_n(self, n: int) -> "TopologySpec":
        """This spec pinned to ``n`` nodes.

        No-op when already pinned to ``n``; raises when pinned to a
        different size (a sweep's ``ns`` must match a pinned spec).
        """
        current = self.size
        if current is not None:
            if current != int(n):
                raise ConfigurationError(
                    f"topology {self.label()!r} pins {current} nodes; "
                    f"cannot re-pin to n={n}"
                )
            return self
        params = self.param_dict()
        params["n"] = int(n)
        return TopologySpec.of(self.kind, **params)

    def build(self) -> Topology:
        """The graph this spec describes (memoized per spec)."""
        return _build_topology(self)

    def label(self) -> str:
        """Canonical shorthand form, e.g. ``geometric:n=64,radius=0.25``
        (parseable back with :func:`parse_topology`)."""
        if not self.params:
            return self.kind
        rendered = ",".join(
            f"{key}={value}" for key, value in self.params
        )
        return f"{self.kind}:{rendered}"

    def to_dict(self) -> dict[str, Any]:
        """The flat JSON form, e.g. ``{"kind": "grid", "rows": 32,
        "cols": 32}``."""
        return {"kind": self.kind, **self.param_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        params = {
            str(k): v for k, v in data.items() if k != "kind"
        }
        try:
            kind = str(data["kind"])
        except KeyError:
            raise ConfigurationError(
                "a topology dict needs a 'kind' entry"
            ) from None
        return cls.of(kind, **params)


@lru_cache(maxsize=8)
def _build_topology(spec: TopologySpec) -> Topology:
    """Construct (and memoize) the graph of a fully-pinned spec.

    The cache is what keeps per-trial channel construction O(1): a sweep
    point builds its topology once and every trial's
    ``ChannelSpec.make`` reuses it (per process — specs pickle, graphs
    rebuild on first use in each worker).
    """
    family = TOPOLOGIES[spec.kind]
    try:
        return family.builder(**spec.param_dict())
    except TypeError as error:
        raise ConfigurationError(
            f"bad params for topology {spec.kind!r}: {error}"
        ) from None


def _parse_param_value(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_topology(text: str) -> TopologySpec:
    """Parse the CLI shorthand into a :class:`TopologySpec`.

    Forms (all resolved through :data:`TOPOLOGIES`):

    * ``ring`` — bare kind (size supplied later via ``with_n``);
    * ``complete:64`` — bare integer = node count;
    * ``grid:32x32`` — grid shape shorthand;
    * ``geometric:n=10000,r=0.02,seed=7`` — ``key=value`` params
      (``r`` aliases ``radius``).
    """
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip()
    if kind not in TOPOLOGIES:
        raise ConfigurationError(
            f"unknown topology {kind!r} "
            f"(choose from {sorted(TOPOLOGIES)})"
        )
    params: dict[str, Any] = {}
    for token in filter(None, (t.strip() for t in rest.split(","))):
        if "=" in token:
            key, _, value = token.partition("=")
            key = _PARAM_ALIASES.get(key.strip(), key.strip())
            params[key] = _parse_param_value(value.strip())
        elif kind == "grid" and "x" in token:
            rows_text, _, cols_text = token.partition("x")
            try:
                params["rows"] = int(rows_text)
                params["cols"] = int(cols_text)
            except ValueError:
                raise ConfigurationError(
                    f"bad grid shape {token!r} (want ROWSxCOLS)"
                ) from None
        else:
            try:
                params["n"] = int(token)
            except ValueError:
                raise ConfigurationError(
                    f"bad topology param {token!r} in {text!r} "
                    "(want key=value, a bare node count, or ROWSxCOLS)"
                ) from None
    return TopologySpec.of(kind, **params)
